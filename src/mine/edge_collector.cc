#include "mine/edge_collector.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace procmine {

namespace {

// Visits the distinct precedence pairs of executions [span.begin,
// span.end), calling on_pair(key, execution index). A template so that the
// plain counting path stays branch-free when no recorder is attached.
template <typename OnPair>
void ScanSpan(const EventLog& log, ExecutionSpan span, OnPair&& on_pair) {
  PROCMINE_SPAN("edges.collect_shard");
  static obs::Counter* executions = obs::MetricsRegistry::Get().GetCounter(
      "mine.executions_scanned");
  static obs::Histogram* exec_size = obs::MetricsRegistry::Get().GetHistogram(
      "mine.execution_instances", {4, 16, 64, 256, 1024, 4096});
  executions->Add(static_cast<int64_t>(span.end - span.begin));
  std::unordered_set<uint64_t> seen_this_exec;
  for (size_t e = span.begin; e < span.end; ++e) {
    const Execution& exec = log.execution(e);
    exec_size->Record(static_cast<int64_t>(exec.size()));
    ForEachPrecedencePair(exec, &seen_this_exec,
                          [&](uint64_t key) { on_pair(key, e); });
  }
}

// Scans each span into its own map with `scan(span, &map)`, in parallel
// when a pool is given, then folds the maps in span order with
// `fold(&cell, other_cell)`. Spans hold disjoint executions and both folds
// (counter sum; evidence sum/min/max) are order-independent, so every
// partition of the log yields the same map.
template <typename Map, typename Scan, typename Fold>
Map ScanShards(const std::vector<ExecutionSpan>& spans, ThreadPool* pool,
               Scan&& scan, Fold&& fold) {
  std::vector<Map> shards(spans.size());
  ForEachChunk(pool, spans.size(),
               [&](size_t s) { scan(spans[s], &shards[s]); });
  Map merged = std::move(shards[0]);
  for (size_t s = 1; s < shards.size(); ++s) {
    for (const auto& [key, cell] : shards[s]) fold(&merged[key], cell);
  }
  return merged;
}

}  // namespace

EdgeCounts CollectPrecedenceEdges(const EventLog& log) {
  return CollectPrecedenceEdges(log, nullptr);
}

EdgeCounts CollectPrecedenceEdges(const EventLog& log, ThreadPool* pool,
                                  ProvenanceRecorder* provenance,
                                  size_t chunk_size) {
  PROCMINE_SPAN("edges.collect");
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  std::vector<ExecutionSpan> spans =
      log.Shards(PlanChunks(log.num_executions(), threads, chunk_size));
  if (spans.empty()) return EdgeCounts();
  EdgeCounts merged;
  if (provenance != nullptr) {
    // The provenance twin of the counting scan: each cell also tracks the
    // first/last witnessing execution; its support is the count.
    EdgeEvidenceMap evidence = ScanShards<EdgeEvidenceMap>(
        spans, pool,
        [&](ExecutionSpan span, EdgeEvidenceMap* cells) {
          ScanSpan(log, span, [cells](uint64_t key, size_t e) {
            (*cells)[key].Observe(static_cast<int64_t>(e));
          });
        },
        [](EdgeEvidence* cell, const EdgeEvidence& other) {
          cell->Merge(other);
        });
    merged.reserve(evidence.size());
    for (const auto& [key, cell] : evidence) merged[key] = cell.support;
    provenance->SetEvidence(std::move(evidence));
  } else {
    merged = ScanShards<EdgeCounts>(
        spans, pool,
        [&](ExecutionSpan span, EdgeCounts* counts) {
          ScanSpan(log, span,
                   [counts](uint64_t key, size_t) { ++(*counts)[key]; });
        },
        [](int64_t* count, int64_t other) { *count += other; });
  }
  static obs::Counter* collected =
      obs::MetricsRegistry::Get().GetCounter("mine.edges_collected");
  collected->Add(static_cast<int64_t>(merged.size()));
  PROCMINE_LOG(Debug) << "collected " << merged.size()
                      << " distinct precedence edges from "
                      << log.num_executions() << " executions across "
                      << spans.size() << " shards";
  return merged;
}

DirectedGraph BuildPrecedenceGraph(const EdgeCounts& counts, NodeId num_nodes,
                                   int64_t threshold,
                                   ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.build_graph");
  DirectedGraph g(num_nodes);
  int64_t pruned = 0;
  for (const auto& [key, count] : counts) {
    if (count >= threshold) {
      Edge e = UnpackEdge(key);
      g.AddEdge(e.from, e.to);
    } else {
      ++pruned;
      if (provenance != nullptr) {
        Edge e = UnpackEdge(key);
        provenance->MarkDropped(e.from, e.to, DropReason::kBelowThreshold);
      }
    }
  }
  static obs::Counter* below = obs::MetricsRegistry::Get().GetCounter(
      "mine.edges_pruned_below_threshold");
  below->Add(pruned);
  return g;
}

void RemoveTwoCycles(DirectedGraph* g, ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.remove_two_cycles");
  std::vector<Edge> to_remove;
  for (const Edge& e : g->Edges()) {
    if (e.from < e.to && g->HasEdge(e.to, e.from)) {
      to_remove.push_back(e);
      to_remove.push_back(Edge{e.to, e.from});
    }
    if (e.from == e.to) to_remove.push_back(e);  // self loop: trivial cycle
  }
  for (const Edge& e : to_remove) {
    g->RemoveEdge(e.from, e.to);
    if (provenance != nullptr) {
      provenance->MarkDropped(e.from, e.to, DropReason::kTwoCycle);
    }
  }
  static obs::Counter* removed = obs::MetricsRegistry::Get().GetCounter(
      "mine.two_cycle_edges_removed");
  removed->Add(static_cast<int64_t>(to_remove.size()));
}

void RemoveIntraSccEdges(DirectedGraph* g, ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.remove_intra_scc");
  SccResult scc = StronglyConnectedComponents(*g);
  std::vector<Edge> to_remove;
  for (const Edge& e : g->Edges()) {
    if (scc.component[static_cast<size_t>(e.from)] ==
        scc.component[static_cast<size_t>(e.to)]) {
      to_remove.push_back(e);
    }
  }
  for (const Edge& e : to_remove) {
    g->RemoveEdge(e.from, e.to);
    if (provenance != nullptr) {
      provenance->MarkDropped(e.from, e.to, DropReason::kIntraScc);
    }
  }
  // A component is "merged" when it collapses >= 2 mutually-following
  // activities (the groups `procmine explain` narrates as step 4).
  int64_t merged = 0;
  for (const std::vector<NodeId>& group : scc.Members()) {
    if (group.size() > 1) ++merged;
  }
  static obs::Counter* sccs =
      obs::MetricsRegistry::Get().GetCounter("mine.sccs_merged");
  sccs->Add(merged);
  static obs::Counter* removed = obs::MetricsRegistry::Get().GetCounter(
      "mine.intra_scc_edges_removed");
  removed->Add(static_cast<int64_t>(to_remove.size()));
}

}  // namespace procmine
