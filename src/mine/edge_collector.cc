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

// Counts the precedence edges of executions [span.begin, span.end) into
// `counts`.
void CollectSpan(const EventLog& log, ExecutionSpan span, EdgeCounts* counts) {
  ScanSpan(log, span, [counts](uint64_t key, size_t) { ++(*counts)[key]; });
}

// Provenance-recording twin of CollectSpan: additionally tracks first/last
// witnessing execution index per edge.
void CollectEvidenceSpan(const EventLog& log, ExecutionSpan span,
                         EdgeEvidenceMap* evidence) {
  ScanSpan(log, span, [evidence](uint64_t key, size_t e) {
    EdgeEvidence& cell = (*evidence)[key];
    ++cell.support;
    const int64_t index = static_cast<int64_t>(e);
    if (cell.first_witness < 0) cell.first_witness = index;
    cell.last_witness = index;  // e is increasing within the shard
  });
}

// Chunked evidence collection mirroring the counting path: disjoint
// execution spans, then a sum/min/max merge that is identical for any chunk
// count. Returns the merged evidence and fills `counts` with the supports.
EdgeEvidenceMap CollectEvidence(const EventLog& log,
                                const std::vector<ExecutionSpan>& spans,
                                ThreadPool* pool, EdgeCounts* counts) {
  std::vector<EdgeEvidenceMap> shard_evidence(spans.size());
  if (pool != nullptr && spans.size() > 1) {
    pool->ParallelForChunked(spans.size(), [&](size_t c) {
      CollectEvidenceSpan(log, spans[c], &shard_evidence[c]);
    });
  } else {
    for (size_t s = 0; s < spans.size(); ++s) {
      CollectEvidenceSpan(log, spans[s], &shard_evidence[s]);
    }
  }
  EdgeEvidenceMap merged = std::move(shard_evidence[0]);
  for (size_t s = 1; s < shard_evidence.size(); ++s) {
    for (const auto& [key, cell] : shard_evidence[s]) {
      merged[key].Merge(cell);
    }
  }
  counts->reserve(merged.size());
  for (const auto& [key, cell] : merged) (*counts)[key] = cell.support;
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
    provenance->SetEvidence(CollectEvidence(log, spans, pool, &merged));
  } else {
    std::vector<EdgeCounts> shard_counts(spans.size());
    if (pool != nullptr && spans.size() > 1) {
      pool->ParallelForChunked(spans.size(), [&](size_t c) {
        CollectSpan(log, spans[c], &shard_counts[c]);
      });
    } else {
      for (size_t s = 0; s < spans.size(); ++s) {
        CollectSpan(log, spans[s], &shard_counts[s]);
      }
    }
    // Reduce: each chunk counted disjoint executions, so summing the
    // per-edge counters in chunk order reproduces the sequential totals for
    // any thread count.
    merged = std::move(shard_counts[0]);
    for (size_t s = 1; s < shard_counts.size(); ++s) {
      for (const auto& [key, count] : shard_counts[s]) merged[key] += count;
    }
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
  // activities (trace.cc's scc_groups reports the same sets).
  std::vector<int64_t> members(static_cast<size_t>(scc.num_components), 0);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    ++members[static_cast<size_t>(scc.component[static_cast<size_t>(v)])];
  }
  int64_t merged = 0;
  for (int64_t size : members) {
    if (size > 1) ++merged;
  }
  static obs::Counter* sccs =
      obs::MetricsRegistry::Get().GetCounter("mine.sccs_merged");
  sccs->Add(merged);
  static obs::Counter* removed = obs::MetricsRegistry::Get().GetCounter(
      "mine.intra_scc_edges_removed");
  removed->Add(static_cast<int64_t>(to_remove.size()));
}

}  // namespace procmine
