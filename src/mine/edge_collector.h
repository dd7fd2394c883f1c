// Edge collection — step 2 of Algorithms 1-3: "For each process execution in
// L, and for each pair of activities u, v such that u terminates before v
// starts, add the edge (u, v) to E."
//
// For the noise handling of Section 6, each edge carries a counter of how
// many *executions* exhibited it; edges below the threshold T are dropped
// before the structural steps run.

#ifndef PROCMINE_MINE_EDGE_COLLECTOR_H_
#define PROCMINE_MINE_EDGE_COLLECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "mine/provenance.h"

namespace procmine {

class ThreadPool;

/// Precedence-edge counters: counts[PackEdge(u,v)] = number of executions in
/// which some instance of u terminates before some instance of v starts.
using EdgeCounts = std::unordered_map<uint64_t, int64_t>;

/// Calls `fn(PackEdge(u, v))` once per distinct precedence pair (u, v) of
/// `exec` — some instance of u terminates before some instance of v starts —
/// in discovery order. Instances are ordered by start time, so for a fixed
/// instance i the partners j with start(j) > end(i) form a suffix of the
/// instance list: binary-search its first index instead of scanning all
/// pairs. (Only j > i can qualify: start(j) <= start(i) <= end(i) for
/// j <= i.) `seen` is the caller's dedup scratch, cleared here; deduping
/// keeps the once-per-execution counting semantics of Section 6.
template <typename Fn>
void ForEachPrecedencePair(const Execution& exec,
                           std::unordered_set<uint64_t>* seen, Fn&& fn) {
  const std::vector<ActivityInstance>& instances = exec.instances();
  seen->clear();
  for (size_t i = 0; i < instances.size(); ++i) {
    const int64_t end_i = instances[i].end;
    auto first = std::partition_point(
        instances.begin() + static_cast<ptrdiff_t>(i) + 1, instances.end(),
        [end_i](const ActivityInstance& x) { return x.start <= end_i; });
    for (auto it = first; it != instances.end(); ++it) {
      uint64_t key = PackEdge(instances[i].activity, it->activity);
      if (seen->insert(key).second) fn(key);
    }
  }
}

/// Scans the log once and counts precedence edges. Instances are sorted by
/// start time, so each instance binary-searches the first partner that
/// starts after it ends: O(sum of k log k + qualifying pairs) per log.
EdgeCounts CollectPrecedenceEdges(const EventLog& log);

/// Parallel variant: executions are split into work-stealing chunks counted
/// independently (idle workers claim the next chunk), then the per-edge
/// counters are summed in chunk order. Executions are disjoint across
/// chunks and the chunk partition depends only on (log, thread count,
/// chunk_size), so the totals (and the once-per-execution dedup semantics)
/// are identical to the sequential path for any thread count. `pool` may be
/// null (sequential); `chunk_size` is the per-chunk execution count (0 =
/// default, see PlanChunks).
///
/// When `provenance` is non-null the scan additionally records each edge's
/// first/last witnessing execution index into the recorder (chunk cells
/// merge by sum/min/max, so the evidence is identical for any thread
/// count). The counting path is untouched when `provenance` is null.
EdgeCounts CollectPrecedenceEdges(const EventLog& log, ThreadPool* pool,
                                  ProvenanceRecorder* provenance = nullptr,
                                  size_t chunk_size = 0);

/// Materializes the step-2 graph over `num_nodes` vertices, keeping edges
/// with count >= threshold (threshold 1 = no noise filtering). Pruned edges
/// are reported to `provenance` as kBelowThreshold when it is non-null.
DirectedGraph BuildPrecedenceGraph(const EdgeCounts& counts, NodeId num_nodes,
                                   int64_t threshold,
                                   ProvenanceRecorder* provenance = nullptr);

/// Step 3 of Algorithms 1-3: "Remove from E the edges that appear in both
/// directions." Removes both orientations of every 2-cycle, in place.
/// Removed edges are reported to `provenance` as kTwoCycle.
void RemoveTwoCycles(DirectedGraph* g,
                     ProvenanceRecorder* provenance = nullptr);

/// Step 4 of Algorithms 2-3: removes every edge between two vertices of the
/// same strongly connected component, in place. Vertices in one SCC follow
/// each other both ways and are therefore independent (Definition 4).
/// Removed edges are reported to `provenance` as kIntraScc.
void RemoveIntraSccEdges(DirectedGraph* g,
                         ProvenanceRecorder* provenance = nullptr);

}  // namespace procmine

#endif  // PROCMINE_MINE_EDGE_COLLECTOR_H_
