// Transitive reduction of a DAG.
//
// Implements Algorithm 4 from Appendix A of the paper: visit vertices in
// reverse topological order, maintain per-vertex descendant bitsets, and drop
// any successor that is already a descendant via another successor. A DAG has
// a unique transitive reduction [AGU72], which is what Algorithms 1-3 rely
// on. Runs in O(V*E/64) time and O(V^2/64) space.
//
// The descendant sets live in a flat BitMatrix (one 64-byte-aligned
// allocation, padded rows) so the per-vertex unions run through the unrolled
// word kernels in util/bit_matrix.h. For graphs whose descendant matrix
// outgrows cache, TransitiveReductionBlocked sweeps the columns in fixed-size
// panels: each panel's slice of every row is unioned while it is still hot,
// instead of streaming full rows through memory once per vertex.
//
// InducedReducer is the batch interface the general-DAG miner uses: it
// reduces the subgraph induced by an activity subset of p vertices without
// materializing a full-size DirectedGraph per execution. One scan of the
// host adjacency fills compact successor rows of ceil(p/64) words; a FIFO
// Kahn pass orders them (any topological order yields the same unique
// reduction), and Algorithm 4 then clears the redundant bits of each row in
// place, so the rows read out in compact order are the kept edges already
// (from, to)-sorted. For p <= 64 every row is one word. All scratch comes
// from a per-reducer Arena that is Reset between calls, so steady-state
// reductions allocate nothing.
//
// A naive O(E*(V+E)) reference implementation is provided for property tests
// and as the baseline in the micro benchmarks.

#ifndef PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_
#define PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_

#include <vector>

#include "graph/digraph.h"
#include "util/arena.h"
#include "util/result.h"

namespace procmine {

/// Transitive reduction via Algorithm 4 (bitset descendant sets).
/// Fails with FailedPrecondition if `g` has a cycle.
Result<DirectedGraph> TransitiveReduction(const DirectedGraph& g);

/// Cache-blocked variant: processes the descendant matrix in column panels
/// of `panel_words` 64-bit words (0 selects the default, one 4 KiB page per
/// panel). Produces the same graph as TransitiveReduction for every panel
/// width; TransitiveReduction dispatches here automatically once a row
/// outgrows the panel. Exposed separately so tests and benches can force
/// small panels on small graphs.
Result<DirectedGraph> TransitiveReductionBlocked(const DirectedGraph& g,
                                                 size_t panel_words);

/// Reference implementation: an edge (u,v) is kept iff there is no other
/// path from u to v (Lemma 7 / [AGU72]). Fails on cyclic input.
Result<DirectedGraph> TransitiveReductionNaive(const DirectedGraph& g);

/// Repeatedly reduces induced subgraphs of one fixed host graph.
///
/// The general-DAG miner calls this once per distinct activity set: the
/// subgraph induced by the set is transitively reduced and the surviving
/// edges reported in host-graph ids. Compared to InducedSubgraph +
/// TransitiveReduction this works in a compact index space of
/// p = present.size() vertices (not the host's n), and every per-call
/// allocation is arena scratch reused across calls — for logs with many
/// small executions over a large activity alphabet this is the difference
/// between O(p) and O(n) work per execution.
///
/// Not thread-safe; each worker keeps its own reducer.
class InducedReducer {
 public:
  explicit InducedReducer(const DirectedGraph& g);

  /// Reduces the subgraph of the host induced by `present` and appends the
  /// kept edges (host ids, sorted by (from, to)) to `*out`, which is
  /// cleared first. `present` must be sorted ascending with no duplicates.
  /// Fails with FailedPrecondition("graph has a cycle") on cyclic input.
  Status Reduce(const std::vector<NodeId>& present, std::vector<Edge>* out);

  /// Scratch watermark across all Reduce calls so far (for benchmarks).
  size_t scratch_bytes_reserved() const { return arena_.bytes_reserved(); }

 private:
  const DirectedGraph& g_;
  Arena arena_;
  /// Host id -> compact index, -1 when absent. Sized to the host's n once;
  /// entries touched by a call are un-touched right after its adjacency
  /// scan, before any exit, so Reduce stays O(p) even though the map is
  /// O(n) storage.
  std::vector<int32_t> compact_;
};

}  // namespace procmine

#endif  // PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_
