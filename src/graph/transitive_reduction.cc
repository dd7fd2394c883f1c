#include "graph/transitive_reduction.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "graph/algorithms.h"
#include "util/bit_matrix.h"

namespace procmine {

namespace {

// One column panel of this many words (4 KiB) per blocked sweep: big enough
// that the kernel loops amortize the per-vertex adjacency walk, small enough
// that a panel's slice of the whole matrix stays cache-resident.
constexpr size_t kDefaultPanelWords = 512;

// Algorithm 4 over column panels. Each panel pass walks the vertices in
// reverse topological order and unions only the panel's slice of the
// successor rows; a successor's own bit lives in exactly one panel, so the
// keep/drop decision for edge (v,u) is made exactly once — in u's panel.
// With panel_words >= words_per_row this degenerates to the classic
// single-pass algorithm.
DirectedGraph ReduceWithOrder(const DirectedGraph& g,
                              const std::vector<NodeId>& order,
                              size_t panel_words) {
  const NodeId n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  // descendants[v]: all u such that v ->+ u, filled in reverse topological
  // order so successors are always complete before their predecessors.
  BitMatrix descendants(un, un);
  DirectedGraph reduced(n);
  const size_t row_words = descendants.words_per_row();
  for (size_t w0 = 0; w0 < row_words; w0 += panel_words) {
    const size_t pw = std::min(panel_words, row_words - w0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      uint64_t* dst = descendants.RowWords(static_cast<size_t>(v)) + w0;
      // Step (a): union the panel slice of all successors' descendant sets.
      for (NodeId u : g.OutNeighbors(v)) {
        bits::Or(dst, descendants.RowWords(static_cast<size_t>(u)) + w0, pw);
      }
      // Step (b): a successor already reachable through another successor is
      // a redundant edge; keep only the others. Only successors whose bit
      // falls inside this panel are decided here.
      for (NodeId u : g.OutNeighbors(v)) {
        const size_t uw = static_cast<size_t>(u) >> 6;
        if (uw < w0 || uw >= w0 + pw) continue;
        if (!((dst[uw - w0] >> (u & 63)) & 1)) reduced.AddEdge(v, u);
      }
      // Step (c): every successor (kept or dropped) is a descendant.
      for (NodeId u : g.OutNeighbors(v)) {
        const size_t uw = static_cast<size_t>(u) >> 6;
        if (uw < w0 || uw >= w0 + pw) continue;
        dst[uw - w0] |= uint64_t{1} << (u & 63);
      }
    }
  }
  return reduced;
}

}  // namespace

Result<DirectedGraph> TransitiveReduction(const DirectedGraph& g) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(g));
  const size_t row_words = (static_cast<size_t>(g.num_nodes()) + 63) / 64;
  // Single pass while a row fits comfortably; panel sweeps once the matrix
  // outgrows cache (the same graph either way).
  const size_t panel = row_words > kDefaultPanelWords
                           ? kDefaultPanelWords
                           : std::max<size_t>(1, row_words);
  return ReduceWithOrder(g, order, panel);
}

Result<DirectedGraph> TransitiveReductionBlocked(const DirectedGraph& g,
                                                 size_t panel_words) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(g));
  if (panel_words == 0) panel_words = kDefaultPanelWords;
  return ReduceWithOrder(g, order, panel_words);
}

Result<DirectedGraph> TransitiveReductionNaive(const DirectedGraph& g) {
  if (HasCycle(g)) {
    return Status::FailedPrecondition("graph has a cycle");
  }
  const NodeId n = g.num_nodes();
  DirectedGraph reduced(n);
  for (const Edge& e : g.Edges()) {
    // Keep (u,v) iff no path u ->+ v exists that avoids the direct edge,
    // i.e. no successor w != v of u reaches v.
    bool redundant = false;
    for (NodeId w : g.OutNeighbors(e.from)) {
      if (w == e.to) continue;
      if (HasPath(g, w, e.to)) {
        redundant = true;
        break;
      }
    }
    if (!redundant) reduced.AddEdge(e.from, e.to);
  }
  return reduced;
}

InducedReducer::InducedReducer(const DirectedGraph& g)
    : g_(g), compact_(static_cast<size_t>(g.num_nodes()), -1) {}

Status InducedReducer::Reduce(const std::vector<NodeId>& present,
                              std::vector<Edge>* out) {
  out->clear();
  const size_t p = present.size();
  if (p == 0) return Status::OK();
  arena_.Reset();

  // Host id -> compact index. present is sorted, so compact order == host
  // id order.
  for (size_t i = 0; i < p; ++i) {
    const NodeId v = present[i];
    PROCMINE_DCHECK(v >= 0 && v < g_.num_nodes());
    PROCMINE_DCHECK(i == 0 || present[i - 1] < v);  // sorted, no duplicates
    compact_[static_cast<size_t>(v)] = static_cast<int32_t>(i);
  }

  // One scan of the host adjacency: row i of `succ` holds bit j iff
  // present[i] -> present[j], and indegree counts the induced in-edges.
  // The compact map is un-touched right after, before any exit.
  const size_t words = (p + 63) / 64;
  uint64_t* succ = arena_.AllocateArray<uint64_t>(p * words);
  uint64_t* desc = arena_.AllocateArray<uint64_t>(p * words);
  int32_t* indegree = arena_.AllocateArray<int32_t>(p);
  int32_t* order = arena_.AllocateArray<int32_t>(p);
  std::memset(succ, 0, p * words * sizeof(uint64_t));
  std::memset(desc, 0, p * words * sizeof(uint64_t));
  std::memset(indegree, 0, p * sizeof(int32_t));
  for (size_t i = 0; i < p; ++i) {
    uint64_t* row = succ + i * words;
    for (NodeId u : g_.OutNeighbors(present[i])) {
      const int32_t cu = compact_[static_cast<size_t>(u)];
      if (cu < 0) continue;
      row[cu >> 6] |= uint64_t{1} << (cu & 63);
      ++indegree[cu];
    }
  }
  for (NodeId v : present) compact_[static_cast<size_t>(v)] = -1;

  // Calls fn(j) for every set bit j of the `words`-word row, ascending.
  auto for_each_bit = [words](const uint64_t* row, auto&& fn) {
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        fn(static_cast<int32_t>(w * 64 + std::countr_zero(word)));
      }
    }
  };

  // Kahn's algorithm with a FIFO queue that doubles as the order. Any
  // topological order will do: the reduction of a DAG is unique [AGU72].
  size_t ordered = 0;
  for (size_t i = 0; i < p; ++i) {
    if (indegree[i] == 0) order[ordered++] = static_cast<int32_t>(i);
  }
  for (size_t head = 0; head < ordered; ++head) {
    for_each_bit(succ + static_cast<size_t>(order[head]) * words,
                 [&](int32_t u) {
                   if (--indegree[u] == 0) order[ordered++] = u;
                 });
  }
  if (ordered != p) return Status::FailedPrecondition("graph has a cycle");

  // Algorithm 4 in reverse topological order. A successor already among
  // the descendants of another successor is redundant: clearing it turns
  // row v of `succ` into v's kept edges in place.
  for (size_t k = p; k-- > 0;) {
    const size_t v = static_cast<size_t>(order[k]);
    uint64_t* row = desc + v * words;
    uint64_t* kept = succ + v * words;
    for_each_bit(kept, [&](int32_t u) {
      bits::Or(row, desc + static_cast<size_t>(u) * words, words);
    });
    for (size_t w = 0; w < words; ++w) {
      kept[w] &= ~row[w];
      row[w] |= kept[w];  // dropped successors are in row already
    }
  }

  // Compact order is host order, so rows then bits are (from, to)-sorted.
  for (size_t i = 0; i < p; ++i) {
    for_each_bit(succ + i * words, [&](int32_t j) {
      out->push_back(Edge{present[i], present[static_cast<size_t>(j)]});
    });
  }
  return Status::OK();
}

}  // namespace procmine
