#include "graph/ascii.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "util/strings.h"

namespace procmine {

std::vector<int32_t> LayerAssignment(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  SccResult scc = StronglyConnectedComponents(g);

  // Condensation edges and longest-path layering over components. Tarjan
  // numbers components in reverse topological order, so iterating
  // components from high to low index visits sources first.
  std::vector<int32_t> comp_layer(static_cast<size_t>(scc.num_components),
                                  0);
  const std::vector<std::vector<NodeId>> members = scc.Members();
  for (int32_t c = scc.num_components - 1; c >= 0; --c) {
    // comp_layer[c] is final once all predecessors (higher indices) are
    // done; push the layer forward along outgoing condensation edges.
    for (NodeId v : members[static_cast<size_t>(c)]) {
      for (NodeId u : g.OutNeighbors(v)) {
        int32_t cu = scc.component[static_cast<size_t>(u)];
        if (cu != c) {
          comp_layer[static_cast<size_t>(cu)] =
              std::max(comp_layer[static_cast<size_t>(cu)],
                       comp_layer[static_cast<size_t>(c)] + 1);
        }
      }
    }
  }
  std::vector<int32_t> layer(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    layer[static_cast<size_t>(v)] =
        comp_layer[static_cast<size_t>(scc.component[static_cast<size_t>(v)])];
  }
  return layer;
}

std::string RenderAscii(const DirectedGraph& g,
                        const std::vector<std::string>& names) {
  const NodeId n = g.num_nodes();
  auto name_of = [&](NodeId v) -> std::string {
    return static_cast<size_t>(v) < names.size()
               ? names[static_cast<size_t>(v)]
               : "n" + std::to_string(v);
  };
  auto connected = [&](NodeId v) {
    return g.InDegree(v) > 0 || g.OutDegree(v) > 0;
  };

  std::vector<int32_t> layer = LayerAssignment(g);
  int32_t max_layer = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (connected(v)) max_layer = std::max(max_layer, layer[static_cast<size_t>(v)]);
  }

  std::ostringstream out;
  for (int32_t l = 0; l <= max_layer; ++l) {
    std::vector<std::string> members;
    for (NodeId v = 0; v < n; ++v) {
      if (connected(v) && layer[static_cast<size_t>(v)] == l) {
        members.push_back(name_of(v));
      }
    }
    if (members.empty()) continue;
    out << "layer " << l << ": " << Join(members, " | ") << "\n";
  }
  for (NodeId v = 0; v < n; ++v) {
    if (g.OutDegree(v) == 0) continue;
    std::vector<std::string> successors;
    std::vector<NodeId> sorted = g.OutNeighbors(v);
    std::sort(sorted.begin(), sorted.end());
    for (NodeId u : sorted) successors.push_back(name_of(u));
    out << name_of(v) << " -> " << Join(successors, " | ") << "\n";
  }
  return out.str();
}

}  // namespace procmine
