#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

namespace procmine {

Result<std::vector<NodeId>> TopologicalSort(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<int64_t> indegree(static_cast<size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    indegree[static_cast<size_t>(v)] = g.InDegree(v);
  }
  // Min-heap on vertex id for deterministic output (Kahn's algorithm).
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[static_cast<size_t>(v)] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(n));
  while (!ready.empty()) {
    NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId u : g.OutNeighbors(v)) {
      if (--indegree[static_cast<size_t>(u)] == 0) ready.push(u);
    }
  }
  if (order.size() != static_cast<size_t>(n)) {
    return Status::FailedPrecondition("graph has a cycle");
  }
  return order;
}

bool HasCycle(const DirectedGraph& g) { return !TopologicalSort(g).ok(); }

std::vector<std::vector<NodeId>> SccResult::Members() const {
  std::vector<std::vector<NodeId>> members(
      static_cast<size_t>(num_components));
  for (size_t v = 0; v < component.size(); ++v) {
    members[static_cast<size_t>(component[v])].push_back(
        static_cast<NodeId>(v));
  }
  return members;
}

SccResult StronglyConnectedComponents(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  SccResult result;
  result.component.assign(static_cast<size_t>(n), -1);

  std::vector<int32_t> index(static_cast<size_t>(n), -1);
  std::vector<int32_t> lowlink(static_cast<size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<size_t>(n), false);
  std::vector<NodeId> stack;
  int32_t next_index = 0;

  // Iterative Tarjan: frame = (vertex, next-child position).
  struct Frame {
    NodeId v;
    size_t child;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (index[static_cast<size_t>(root)] != -1) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      NodeId v = f.v;
      if (f.child == 0) {
        index[static_cast<size_t>(v)] = next_index;
        lowlink[static_cast<size_t>(v)] = next_index;
        ++next_index;
        stack.push_back(v);
        on_stack[static_cast<size_t>(v)] = true;
      }
      const auto& succ = g.OutNeighbors(v);
      if (f.child < succ.size()) {
        NodeId w = succ[f.child++];
        if (index[static_cast<size_t>(w)] == -1) {
          frames.push_back({w, 0});
        } else if (on_stack[static_cast<size_t>(w)]) {
          lowlink[static_cast<size_t>(v)] = std::min(
              lowlink[static_cast<size_t>(v)], index[static_cast<size_t>(w)]);
        }
      } else {
        if (lowlink[static_cast<size_t>(v)] == index[static_cast<size_t>(v)]) {
          // v is the root of an SCC; pop it off the stack.
          for (;;) {
            NodeId w = stack.back();
            stack.pop_back();
            on_stack[static_cast<size_t>(w)] = false;
            result.component[static_cast<size_t>(w)] = result.num_components;
            if (w == v) break;
          }
          ++result.num_components;
        }
        frames.pop_back();
        if (!frames.empty()) {
          NodeId parent = frames.back().v;
          lowlink[static_cast<size_t>(parent)] =
              std::min(lowlink[static_cast<size_t>(parent)],
                       lowlink[static_cast<size_t>(v)]);
        }
      }
    }
  }
  return result;
}

BitMatrix ReachabilityMatrix(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  BitMatrix reach(un, un);
  // Process SCCs in the order Tarjan emits them (reverse topological order of
  // the condensation): when we finish component c, every component it can
  // reach has already been finished.
  SccResult scc = StronglyConnectedComponents(g);
  const std::vector<std::vector<NodeId>> members = scc.Members();
  // Per-component reach set, built in component index order (0 first).
  BitMatrix comp_reach(static_cast<size_t>(scc.num_components), un);
  for (int32_t c = 0; c < scc.num_components; ++c) {
    BitRow r = comp_reach[static_cast<size_t>(c)];
    const auto& verts = members[static_cast<size_t>(c)];
    bool cyclic = verts.size() > 1;
    for (NodeId v : verts) {
      for (NodeId u : g.OutNeighbors(v)) {
        r.Set(static_cast<size_t>(u));
        int32_t cu = scc.component[static_cast<size_t>(u)];
        if (cu != c) {
          r.OrWith(comp_reach[static_cast<size_t>(cu)]);
        } else if (u == v) {
          cyclic = true;  // self loop
        }
      }
    }
    if (cyclic) {
      // Every member of a non-trivial SCC reaches every member, itself
      // included.
      for (NodeId v : verts) r.Set(static_cast<size_t>(v));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    reach[static_cast<size_t>(v)].CopyFrom(
        comp_reach[static_cast<size_t>(scc.component[static_cast<size_t>(v)])]);
  }
  return reach;
}

DirectedGraph TransitiveClosure(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  DirectedGraph closure(n);
  BitMatrix reach = ReachabilityMatrix(g);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u = 0; u < n; ++u) {
      if (reach.Test(static_cast<size_t>(v), static_cast<size_t>(u))) {
        closure.AddEdge(v, u);
      }
    }
  }
  return closure;
}

bool HasPath(const DirectedGraph& g, NodeId from, NodeId to) {
  const NodeId n = g.num_nodes();
  if (from < 0 || from >= n || to < 0 || to >= n) return false;
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<NodeId> stack;
  for (NodeId u : g.OutNeighbors(from)) {
    if (!visited[static_cast<size_t>(u)]) {
      visited[static_cast<size_t>(u)] = true;
      stack.push_back(u);
    }
  }
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    for (NodeId u : g.OutNeighbors(v)) {
      if (!visited[static_cast<size_t>(u)]) {
        visited[static_cast<size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  return false;
}

DirectedGraph InducedSubgraph(const DirectedGraph& g,
                              const std::vector<NodeId>& nodes) {
  DirectedGraph sub(g.num_nodes());
  std::vector<bool> keep(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId v : nodes) {
    PROCMINE_DCHECK(v >= 0 && v < g.num_nodes());
    keep[static_cast<size_t>(v)] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!keep[static_cast<size_t>(v)]) continue;
    for (NodeId u : g.OutNeighbors(v)) {
      if (keep[static_cast<size_t>(u)]) sub.AddEdge(v, u);
    }
  }
  return sub;
}

std::vector<NodeId> Sources(const DirectedGraph& g) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> Sinks(const DirectedGraph& g) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.OutDegree(v) == 0) out.push_back(v);
  }
  return out;
}

bool IsWeaklyConnected(const DirectedGraph& g) {
  const NodeId n = g.num_nodes();
  if (n == 0) return true;
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<NodeId> stack = {0};
  visited[0] = true;
  size_t seen = 1;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    auto visit = [&](NodeId u) {
      if (!visited[static_cast<size_t>(u)]) {
        visited[static_cast<size_t>(u)] = true;
        ++seen;
        stack.push_back(u);
      }
    };
    for (NodeId u : g.OutNeighbors(v)) visit(u);
    for (NodeId u : g.InNeighbors(v)) visit(u);
  }
  return seen == static_cast<size_t>(n);
}

std::vector<NodeId> ReachableFrom(const DirectedGraph& g, NodeId start) {
  const NodeId n = g.num_nodes();
  PROCMINE_CHECK(start >= 0 && start < n);
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<NodeId> stack = {start};
  visited[static_cast<size_t>(start)] = true;
  std::vector<NodeId> out;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    for (NodeId u : g.OutNeighbors(v)) {
      if (!visited[static_cast<size_t>(u)]) {
        visited[static_cast<size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace procmine
