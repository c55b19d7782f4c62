// Cuthill–McKee and Reverse Cuthill–McKee orderings.
//
// CM performs a breadth-first traversal of the matrix graph where each
// level's vertices are visited in ascending-degree order; RCM reverses the
// result, which is known to produce less fill for symmetric positive
// definite factorizations (Liu & Sherman 1976) and is the variant evaluated
// by the paper. Components are each started from a George–Liu
// pseudo-peripheral vertex and processed in ascending order of their lowest
// vertex id for determinism.
#include <algorithm>

#include "graph/graph.hpp"
#include "reorder/reordering.hpp"

namespace ordo {

Permutation cuthill_mckee_ordering(const Graph& g, BfsWorkspace& ws) {
  const index_t n = g.num_vertices();
  Permutation order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  for (index_t s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    // Leaves the search from the component's start vertex in ws.order.
    pseudo_peripheral_vertex(g, s, ws);
    for (index_t v : ws.order) {
      visited[static_cast<std::size_t>(v)] = true;
      order.push_back(v);
    }
  }
  return order;
}

Permutation cuthill_mckee_ordering(const CsrMatrix& a) {
  require(a.is_square(), "cuthill_mckee_ordering: matrix must be square");
  BfsWorkspace ws;
  return cuthill_mckee_ordering(Graph::from_matrix(a), ws);
}

Permutation rcm_ordering(const CsrMatrix& a) {
  Permutation order = cuthill_mckee_ordering(a);
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace ordo
