// Extension orderings from the paper's related-work section.
//
//  * King's ordering (1970): a Cuthill–McKee variant that, instead of
//    degree-sorting whole BFS levels, always numbers next the frontier
//    vertex that adds the fewest new vertices to the frontier — directly
//    minimising wavefront growth (a profile-reduction heuristic).
//  * Similarity ordering: a greedy nearest-neighbour tour over rows in
//    column-overlap space, the simplest member of the TSP-based
//    locality-improving family of Pinar & Heath (SC '99) and Heras et al.
//    that Section 5 surveys: consecutive rows share as many column
//    accesses as possible, maximising x-vector reuse between rows.
#include <limits>
#include <queue>

#include "graph/graph.hpp"
#include "reorder/reordering.hpp"
#include "sparse/csr_ops.hpp"

namespace ordo {

Permutation king_ordering(const CsrMatrix& a) {
  require(a.is_square(), "king_ordering: matrix must be square");
  const Graph g = Graph::from_matrix(a);
  const index_t n = g.num_vertices();

  Permutation order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> numbered(static_cast<std::size_t>(n), false);
  std::vector<bool> in_frontier(static_cast<std::size_t>(n), false);
  // unnumbered_neighbors[v] drives the greedy choice.
  std::vector<index_t> unnumbered(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) unnumbered[static_cast<std::size_t>(v)] = g.degree(v);

  std::vector<index_t> frontier;
  BfsWorkspace ws;
  for (index_t component_seed = 0; component_seed < n; ++component_seed) {
    if (numbered[static_cast<std::size_t>(component_seed)]) continue;
    index_t next = pseudo_peripheral_vertex(g, component_seed, ws);
    while (next >= 0) {
      const index_t v = next;
      numbered[static_cast<std::size_t>(v)] = true;
      in_frontier[static_cast<std::size_t>(v)] = false;
      order.push_back(v);
      for (index_t u : g.neighbors(v)) {
        unnumbered[static_cast<std::size_t>(u)]--;
        if (!numbered[static_cast<std::size_t>(u)] &&
            !in_frontier[static_cast<std::size_t>(u)]) {
          in_frontier[static_cast<std::size_t>(u)] = true;
          frontier.push_back(u);
        }
      }
      // Greedy: number the frontier vertex adding the fewest new vertices.
      next = -1;
      index_t best_growth = std::numeric_limits<index_t>::max();
      std::size_t out = 0;
      for (std::size_t k = 0; k < frontier.size(); ++k) {
        const index_t u = frontier[k];
        if (numbered[static_cast<std::size_t>(u)]) continue;
        frontier[out++] = u;
        if (unnumbered[static_cast<std::size_t>(u)] < best_growth) {
          best_growth = unnumbered[static_cast<std::size_t>(u)];
          next = u;
        }
      }
      frontier.resize(out);
    }
  }
  require(order.size() == static_cast<std::size_t>(n),
          "king_ordering: incomplete ordering");
  return order;
}

Permutation similarity_ordering(const CsrMatrix& a, std::uint64_t seed) {
  require(a.is_square(), "similarity_ordering: matrix must be square");
  const index_t n = a.num_rows();
  if (n == 0) return {};
  const CsrMatrix at = transpose(a);

  // Columns incident to very many rows add cost without discriminating
  // between candidates; skip them when scoring.
  constexpr std::size_t kMaxColumnFanOut = 64;

  Permutation order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<index_t> score(static_cast<std::size_t>(n), 0);
  std::vector<index_t> touched;

  index_t current = static_cast<index_t>(seed % static_cast<std::uint64_t>(n));
  index_t scan = 0;
  for (index_t step = 0; step < n; ++step) {
    visited[static_cast<std::size_t>(current)] = true;
    order.push_back(current);

    // Score unvisited rows by the number of columns they share with the
    // current row (the nearest-neighbour move of the greedy TSP tour).
    touched.clear();
    for (index_t j : a.row_cols(current)) {
      const auto sharers = at.row_cols(j);
      if (sharers.size() > kMaxColumnFanOut) continue;
      for (index_t r : sharers) {
        if (visited[static_cast<std::size_t>(r)]) continue;
        if (score[static_cast<std::size_t>(r)] == 0) touched.push_back(r);
        score[static_cast<std::size_t>(r)]++;
      }
    }
    index_t best = -1, best_score = 0;
    for (index_t r : touched) {
      if (score[static_cast<std::size_t>(r)] > best_score) {
        best_score = score[static_cast<std::size_t>(r)];
        best = r;
      }
      score[static_cast<std::size_t>(r)] = 0;
    }
    if (best < 0) {
      // Tour stranded: restart from the next unvisited row.
      while (scan < n && visited[static_cast<std::size_t>(scan)]) ++scan;
      if (scan >= n) break;
      best = scan;
    }
    current = best;
  }
  require(order.size() == static_cast<std::size_t>(n),
          "similarity_ordering: incomplete ordering");
  return order;
}

}  // namespace ordo
