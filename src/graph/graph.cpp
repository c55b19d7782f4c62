#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "check/invariants.hpp"
#include "sparse/csr_ops.hpp"

namespace ordo {

Graph::Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
             std::vector<index_t> adj)
    : num_vertices_(num_vertices),
      adj_ptr_(std::move(adj_ptr)),
      adj_(std::move(adj)) {
  validate();
}

Graph::Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
             std::vector<index_t> adj, std::vector<index_t> vertex_weights,
             std::vector<index_t> edge_weights)
    : num_vertices_(num_vertices),
      adj_ptr_(std::move(adj_ptr)),
      adj_(std::move(adj)),
      vertex_weights_(std::move(vertex_weights)),
      edge_weights_(std::move(edge_weights)) {
  validate();
  require(vertex_weights_.empty() ||
              vertex_weights_.size() == static_cast<std::size_t>(num_vertices_),
          "Graph: vertex weight count mismatch");
  require(edge_weights_.empty() || edge_weights_.size() == adj_.size(),
          "Graph: edge weight count mismatch");
}

void Graph::validate() const {
  // Structural contract only; the O(m log m) mirror-symmetry check runs at
  // the Graph::from_matrix seam under ORDO_CHECK (construction happens per
  // coarsening level, where re-checking symmetry every time would dominate).
  check::validate_adjacency_raw(num_vertices_, adj_ptr_, adj_,
                                /*check_symmetry=*/false, "Graph");
}

Graph Graph::from_matrix(const CsrMatrix& a) {
  require(a.is_square(), "Graph::from_matrix: matrix must be square");
  const CsrMatrix s = is_pattern_symmetric(a) ? a : symmetrize(a);
  const index_t n = s.num_rows();
  std::vector<offset_t> adj_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> adj;
  adj.reserve(static_cast<std::size_t>(s.num_nonzeros()));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j : s.row_cols(i)) {
      if (j != i) adj.push_back(j);
    }
    adj_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(adj.size());
  }
  Graph g(n, std::move(adj_ptr), std::move(adj));
  // Every symmetric ordering assumes a mirror-complete adjacency; check it
  // once where the graph enters the system.
  ORDO_CHECK(validate_adjacency_raw(g.num_vertices(), g.adj_ptr(), g.adj(),
                                    /*check_symmetry=*/true,
                                    "Graph::from_matrix"));
  return g;
}

std::int64_t Graph::total_vertex_weight() const {
  if (vertex_weights_.empty()) return num_vertices_;
  return std::accumulate(vertex_weights_.begin(), vertex_weights_.end(),
                         std::int64_t{0});
}

std::vector<index_t> bfs_levels(const Graph& g, index_t start) {
  std::vector<index_t> levels(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<index_t> queue;
  levels[static_cast<std::size_t>(start)] = 0;
  queue.push(start);
  while (!queue.empty()) {
    const index_t v = queue.front();
    queue.pop();
    for (index_t u : g.neighbors(v)) {
      if (levels[static_cast<std::size_t>(u)] < 0) {
        levels[static_cast<std::size_t>(u)] =
            levels[static_cast<std::size_t>(v)] + 1;
        queue.push(u);
      }
    }
  }
  return levels;
}

void bfs_degree_ordered(const Graph& g, index_t start, BfsWorkspace& ws) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  if (ws.level.size() < n) {
    ws.level.resize(n, -1);
    ws.order.reserve(n);
  }
  ws.order.assign(1, start);
  ws.level_begin.clear();
  ws.level[static_cast<std::size_t>(start)] = 0;
  // `order` doubles as the frontier queue: level L occupies
  // [level_begin[L], level_begin[L + 1]) and level L + 1 is appended behind
  // it while L is scanned.
  for (std::size_t begin = 0; begin < ws.order.size();) {
    const std::size_t end = ws.order.size();
    const index_t next_level = static_cast<index_t>(ws.level_begin.size()) + 1;
    ws.level_begin.push_back(begin);
    // Cuthill–McKee: within a level, visit vertices in ascending degree
    // order (ties broken by vertex id for determinism). Sorting packed
    // (degree, id) keys reads each degree once, not twice per comparison.
    ws.level_keys.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const index_t v = ws.order[k];
      ws.level_keys.push_back(static_cast<std::uint64_t>(g.degree(v)) << 32 |
                              static_cast<std::uint32_t>(v));
    }
    std::sort(ws.level_keys.begin(), ws.level_keys.end());
    for (std::size_t k = begin; k < end; ++k) {
      ws.order[k] = static_cast<index_t>(ws.level_keys[k - begin] & 0xffffffffu);
    }
    for (std::size_t k = begin; k < end; ++k) {
      for (index_t u : g.neighbors(ws.order[k])) {
        if (ws.level[static_cast<std::size_t>(u)] < 0) {
          ws.level[static_cast<std::size_t>(u)] = next_level;
          ws.order.push_back(u);
        }
      }
    }
    begin = end;
  }
  ws.level_begin.push_back(ws.order.size());
  for (index_t v : ws.order) ws.level[static_cast<std::size_t>(v)] = -1;
}

BfsResult bfs_degree_ordered(const Graph& g, index_t start) {
  BfsWorkspace ws;
  bfs_degree_ordered(g, start, ws);
  BfsResult result;
  result.levels.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t l = 0; l + 1 < ws.level_begin.size(); ++l) {
    for (std::size_t k = ws.level_begin[l]; k < ws.level_begin[l + 1]; ++k) {
      result.levels[static_cast<std::size_t>(ws.order[k])] =
          static_cast<index_t>(l);
    }
  }
  result.eccentricity = ws.eccentricity();
  result.order = std::move(ws.order);
  return result;
}

Components connected_components(const Graph& g) {
  Components result;
  result.component.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<index_t> stack;
  for (index_t s = 0; s < g.num_vertices(); ++s) {
    if (result.component[static_cast<std::size_t>(s)] >= 0) continue;
    stack.push_back(s);
    result.component[static_cast<std::size_t>(s)] = result.count;
    while (!stack.empty()) {
      const index_t v = stack.back();
      stack.pop_back();
      for (index_t u : g.neighbors(v)) {
        if (result.component[static_cast<std::size_t>(u)] < 0) {
          result.component[static_cast<std::size_t>(u)] = result.count;
          stack.push_back(u);
        }
      }
    }
    result.count++;
  }
  return result;
}

index_t pseudo_peripheral_vertex(const Graph& g, index_t seed,
                                 BfsWorkspace& ws) {
  require(seed >= 0 && seed < g.num_vertices(),
          "pseudo_peripheral_vertex: seed out of range");
  index_t current = seed;
  bfs_degree_ordered(g, current, ws);
  index_t eccentricity = ws.eccentricity();
  // Iterate: pick a minimum-degree vertex from the deepest level (the first
  // in visit order on ties); stop once the eccentricity no longer increases
  // (George & Liu 1979).
  for (int iteration = 0; iteration < 16; ++iteration) {
    index_t best = -1;
    for (index_t v : ws.last_level()) {
      if (best < 0 || g.degree(v) < g.degree(best)) best = v;
    }
    ws.order.swap(ws.spare_order);
    ws.level_begin.swap(ws.spare_level_begin);
    bfs_degree_ordered(g, best, ws);
    if (ws.eccentricity() <= eccentricity) {
      ws.order.swap(ws.spare_order);
      ws.level_begin.swap(ws.spare_level_begin);
      break;
    }
    current = best;
    eccentricity = ws.eccentricity();
  }
  return current;
}

index_t pseudo_peripheral_vertex(const Graph& g, index_t seed) {
  BfsWorkspace ws;
  return pseudo_peripheral_vertex(g, seed, ws);
}

}  // namespace ordo
