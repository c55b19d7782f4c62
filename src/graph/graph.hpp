// Undirected adjacency graph of a (structurally symmetric) sparse matrix.
//
// Vertices correspond to rows/columns; an edge {u, v} exists when A(u, v) or
// A(v, u) is structurally nonzero and u != v. The graph is stored in CSR
// adjacency form and optionally carries vertex and edge weights, which the
// multilevel partitioner uses during coarsening.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace ordo {

class Graph {
 public:
  Graph() = default;

  /// Builds an unweighted graph from adjacency arrays. Self-loops must have
  /// been removed and each edge must appear in both endpoint lists.
  Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
        std::vector<index_t> adj);

  /// Weighted constructor used by the coarsening phase of the partitioner.
  Graph(index_t num_vertices, std::vector<offset_t> adj_ptr,
        std::vector<index_t> adj, std::vector<index_t> vertex_weights,
        std::vector<index_t> edge_weights);

  /// Builds the undirected graph of a square matrix. If the pattern is not
  /// symmetric it is symmetrized first; self-loops (diagonal entries) are
  /// dropped.
  static Graph from_matrix(const CsrMatrix& a);

  index_t num_vertices() const { return num_vertices_; }
  offset_t num_adjacency_entries() const {
    return adj_ptr_.empty() ? 0 : adj_ptr_.back();
  }
  /// Number of undirected edges (each stored twice in the adjacency arrays).
  offset_t num_edges() const { return num_adjacency_entries() / 2; }

  std::span<const offset_t> adj_ptr() const { return adj_ptr_; }
  std::span<const index_t> adj() const { return adj_; }

  /// Neighbours of vertex v.
  std::span<const index_t> neighbors(index_t v) const {
    return std::span<const index_t>(adj_).subspan(
        static_cast<std::size_t>(adj_ptr_[v]),
        static_cast<std::size_t>(adj_ptr_[v + 1] - adj_ptr_[v]));
  }

  index_t degree(index_t v) const {
    return static_cast<index_t>(adj_ptr_[v + 1] - adj_ptr_[v]);
  }

  bool has_weights() const { return !vertex_weights_.empty(); }

  index_t vertex_weight(index_t v) const {
    return vertex_weights_.empty() ? 1 : vertex_weights_[v];
  }
  index_t edge_weight(offset_t e) const {
    return edge_weights_.empty() ? 1 : edge_weights_[static_cast<std::size_t>(e)];
  }

  /// Total vertex weight of the graph.
  std::int64_t total_vertex_weight() const;

 private:
  void validate() const;

  index_t num_vertices_ = 0;
  std::vector<offset_t> adj_ptr_{0};
  std::vector<index_t> adj_;
  std::vector<index_t> vertex_weights_;  // empty => all ones
  std::vector<index_t> edge_weights_;    // empty => all ones
};

/// Breadth-first search from `start`. Returns the level (distance) of every
/// vertex reachable from `start`; unreachable vertices get level -1.
std::vector<index_t> bfs_levels(const Graph& g, index_t start);

/// Result of a BFS that also records the visit order.
struct BfsResult {
  std::vector<index_t> order;   // visited vertices, in visit order
  std::vector<index_t> levels;  // level per vertex, -1 when unreachable
  index_t eccentricity = 0;     // index of the last (deepest) level
};

/// Caller-owned scratch for the degree-ordered BFS. `level` is all -1
/// between calls and each BFS resets only the vertices it reached, so a
/// search costs O(component + level sorts) rather than O(n): a caller that
/// walks every component of a graph with one workspace does linear work in
/// total. It grows on demand and serves graphs of any size in turn.
struct BfsWorkspace {
  std::vector<index_t> level;  // per vertex; all -1 between calls
  // The last search: visited vertices in visit order, and where each level
  // starts in `order` (one entry per level plus a final order.size()).
  std::vector<index_t> order;
  std::vector<std::size_t> level_begin;
  std::vector<std::uint64_t> level_keys;  // one level's sort keys
  // Where pseudo_peripheral_vertex keeps the best search while it tries
  // the next candidate.
  std::vector<index_t> spare_order;
  std::vector<std::size_t> spare_level_begin;

  /// Index of the deepest level of the last search.
  index_t eccentricity() const {
    return static_cast<index_t>(level_begin.size()) - 2;
  }
  /// The deepest level's vertices, in visit order.
  std::span<const index_t> last_level() const {
    return std::span<const index_t>(order).subspan(
        level_begin[level_begin.size() - 2]);
  }
};

/// BFS that visits each level's vertices in ascending-degree order (ties by
/// vertex id), as the Cuthill–McKee algorithm requires. The result is left
/// in `ws.order` / `ws.level_begin`.
void bfs_degree_ordered(const Graph& g, index_t start, BfsWorkspace& ws);
/// The same search with a workspace of its own, levels filled for all n.
BfsResult bfs_degree_ordered(const Graph& g, index_t start);

/// Connected components: returns a component id per vertex and the number of
/// components.
struct Components {
  std::vector<index_t> component;
  index_t count = 0;
};
Components connected_components(const Graph& g);

/// George–Liu pseudo-peripheral vertex heuristic: starting from `seed`,
/// repeatedly moves to a minimum-degree vertex of the deepest BFS level until
/// the eccentricity stops growing. Used to pick RCM starting vertices.
/// Leaves the search from the returned vertex in `ws`, so a caller that
/// needs it does not run it again.
index_t pseudo_peripheral_vertex(const Graph& g, index_t seed,
                                 BfsWorkspace& ws);
index_t pseudo_peripheral_vertex(const Graph& g, index_t seed);

}  // namespace ordo
