#include "partition/graph_partitioner.hpp"

#include <algorithm>
#include <limits>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/bisection_memo.hpp"
#include "partition/coarsening.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/gain_heap.hpp"
#include "partition/initial_partition.hpp"

namespace ordo {
namespace {

// Extracts the subgraph induced by the vertices with part[v] == which, along
// with the mapping from subgraph ids back to the parent's ids.
struct Subgraph {
  Graph graph;
  std::vector<index_t> to_parent;
};

Subgraph induced_subgraph(const Graph& g, const std::vector<index_t>& part,
                          index_t which) {
  Subgraph sub;
  std::vector<index_t> to_sub(static_cast<std::size_t>(g.num_vertices()), -1);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == which) {
      to_sub[static_cast<std::size_t>(v)] =
          static_cast<index_t>(sub.to_parent.size());
      sub.to_parent.push_back(v);
    }
  }
  const index_t n = static_cast<index_t>(sub.to_parent.size());
  std::vector<offset_t> adj_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> adj;
  std::vector<index_t> eweights;
  std::vector<index_t> vweights(static_cast<std::size_t>(n));
  for (index_t sv = 0; sv < n; ++sv) {
    const index_t v = sub.to_parent[static_cast<std::size_t>(sv)];
    vweights[static_cast<std::size_t>(sv)] = g.vertex_weight(v);
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t su = to_sub[static_cast<std::size_t>(neighbors[k])];
      if (su >= 0) {
        adj.push_back(su);
        eweights.push_back(g.edge_weight(base + static_cast<offset_t>(k)));
      }
    }
    adj_ptr[static_cast<std::size_t>(sv) + 1] =
        static_cast<offset_t>(adj.size());
  }
  sub.graph = Graph(n, std::move(adj_ptr), std::move(adj), std::move(vweights),
                    std::move(eweights));
  return sub;
}

// The bisection of the node at `path`: recalled from options.memo when an
// earlier partition_graph call on the same graph already split this node at
// this fraction, computed and recorded otherwise. Only completed bisections
// are recorded, so a cancelled call leaves no partial entry behind.
std::vector<index_t> node_bisection(const Graph& g, double target_fraction,
                                    std::uint64_t seed,
                                    const PartitionOptions& options,
                                    const BisectionMemo::Path& path) {
  if (options.memo) {
    if (auto part = options.memo->find(path, target_fraction)) {
      return std::move(*part);
    }
  }
  PartitionOptions bisect_options = options;
  bisect_options.seed = seed;
  std::vector<index_t> part =
      bisect_graph(g, target_fraction, bisect_options).part;
  if (options.memo) options.memo->insert(path, target_fraction, part);
  return part;
}

void recursive_bisect(const Graph& g, const PartitionOptions& options,
                      index_t num_parts, index_t first_part,
                      const std::vector<index_t>& to_parent,
                      std::vector<index_t>& out_part, std::uint64_t seed,
                      BisectionMemo::Path& path) {
  if (num_parts <= 1 || g.num_vertices() == 0) {
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      out_part[static_cast<std::size_t>(
          to_parent[static_cast<std::size_t>(v)])] = first_part;
    }
    return;
  }
  poll_cancelled(options.cancel, "partition_graph");
  const index_t left_parts = num_parts / 2;
  const index_t right_parts = num_parts - left_parts;
  const double target_fraction =
      static_cast<double>(left_parts) / static_cast<double>(num_parts);

  const std::vector<index_t> part =
      node_bisection(g, target_fraction, seed, options, path);
  const Subgraph left = induced_subgraph(g, part, 0);
  const Subgraph right = induced_subgraph(g, part, 1);

  // Translate the sub-to-parent maps one level further up.
  std::vector<index_t> left_map(left.to_parent.size());
  for (std::size_t i = 0; i < left.to_parent.size(); ++i) {
    left_map[i] = to_parent[static_cast<std::size_t>(left.to_parent[i])];
  }
  std::vector<index_t> right_map(right.to_parent.size());
  for (std::size_t i = 0; i < right.to_parent.size(); ++i) {
    right_map[i] = to_parent[static_cast<std::size_t>(right.to_parent[i])];
  }

  path.push_back({target_fraction, 0});
  recursive_bisect(left.graph, options, left_parts, first_part, left_map,
                   out_part, seed * 6364136223846793005ULL + 1, path);
  path.back().side = 1;
  recursive_bisect(right.graph, options, right_parts, first_part + left_parts,
                   right_map, out_part, seed * 6364136223846793005ULL + 2,
                   path);
  path.pop_back();
}

// Repairs a degenerate bisection (every vertex on one side). The FM balance
// window permits this on tiny graphs — floor(total * fraction * (1 - tol))
// reaches 0, so neither greedy growing nor refinement is forced to populate
// both sides — and a degenerate split makes the recursive callers (GP, ND)
// spin without progress. Moves the vertex whose weighted degree is smallest
// (the cheapest new cut), lowest id on ties, to the empty side.
void repair_degenerate_bisection(const Graph& g, std::vector<index_t>& part) {
  const index_t n = g.num_vertices();
  if (n < 2) return;
  index_t count0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) ++count0;
  }
  if (count0 != 0 && count0 != n) return;
  const index_t empty_side = count0 == 0 ? 0 : 1;
  index_t best = 0;
  std::int64_t best_degree = std::numeric_limits<std::int64_t>::max();
  for (index_t v = 0; v < n; ++v) {
    std::int64_t weighted_degree = 0;
    for (offset_t e = g.adj_ptr()[static_cast<std::size_t>(v)];
         e < g.adj_ptr()[static_cast<std::size_t>(v) + 1]; ++e) {
      weighted_degree += g.edge_weight(e);
    }
    if (weighted_degree < best_degree) {
      best_degree = weighted_degree;
      best = v;
    }
  }
  part[static_cast<std::size_t>(best)] = empty_side;
}

}  // namespace

PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options) {
  require(g.num_vertices() > 0, "bisect_graph: empty graph");

  // Coarsening phase. Stop when the graph is small enough or when matching
  // stops shrinking the graph (< 10% reduction), which happens on graphs
  // with many unmatchable vertices (e.g. stars).
  std::vector<CoarseLevel> hierarchy;
  const Graph* current = &g;
  std::uint64_t seed = options.seed;
  while (current->num_vertices() > options.coarsen_to) {
    CoarseLevel level = coarsen_once(*current, seed++);
    if (level.graph.num_vertices() >
        static_cast<index_t>(0.9 * current->num_vertices())) {
      break;
    }
    hierarchy.push_back(std::move(level));
    current = &hierarchy.back().graph;
  }
  ORDO_COUNTER_ADD("partition.gp.bisections", 1);
  ORDO_COUNTER_ADD("partition.gp.coarsen_levels",
                   static_cast<std::int64_t>(hierarchy.size()));

  // Initial bisection on the coarsest graph, refined in place.
  std::vector<index_t> part =
      greedy_graph_growing_bisection(*current, target_fraction, seed);
  fm_refine_bisection(*current, part,
                      bisection_balance(current->total_vertex_weight(),
                                        target_fraction,
                                        options.imbalance_tolerance),
                      options.refine_passes);

  // Uncoarsening: project the partition to each finer level and refine.
  for (std::size_t level = hierarchy.size(); level > 0; --level) {
    const Graph& fine = level >= 2 ? hierarchy[level - 2].graph : g;
    const std::vector<index_t>& fine_to_coarse =
        hierarchy[level - 1].fine_to_coarse;
    std::vector<index_t> fine_part(
        static_cast<std::size_t>(fine.num_vertices()));
    for (index_t v = 0; v < fine.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(
              fine_to_coarse[static_cast<std::size_t>(v)])];
    }
    part = std::move(fine_part);
    fm_refine_bisection(fine, part,
                        bisection_balance(fine.total_vertex_weight(),
                                          target_fraction,
                                          options.imbalance_tolerance),
                        options.refine_passes);
  }

  repair_degenerate_bisection(g, part);

  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = 2;
  result.cut = compute_edge_cut(g, result.part);
  result.imbalance = compute_partition_imbalance(g, result.part, 2);
  ORDO_CHECK(validate_partition(g, result, 2, "bisect_graph"));
  ORDO_CHECK(validate_bisection_balance(
      g, result, options.imbalance_tolerance, "bisect_graph"));
  return result;
}

PartitionResult partition_graph(const Graph& g,
                                const PartitionOptions& options) {
  require(options.num_parts >= 1, "partition_graph: num_parts must be >= 1");
  ORDO_SCOPE("partition/graph_kway");
  PartitionResult result;
  result.part.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  result.num_parts = options.num_parts;
  if (options.memo) options.memo->bind_to(g, options);
  if (options.num_parts > 1 && g.num_vertices() > 0) {
    std::vector<index_t> to_parent(static_cast<std::size_t>(g.num_vertices()));
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      to_parent[static_cast<std::size_t>(v)] = v;
    }
    BisectionMemo::Path path;
    recursive_bisect(g, options, options.num_parts, 0, to_parent, result.part,
                     options.seed, path);
  }
  result.cut = compute_edge_cut(g, result.part);
  result.imbalance =
      compute_partition_imbalance(g, result.part, options.num_parts);
  ORDO_CHECK(
      validate_partition(g, result, options.num_parts, "partition_graph"));
  return result;
}

std::vector<bool> vertex_separator_from_bisection(
    const Graph& g, const std::vector<index_t>& part) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "vertex_separator_from_bisection: partition size mismatch");
  const index_t n = g.num_vertices();
  std::vector<bool> in_separator(static_cast<std::size_t>(n), false);

  // Cut-degree per vertex: number of neighbours across the cut that are not
  // yet covered by a separator vertex.
  std::vector<index_t> cut_degree(static_cast<std::size_t>(n), 0);
  for (index_t v = 0; v < n; ++v) {
    for (index_t u : g.neighbors(v)) {
      if (part[static_cast<std::size_t>(u)] !=
          part[static_cast<std::size_t>(v)]) {
        cut_degree[static_cast<std::size_t>(v)]++;
      }
    }
  }

  // Greedy vertex cover of the cut edges: repeatedly add the vertex covering
  // the most uncovered cut edges, higher id first on ties. Degrees only
  // fall, and a vertex leaves the heap when its degree reaches zero.
  GainHeap<index_t> heap;
  heap.reset(n);
  for (index_t v = 0; v < n; ++v) {
    if (cut_degree[static_cast<std::size_t>(v)] > 0) {
      heap.push(v, cut_degree[static_cast<std::size_t>(v)]);
    }
  }
  while (!heap.empty()) {
    const index_t best = heap.top();
    heap.pop();
    in_separator[static_cast<std::size_t>(best)] = true;
    for (index_t u : g.neighbors(best)) {
      if (part[static_cast<std::size_t>(u)] !=
              part[static_cast<std::size_t>(best)] &&
          !in_separator[static_cast<std::size_t>(u)]) {
        const index_t degree = --cut_degree[static_cast<std::size_t>(u)];
        if (degree > 0) {
          heap.update(u, degree);
        } else if (heap.contains(u)) {
          heap.erase(u);
        }
      }
    }
    cut_degree[static_cast<std::size_t>(best)] = 0;
  }
  return in_separator;
}

}  // namespace ordo
