#include "partition/graph_partitioner.hpp"

#include <limits>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/gain_heap.hpp"
#include "partition/multilevel.hpp"

namespace ordo {
namespace {

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

namespace multilevel {

Induced<Graph> induced_substructure(const Graph& g,
                                    const std::vector<index_t>& part,
                                    index_t which) {
  Induced<Graph> sub;
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
  sub.structure = Graph(n, std::move(adj_ptr), std::move(adj),
                        std::move(vweights), std::move(eweights));
  return sub;
}

PartitionResult finish_bisection(
    const Graph& g, std::vector<index_t> part,
    [[maybe_unused]] const PartitionOptions& options) {
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

}  // namespace multilevel

PartitionResult bisect_graph(const Graph& g, double target_fraction,
                             const PartitionOptions& options) {
  require(g.num_vertices() > 0, "bisect_graph: empty graph");
  return multilevel::multilevel_bisect(g, target_fraction, options);
}

PartitionResult partition_graph(const Graph& g,
                                const PartitionOptions& options) {
  require(options.num_parts >= 1, "partition_graph: num_parts must be >= 1");
  ORDO_SCOPE("partition/graph_kway");
  if (options.memo) options.memo->bind_to(g, options);
  PartitionResult result;
  result.part = multilevel::kway_partition(g, options, options.memo,
                                           "partition_graph");
  result.num_parts = options.num_parts;
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
