#include "partition/initial_partition.hpp"

#include <algorithm>
#include <limits>
#include <random>

#include "partition/partitioning.hpp"

namespace ordo {
namespace {

// Grows part 0 from `start` until it holds ~target_weight. Gain of absorbing
// v = (weight of edges from v into part 0) - (weight of edges to the rest):
// absorbing high-gain vertices keeps the boundary small.
std::vector<index_t> grow_from(const Graph& g, index_t start,
                               std::int64_t target_weight) {
  const index_t n = g.num_vertices();
  std::vector<index_t> part(static_cast<std::size_t>(n), 1);
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n), 0);
  std::vector<bool> in_frontier(static_cast<std::size_t>(n), false);
  std::vector<index_t> frontier;

  std::int64_t weight0 = 0;
  index_t next = start;
  while (next >= 0 && weight0 < target_weight) {
    const index_t v = next;
    part[static_cast<std::size_t>(v)] = 0;
    weight0 += g.vertex_weight(v);
    in_frontier[static_cast<std::size_t>(v)] = false;

    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (part[static_cast<std::size_t>(u)] == 0) continue;
      const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
      gain[static_cast<std::size_t>(u)] += 2 * w;
      if (!in_frontier[static_cast<std::size_t>(u)]) {
        in_frontier[static_cast<std::size_t>(u)] = true;
        frontier.push_back(u);
      }
    }

    // Pick the best frontier vertex; compact out absorbed entries lazily.
    next = -1;
    std::int64_t best_gain = std::numeric_limits<std::int64_t>::min();
    std::size_t out = 0;
    for (std::size_t k = 0; k < frontier.size(); ++k) {
      const index_t u = frontier[k];
      if (part[static_cast<std::size_t>(u)] == 0) continue;
      frontier[out++] = u;
      if (gain[static_cast<std::size_t>(u)] > best_gain) {
        best_gain = gain[static_cast<std::size_t>(u)];
        next = u;
      }
    }
    frontier.resize(out);

    // Disconnected remainder: restart growth from any unassigned vertex.
    if (next < 0 && weight0 < target_weight) {
      for (index_t u = 0; u < n; ++u) {
        if (part[static_cast<std::size_t>(u)] == 1) {
          next = u;
          break;
        }
      }
    }
  }
  return part;
}

}  // namespace

std::vector<index_t> greedy_graph_growing_bisection(const Graph& g,
                                                    double target_fraction,
                                                    std::uint64_t seed,
                                                    int num_trials) {
  const index_t n = g.num_vertices();
  require(n > 0, "greedy_graph_growing_bisection: empty graph");
  require(target_fraction > 0.0 && target_fraction < 1.0,
          "greedy_graph_growing_bisection: target fraction must be in (0,1)");
  const std::int64_t target_weight = static_cast<std::int64_t>(
      static_cast<double>(g.total_vertex_weight()) * target_fraction + 0.5);

  std::mt19937_64 rng(seed);
  std::vector<index_t> best;
  std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
  BfsWorkspace ws;
  for (int trial = 0; trial < std::max(1, num_trials); ++trial) {
    std::uniform_int_distribution<index_t> dist(0, n - 1);
    const index_t start = pseudo_peripheral_vertex(g, dist(rng), ws);
    std::vector<index_t> part = grow_from(g, start, target_weight);
    const std::int64_t cut = compute_edge_cut(g, part);
    if (cut < best_cut) {
      best_cut = cut;
      best = std::move(part);
    }
  }
  return best;
}

}  // namespace ordo
