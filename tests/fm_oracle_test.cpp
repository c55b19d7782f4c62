// Order-equivalence oracle for the FM refinement core.
//
// The two FM pass loops below are the refinement the partitioners ran
// before they shared one core: a single lazy std::priority_queue of
// (gain, vertex) pairs per pass, stale entries skipped on pop, and every
// balance-rejected entry deferred and re-pushed after the next move. They
// are kept here verbatim as the reference. The core in
// src/partition/fm_refinement.cpp must return the same part vector and the
// same improvement on every input: graphs and hypergraphs, row- and
// nnz-weighted, fine and coarsened (weighted) levels, several target
// fractions and tolerances, from random and out-of-window starts, over
// every corpus generator family.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <queue>
#include <random>
#include <string>

#include "corpus/generators.hpp"
#include "graph/graph.hpp"
#include "partition/coarsening.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/hypergraph.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "partition/partitioning.hpp"

namespace ordo {
namespace {

using HgBalance = BisectionBalance;

// ---- Reference passes (lazy heap) ----------------------------------------

// One FM pass. Returns the improvement achieved (>= 0); `part` is updated to
// the best prefix of the move sequence.
//
// Only *boundary* vertices (those with a neighbour across the cut) are
// seeded into the gain heap — interior vertices can only become worth moving
// after a neighbour moves, at which point the update loop inserts them. This
// keeps a pass proportional to the cut region rather than the whole graph.
std::int64_t fm_pass(const Graph& g, std::vector<index_t>& part,
                     const BisectionBalance& balance) {
  const index_t n = g.num_vertices();
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n));
  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  std::vector<bool> queued(static_cast<std::size_t>(n), false);
  // Max-heap of (gain, vertex) with lazy invalidation: stale entries are
  // skipped when their recorded gain no longer matches.
  std::priority_queue<std::pair<std::int64_t, index_t>> heap;
  for (index_t v = 0; v < n; ++v) {
    bool boundary = false;
    for (index_t u : g.neighbors(v)) {
      if (part[static_cast<std::size_t>(u)] !=
          part[static_cast<std::size_t>(v)]) {
        boundary = true;
        break;
      }
    }
    if (boundary) {
      gain[static_cast<std::size_t>(v)] = fm_move_gain(g, part, v);
      heap.emplace(gain[static_cast<std::size_t>(v)], v);
      queued[static_cast<std::size_t>(v)] = true;
    }
  }

  std::int64_t weight0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += g.vertex_weight(v);
  }

  std::vector<index_t> moves;
  moves.reserve(static_cast<std::size_t>(n));
  std::int64_t cumulative = 0, best_cumulative = 0;
  std::size_t best_prefix = 0;
  // Deferred entries whose move would violate balance right now; they are
  // reconsidered after the next successful move shifts the weights.
  std::vector<std::pair<std::int64_t, index_t>> deferred;
  // Classic FM moves every vertex once per pass; in practice all improvement
  // comes early, so a pass aborts after a long run of non-improving moves.
  const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;

  while (!heap.empty()) {
    if (moves.size() - best_prefix > stall_limit) break;
    const auto [g_top, v] = heap.top();
    heap.pop();
    if (locked[static_cast<std::size_t>(v)] ||
        g_top != gain[static_cast<std::size_t>(v)]) {
      continue;  // stale entry
    }
    const index_t from = part[static_cast<std::size_t>(v)];
    const std::int64_t new_weight0 =
        from == 0 ? weight0 - g.vertex_weight(v) : weight0 + g.vertex_weight(v);
    if (new_weight0 < balance.min_weight0 ||
        new_weight0 > balance.max_weight0) {
      deferred.emplace_back(g_top, v);
      continue;
    }

    // Commit the move and lock the vertex.
    part[static_cast<std::size_t>(v)] = 1 - from;
    weight0 = new_weight0;
    locked[static_cast<std::size_t>(v)] = true;
    cumulative += g_top;
    moves.push_back(v);
    if (cumulative > best_cumulative) {
      best_cumulative = cumulative;
      best_prefix = moves.size();
    }

    // Update neighbour gains; vertices newly touching the boundary get a
    // fresh gain computation and enter the heap.
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (locked[static_cast<std::size_t>(u)]) continue;
      if (!queued[static_cast<std::size_t>(u)]) {
        gain[static_cast<std::size_t>(u)] = fm_move_gain(g, part, u);
        queued[static_cast<std::size_t>(u)] = true;
      } else {
        const index_t w = g.edge_weight(base + static_cast<offset_t>(k));
        // v moved to u's side iff their parts are now equal.
        if (part[static_cast<std::size_t>(u)] ==
            part[static_cast<std::size_t>(v)]) {
          gain[static_cast<std::size_t>(u)] -= 2 * w;
        } else {
          gain[static_cast<std::size_t>(u)] += 2 * w;
        }
      }
      heap.emplace(gain[static_cast<std::size_t>(u)], u);
    }
    // Balance shifted: blocked vertices may be movable now.
    for (const auto& entry : deferred) heap.push(entry);
    deferred.clear();
  }

  // Roll back every move after the best prefix.
  for (std::size_t k = moves.size(); k > best_prefix; --k) {
    const index_t v = moves[k - 1];
    part[static_cast<std::size_t>(v)] = 1 - part[static_cast<std::size_t>(v)];
  }
  return best_cumulative;
}

std::int64_t oracle_refine(const Graph& g, std::vector<index_t>& part,
                           const BisectionBalance& balance, int max_passes) {
  std::int64_t total = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    const std::int64_t improvement = fm_pass(g, part, balance);
    total += improvement;
    if (improvement <= 0) break;
  }
  return total;
}

// One FM pass under the cut-net metric. pins_in[e][p] tracks how many pins
// of net e lie in part p. Only boundary vertices (pins of cut nets) are
// seeded into the gain heap, and gains are maintained with exact delta
// updates on each move — a net's pins are only revisited when its pin counts
// cross a critical value (0, 1 or 2 on either side), which is the standard
// FM trick that keeps a pass near-linear in the number of pins.
std::int64_t hypergraph_fm_pass(const Hypergraph& h,
                                std::vector<index_t>& part,
                                const HgBalance& balance) {
  const index_t n = h.num_vertices();
  const index_t num_nets = h.num_nets();
  std::vector<std::array<index_t, 2>> pins_in(
      static_cast<std::size_t>(num_nets), {0, 0});
  for (index_t e = 0; e < num_nets; ++e) {
    for (index_t pin : h.net_pins(e)) {
      pins_in[static_cast<std::size_t>(e)]
             [static_cast<std::size_t>(part[static_cast<std::size_t>(pin)])]++;
    }
  }

  // Cut-net gain of moving v from side s to 1-s:
  //   +w(e) for nets where v is the last pin on side s (net becomes uncut),
  //   -w(e) for nets fully on side s with >1 pins (net becomes cut).
  auto move_gain = [&](index_t v) {
    const index_t s = part[static_cast<std::size_t>(v)];
    std::int64_t gain = 0;
    for (index_t e : h.vertex_nets(v)) {
      const auto& counts = pins_in[static_cast<std::size_t>(e)];
      const index_t same = counts[static_cast<std::size_t>(s)];
      const index_t other = counts[static_cast<std::size_t>(1 - s)];
      if (same == 1 && other >= 1) gain += h.net_weight(e);
      if (other == 0 && same >= 2) gain -= h.net_weight(e);
    }
    return gain;
  };

  std::vector<std::int64_t> gain(static_cast<std::size_t>(n));
  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  std::vector<bool> queued(static_cast<std::size_t>(n), false);
  std::priority_queue<std::pair<std::int64_t, index_t>> heap;
  auto enqueue = [&](index_t v) {
    if (queued[static_cast<std::size_t>(v)] ||
        locked[static_cast<std::size_t>(v)]) {
      return;
    }
    gain[static_cast<std::size_t>(v)] = move_gain(v);
    queued[static_cast<std::size_t>(v)] = true;
    heap.emplace(gain[static_cast<std::size_t>(v)], v);
  };
  for (index_t e = 0; e < num_nets; ++e) {
    const auto& counts = pins_in[static_cast<std::size_t>(e)];
    if (counts[0] > 0 && counts[1] > 0) {
      for (index_t pin : h.net_pins(e)) enqueue(pin);
    }
  }

  std::int64_t weight0 = 0;
  for (index_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += h.vertex_weight(v);
  }

  std::vector<index_t> moves;
  std::int64_t cumulative = 0, best_cumulative = 0;
  std::size_t best_prefix = 0;
  std::vector<std::pair<std::int64_t, index_t>> deferred;
  // Abort the pass after a long run of non-improving moves (see the graph
  // FM for rationale).
  const std::size_t stall_limit = 64 + static_cast<std::size_t>(n) / 32;
  while (!heap.empty()) {
    if (moves.size() - best_prefix > stall_limit) break;
    const auto [g_top, v] = heap.top();
    heap.pop();
    if (locked[static_cast<std::size_t>(v)] ||
        g_top != gain[static_cast<std::size_t>(v)]) {
      continue;  // stale entry
    }
    const index_t from = part[static_cast<std::size_t>(v)];
    const std::int64_t new_weight0 =
        from == 0 ? weight0 - h.vertex_weight(v) : weight0 + h.vertex_weight(v);
    if (new_weight0 < balance.min_weight0 ||
        new_weight0 > balance.max_weight0) {
      deferred.emplace_back(g_top, v);
      continue;
    }

    part[static_cast<std::size_t>(v)] = 1 - from;
    weight0 = new_weight0;
    locked[static_cast<std::size_t>(v)] = true;
    cumulative += g_top;
    moves.push_back(v);
    if (cumulative > best_cumulative) {
      best_cumulative = cumulative;
      best_prefix = moves.size();
    }

    // Vertices that newly reach the boundary are enqueued only after every
    // net of v has had its counts updated, so their full gain is computed
    // against the post-move state.
    std::vector<index_t> newly_boundary;
    for (index_t e : h.vertex_nets(v)) {
      auto& counts = pins_in[static_cast<std::size_t>(e)];
      // Pin counts *before* the move; v still counts toward `from`.
      const index_t f = counts[static_cast<std::size_t>(from)];
      const index_t t = counts[static_cast<std::size_t>(1 - from)];
      const index_t w = h.net_weight(e);
      // Delta rules for the cut-net gain (derived from the gain definition
      // above): a pin's gain only changes when the net's counts cross a
      // critical value.
      if (f == 1 || f == 2 || t == 0 || t == 1) {
        for (index_t u : h.net_pins(e)) {
          if (u == v || locked[static_cast<std::size_t>(u)]) continue;
          if (!queued[static_cast<std::size_t>(u)]) {
            newly_boundary.push_back(u);
            continue;
          }
          std::int64_t delta = 0;
          if (part[static_cast<std::size_t>(u)] == from) {
            if (f == 2) delta += w;  // u becomes the last `from` pin
            if (t == 0) delta += w;  // e is no longer uncut-on-`from`
          } else {
            if (f == 1) delta -= w;  // e becomes uncut-on-`to`
            if (t == 1) delta -= w;  // u is no longer the last `to` pin
          }
          if (delta != 0) {
            gain[static_cast<std::size_t>(u)] += delta;
            heap.emplace(gain[static_cast<std::size_t>(u)], u);
          }
        }
      }
      counts[static_cast<std::size_t>(from)]--;
      counts[static_cast<std::size_t>(1 - from)]++;
    }
    for (index_t u : newly_boundary) enqueue(u);
    for (const auto& entry : deferred) heap.push(entry);
    deferred.clear();
  }

  for (std::size_t k = moves.size(); k > best_prefix; --k) {
    const index_t v = moves[k - 1];
    part[static_cast<std::size_t>(v)] = 1 - part[static_cast<std::size_t>(v)];
  }
  return best_cumulative;
}

std::int64_t hypergraph_fm_refine(const Hypergraph& h,
                                  std::vector<index_t>& part,
                                  const HgBalance& balance, int max_passes) {
  std::int64_t total = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    const std::int64_t improvement = hypergraph_fm_pass(h, part, balance);
    total += improvement;
    if (improvement <= 0) break;
  }
  return total;
}

std::int64_t oracle_refine(const Hypergraph& h, std::vector<index_t>& part,
                           const BisectionBalance& balance, int max_passes) {
  return hypergraph_fm_refine(h, part, balance, max_passes);
}

// ---- Inputs ---------------------------------------------------------------

struct Family {
  const char* name;
  std::function<CsrMatrix(std::uint64_t)> make;
};

// One small instance of every structural family the corpus draws from, plus
// the named-matrix-only Mycielskian family. Generators without a seed vary
// their shape with it instead.
std::vector<Family> families() {
  return {
      {"mesh2d",
       [](std::uint64_t s) {
         return gen_mesh2d(10 + static_cast<index_t>(s % 5), 12,
                           s % 2 == 0 ? 5 : 9);
       }},
      {"mesh3d",
       [](std::uint64_t s) {
         return gen_mesh3d(5 + static_cast<index_t>(s % 3), 6, 5, 7);
       }},
      {"fem",
       [](std::uint64_t s) {
         return gen_fem_blocked(7 + static_cast<index_t>(s % 3), 7,
                                2 + static_cast<int>(s % 3));
       }},
      {"geometric", [](std::uint64_t s) { return gen_geometric(160, 1.4, s); }},
      {"circuit", [](std::uint64_t s) { return gen_circuit(160, 2, 3.0, s); }},
      {"cfd", [](std::uint64_t s) { return gen_cfd(4, 4, 4, 2, s); }},
      {"road", [](std::uint64_t s) { return gen_road_network(180, s); }},
      {"rmat",
       [](std::uint64_t s) { return gen_rmat(7, 8, 0.57, 0.19, 0.19, s); }},
      {"community",
       [](std::uint64_t s) { return gen_community(160, 20, 0.3, s); }},
      {"debruijn",
       [](std::uint64_t s) { return gen_debruijn_chain(180, 0.02, s); }},
      {"kkt", [](std::uint64_t s) { return gen_kkt(4, 4, 4, s); }},
      {"banded", [](std::uint64_t s) { return gen_banded(160, 8, 0.5, s); }},
      {"blockdiag",
       [](std::uint64_t s) { return gen_block_diagonal(12, 12, 0.3, s); }},
      {"random",
       [](std::uint64_t s) { return gen_random_uniform(160, 6.0, s); }},
      {"mycielskian",
       [](std::uint64_t s) {
         return gen_mycielskian(7 + static_cast<int>(s % 2));
       }},
  };
}

constexpr std::array<std::uint64_t, 3> kSeeds = {1, 7, 42};
constexpr std::array<double, 3> kFractions = {0.5, 0.375, 1.0 / 3.0};
constexpr std::array<double, 3> kTolerances = {0.0, 0.05, 0.3};
constexpr int kPasses = 8;

std::vector<index_t> row_nnz_weights(const CsrMatrix& a) {
  std::vector<index_t> weights(static_cast<std::size_t>(a.num_rows()));
  for (index_t i = 0; i < a.num_rows(); ++i) {
    weights[static_cast<std::size_t>(i)] =
        std::max<index_t>(1, static_cast<index_t>(a.row_nonzeros(i)));
  }
  return weights;
}

Graph nnz_weighted(const Graph& g, std::vector<index_t> weights) {
  std::vector<offset_t> adj_ptr(g.adj_ptr().begin(), g.adj_ptr().end());
  std::vector<index_t> adj(g.adj().begin(), g.adj().end());
  return Graph(g.num_vertices(), std::move(adj_ptr), std::move(adj),
               std::move(weights), {});
}

Hypergraph nnz_weighted(const Hypergraph& h, std::vector<index_t> weights) {
  std::vector<offset_t> net_ptr{0};
  std::vector<index_t> pins;
  for (index_t e = 0; e < h.num_nets(); ++e) {
    for (index_t pin : h.net_pins(e)) pins.push_back(pin);
    net_ptr.push_back(static_cast<offset_t>(pins.size()));
  }
  return Hypergraph(h.num_vertices(), std::move(net_ptr), std::move(pins),
                    std::move(weights), {});
}

// Two starting points per level: a random split, which leaves FM a lot to
// do, and a lopsided prefix split that starts outside the balance window,
// so the core must park rejected vertices and skip closed sides.
std::vector<std::vector<index_t>> starts(index_t n, std::uint64_t seed) {
  std::vector<index_t> random(static_cast<std::size_t>(n));
  std::mt19937_64 rng(seed);
  for (index_t& p : random) p = static_cast<index_t>(rng() & 1u);
  std::vector<index_t> lopsided(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    lopsided[static_cast<std::size_t>(v)] = v < (n * 4) / 5 ? 0 : 1;
  }
  return {random, lopsided};
}

// Runs the core and the oracle from the same start under every window and
// returns how many cases were compared.
template <typename G>
int expect_core_matches_oracle(const G& graph, std::uint64_t seed,
                               const std::string& label) {
  int cases = 0;
  for (double fraction : kFractions) {
    for (double tolerance : kTolerances) {
      const BisectionBalance balance = bisection_balance(
          graph.total_vertex_weight(), fraction, tolerance);
      for (const std::vector<index_t>& start :
           starts(graph.num_vertices(), seed)) {
        std::vector<index_t> expected = start;
        std::vector<index_t> actual = start;
        const std::int64_t expected_gain =
            oracle_refine(graph, expected, balance, kPasses);
        const std::int64_t actual_gain =
            fm_refine_bisection(graph, actual, balance, kPasses);
        EXPECT_EQ(actual_gain, expected_gain)
            << label << " fraction " << fraction << " tolerance " << tolerance;
        EXPECT_EQ(actual, expected)
            << label << " fraction " << fraction << " tolerance " << tolerance;
        ++cases;
      }
    }
  }
  return cases;
}

// The fine graph and two coarsened (vertex- and edge-weighted) levels.
template <typename G, typename Coarsen>
int expect_levels_match(G graph, Coarsen coarsen, std::uint64_t seed,
                        const std::string& label) {
  int cases = 0;
  for (int level = 0; level < 3; ++level) {
    cases += expect_core_matches_oracle(
        graph, seed + static_cast<std::uint64_t>(level),
        label + " level " + std::to_string(level));
    if (graph.num_vertices() < 8) break;
    graph = coarsen(graph, seed + static_cast<std::uint64_t>(level));
  }
  return cases;
}

TEST(FmOracle, GraphCoreMatchesLazyHeapPasses) {
  const auto coarsen = [](const Graph& g, std::uint64_t seed) {
    return coarsen_once(g, seed).graph;
  };
  int cases = 0;
  for (const Family& family : families()) {
    for (std::uint64_t seed : kSeeds) {
      const CsrMatrix a = family.make(seed);
      const Graph rows = Graph::from_matrix(a);
      const std::string label =
          std::string(family.name) + " seed " + std::to_string(seed);
      cases += expect_levels_match(rows, coarsen, seed, label + " rows");
      cases += expect_levels_match(nnz_weighted(rows, row_nnz_weights(a)),
                                   coarsen, seed, label + " nnz");
    }
  }
  EXPECT_GE(cases, 15 * 3 * 2 * 2 * 9);
}

TEST(FmOracle, HypergraphCoreMatchesLazyHeapPasses) {
  const auto coarsen = [](const Hypergraph& h, std::uint64_t seed) {
    return coarsen_hypergraph_once(h, seed).hypergraph;
  };
  int cases = 0;
  for (const Family& family : families()) {
    for (std::uint64_t seed : kSeeds) {
      const CsrMatrix a = family.make(seed);
      const Hypergraph rows = Hypergraph::column_net(a);
      const std::string label =
          std::string(family.name) + " seed " + std::to_string(seed);
      cases += expect_levels_match(rows, coarsen, seed, label + " rows");
      cases += expect_levels_match(nnz_weighted(rows, row_nnz_weights(a)),
                                   coarsen, seed, label + " nnz");
    }
  }
  EXPECT_GE(cases, 15 * 3 * 2 * 2 * 9);
}

}  // namespace
}  // namespace ordo
