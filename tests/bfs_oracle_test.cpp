// Order-equivalence oracle for the workspace BFS engine.
//
// The degree-ordered BFS, the George–Liu pseudo-peripheral search and the
// Cuthill–McKee component loop below are the ones the orderings ran before
// they shared a caller-owned BfsWorkspace: every search allocated and
// filled an n-sized level array, so a graph with many components cost
// O(n × components). They are kept here verbatim as the reference, with
// King's ordering written over them. RCM, windowed RCM, King and the
// pseudo-peripheral picks must return the same vertices in the same order
// on every input: every corpus generator family over several seeds,
// graphs made mostly of isolated vertices, and the large multi-component
// stand-ins. A workspace reused across graphs of any size must come back
// with its level array all -1 after every call.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <random>
#include <string>

#include "corpus/corpus.hpp"
#include "corpus/generators.hpp"
#include "graph/graph.hpp"
#include "reorder/reordering.hpp"
#include "sparse/coo.hpp"

namespace ordo {
namespace {

// ---- Reference search (n-sized levels per call) ---------------------------

BfsResult reference_bfs(const Graph& g, index_t start) {
  BfsResult result;
  result.levels.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  result.order.reserve(static_cast<std::size_t>(g.num_vertices()));

  std::vector<index_t> frontier{start};
  result.levels[static_cast<std::size_t>(start)] = 0;
  index_t level = 0;
  std::vector<index_t> next;
  while (!frontier.empty()) {
    // Cuthill–McKee: within a level, visit vertices in ascending degree
    // order (ties broken by vertex id for determinism).
    std::sort(frontier.begin(), frontier.end(), [&](index_t a, index_t b) {
      const index_t da = g.degree(a), db = g.degree(b);
      return da != db ? da < db : a < b;
    });
    next.clear();
    for (index_t v : frontier) {
      result.order.push_back(v);
      for (index_t u : g.neighbors(v)) {
        if (result.levels[static_cast<std::size_t>(u)] < 0) {
          result.levels[static_cast<std::size_t>(u)] = level + 1;
          next.push_back(u);
        }
      }
    }
    result.eccentricity = level;
    frontier.swap(next);
    ++level;
  }
  return result;
}

index_t reference_pseudo_peripheral(const Graph& g, index_t seed) {
  index_t current = seed;
  BfsResult bfs = reference_bfs(g, current);
  index_t eccentricity = bfs.eccentricity;
  // Iterate: pick a minimum-degree vertex from the deepest level; stop once
  // the eccentricity no longer increases (George & Liu 1979).
  for (int iteration = 0; iteration < 16; ++iteration) {
    index_t best = -1;
    for (index_t v : bfs.order) {
      if (bfs.levels[static_cast<std::size_t>(v)] == eccentricity &&
          (best < 0 || g.degree(v) < g.degree(best))) {
        best = v;
      }
    }
    if (best < 0) break;
    BfsResult trial = reference_bfs(g, best);
    if (trial.eccentricity <= eccentricity) break;
    current = best;
    eccentricity = trial.eccentricity;
    bfs = std::move(trial);
  }
  return current;
}

// The CM component loop: components in ascending order of their lowest
// vertex, each started from its pseudo-peripheral vertex.
Permutation reference_cm(const Graph& g) {
  const index_t n = g.num_vertices();
  Permutation order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  for (index_t s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    const index_t start = reference_pseudo_peripheral(g, s);
    const BfsResult bfs = reference_bfs(g, start);
    for (index_t v : bfs.order) {
      visited[static_cast<std::size_t>(v)] = true;
      order.push_back(v);
    }
  }
  return order;
}

Permutation reference_rcm(const CsrMatrix& a) {
  Permutation order = reference_cm(Graph::from_matrix(a));
  std::reverse(order.begin(), order.end());
  return order;
}

// Windowed RCM: CM over the subgraph each row window induces (the window's
// rows of the symmetrised pattern, edges leaving the window dropped),
// reversed within the window.
Permutation reference_windowed_rcm(const CsrMatrix& a, index_t window_rows) {
  const Graph g = Graph::from_matrix(a);
  const index_t n = g.num_vertices();
  Permutation order;
  for (index_t w0 = 0; w0 < n; w0 += window_rows) {
    const index_t w1 = std::min<index_t>(n, w0 + window_rows);
    std::vector<offset_t> ptr{0};
    std::vector<index_t> adj;
    for (index_t v = w0; v < w1; ++v) {
      for (index_t u : g.neighbors(v)) {
        if (u >= w0 && u < w1) adj.push_back(u - w0);
      }
      ptr.push_back(static_cast<offset_t>(adj.size()));
    }
    Permutation window = reference_cm(Graph(w1 - w0, ptr, adj));
    std::reverse(window.begin(), window.end());
    for (index_t v : window) order.push_back(w0 + v);
  }
  return order;
}

Permutation reference_king(const CsrMatrix& a) {
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
  for (index_t component_seed = 0; component_seed < n; ++component_seed) {
    if (numbered[static_cast<std::size_t>(component_seed)]) continue;
    index_t next = reference_pseudo_peripheral(g, component_seed);
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
  return order;
}

// ---- Inputs ---------------------------------------------------------------

struct Input {
  std::string name;
  CsrMatrix matrix;
};

// A few edges among many isolated vertices: nearly every component is a
// single vertex, the case where an n-sized reset per search hurt most.
CsrMatrix mostly_isolated(index_t n, index_t edges, std::uint64_t seed) {
  CooMatrix coo(n, n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> vertex(0, n - 1);
  for (index_t v = 0; v < n; ++v) coo.add(v, v, 1.0);
  for (index_t e = 0; e < edges; ++e) {
    const index_t u = vertex(rng), v = vertex(rng);
    if (u != v) coo.add_symmetric(u, v, -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

// One small instance of every structural family the corpus draws from, over
// three seeds (generators without a seed vary their shape with it), plus
// the isolated-vertex cases.
std::vector<Input> small_inputs() {
  const std::vector<
      std::pair<const char*, std::function<CsrMatrix(std::uint64_t)>>>
      families = {
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
          {"geometric",
           [](std::uint64_t s) { return gen_geometric(160, 1.4, s); }},
          {"circuit",
           [](std::uint64_t s) { return gen_circuit(160, 2, 3.0, s); }},
          {"cfd", [](std::uint64_t s) { return gen_cfd(4, 4, 4, 2, s); }},
          {"road", [](std::uint64_t s) { return gen_road_network(400, s); }},
          {"rmat",
           [](std::uint64_t s) {
             return gen_rmat(8, 2, 0.57, 0.19, 0.19, s);
           }},
          {"community",
           [](std::uint64_t s) { return gen_community(160, 20, 0.3, s); }},
          {"debruijn",
           [](std::uint64_t s) { return gen_debruijn_chain(180, 0.02, s); }},
          {"kkt", [](std::uint64_t s) { return gen_kkt(4, 4, 4, s); }},
          {"banded",
           [](std::uint64_t s) { return gen_banded(160, 8, 0.5, s); }},
          {"blockdiag",
           [](std::uint64_t s) { return gen_block_diagonal(12, 12, 0.3, s); }},
          {"random",
           [](std::uint64_t s) { return gen_random_uniform(160, 1.5, s); }},
          {"mycielskian",
           [](std::uint64_t s) {
             return gen_mycielskian(7 + static_cast<int>(s % 2));
           }},
          {"isolated",
           [](std::uint64_t s) {
             return mostly_isolated(300, 10 + static_cast<index_t>(s % 30), s);
           }},
      };
  std::vector<Input> inputs;
  for (const auto& [name, make] : families) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      inputs.push_back(
          {std::string(name) + " seed " + std::to_string(seed), make(seed)});
    }
  }
  inputs.push_back({"diagonal", mostly_isolated(64, 0, 3)});
  inputs.push_back({"empty", CsrMatrix::from_coo(CooMatrix(0, 0))});
  return inputs;
}

void expect_same_orderings(const CsrMatrix& a, const std::string& context) {
  EXPECT_EQ(rcm_ordering(a), reference_rcm(a)) << context;
  EXPECT_EQ(king_ordering(a), reference_king(a)) << context;
  const index_t n = a.num_rows();
  for (const index_t window : {index_t{1}, index_t{37}, n / 3 + 1, n + 1}) {
    if (window <= 0) continue;
    EXPECT_EQ(windowed_rcm_ordering(a, window),
              reference_windowed_rcm(a, window))
        << context << " window " << window;
  }
}

void expect_level_clear(const BfsWorkspace& ws, const std::string& context) {
  EXPECT_TRUE(std::all_of(ws.level.begin(), ws.level.end(),
                          [](index_t l) { return l == -1; }))
      << context;
}

// ---- Tests ----------------------------------------------------------------

TEST(BfsOracle, OrderingsMatchReferenceOnEveryFamily) {
  for (const Input& input : small_inputs()) {
    expect_same_orderings(input.matrix, input.name);
  }
}

TEST(BfsOracle, OrderingsMatchReferenceOnLargeStandIns) {
  for (const char* name : {"europe_osm", "kron_g500-logn21", "HV15R"}) {
    expect_same_orderings(generate_named(name, 0.2).matrix, name);
  }
}

TEST(BfsOracle, SearchesAndPicksMatchReference) {
  for (const Input& input : small_inputs()) {
    const Graph g = Graph::from_matrix(input.matrix);
    const index_t n = g.num_vertices();
    BfsWorkspace ws;
    for (index_t v = 0; v < n; v += std::max<index_t>(1, n / 9)) {
      const std::string context = input.name + " from " + std::to_string(v);
      const BfsResult expected = reference_bfs(g, v);
      const BfsResult got = bfs_degree_ordered(g, v);
      EXPECT_EQ(got.order, expected.order) << context;
      EXPECT_EQ(got.levels, expected.levels) << context;
      EXPECT_EQ(got.eccentricity, expected.eccentricity) << context;

      bfs_degree_ordered(g, v, ws);
      EXPECT_EQ(ws.order, expected.order) << context;
      EXPECT_EQ(ws.eccentricity(), expected.eccentricity) << context;
      expect_level_clear(ws, context);

      const index_t pick = reference_pseudo_peripheral(g, v);
      EXPECT_EQ(pseudo_peripheral_vertex(g, v), pick) << context;
      EXPECT_EQ(pseudo_peripheral_vertex(g, v, ws), pick) << context;
      EXPECT_EQ(ws.order, reference_bfs(g, pick).order) << context;
      expect_level_clear(ws, context);
    }
  }
}

TEST(BfsOracle, ReusedWorkspaceStaysClearAcrossGrowingAndShrinkingGraphs) {
  // Sizes rise and fall, so later searches run on graphs smaller than the
  // level array a larger one left behind, and vice versa.
  const std::array<index_t, 6> sides = {6, 20, 3, 31, 1, 12};
  BfsWorkspace ws;
  for (const index_t side : sides) {
    const Graph g = Graph::from_matrix(gen_mesh2d(side, side + 2, 5));
    const std::string context = "side " + std::to_string(side);
    const index_t last = g.num_vertices() - 1;
    bfs_degree_ordered(g, last, ws);
    EXPECT_EQ(ws.order, reference_bfs(g, last).order) << context;
    EXPECT_GE(ws.level.size(), static_cast<std::size_t>(g.num_vertices()));
    expect_level_clear(ws, context);
    EXPECT_EQ(pseudo_peripheral_vertex(g, last / 2, ws),
              reference_pseudo_peripheral(g, last / 2))
        << context;
    expect_level_clear(ws, context);
  }
}

}  // namespace
}  // namespace ordo
