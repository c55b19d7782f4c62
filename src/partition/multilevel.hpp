// The one multilevel recursive-bisection driver behind the graph partitioner
// (METIS stand-in: GP, ND) and the hypergraph partitioner (PaToH stand-in:
// HP, SBD).
//
// multilevel_bisect coarsens until at most options.coarsen_to vertices are
// left or a level shrinks by less than 10% (seed + i for the i-th level),
// splits and FM-refines the coarsest level, then projects the sides back up
// and refines at every level. recursive_bisect splits every node at
// left_parts / num_parts (left_parts = num_parts / 2, so k need not be a
// power of two) and seeds its children with an LCG step of its own seed, so
// a node's bisection is a pure function of its path from the root — what
// lets a BisectionMemo serve it.
//
// The steps that differ per structure are the overloads on Graph and
// Hypergraph below, defined next to each structure's public entry points.
// Internal to src/partition: only graph_partitioner.cpp and
// hypergraph_partitioner.cpp include it, each instantiating the driver for
// its own structure, so the recursion's bisections stay calls within one
// translation unit.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "partition/bisection_memo.hpp"
#include "partition/coarsening.hpp"
#include "partition/fm_refinement.hpp"
#include "partition/hypergraph.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "partition/initial_partition.hpp"
#include "partition/partitioning.hpp"

namespace ordo::multilevel {

/// One coarsening step (matching + contraction): the coarse structure and
/// the map from fine to coarse vertex ids.
inline CoarseLevel coarsen_level(const Graph& g, std::uint64_t seed) {
  return coarsen_once(g, seed);
}
inline HypergraphCoarseLevel coarsen_level(const Hypergraph& h,
                                           std::uint64_t seed) {
  return coarsen_hypergraph_once(h, seed);
}

/// Part 0/1 per vertex, about `target_fraction` of the weight in part 0:
/// greedy graph growing for graphs, seeded BFS growing for hypergraphs.
inline std::vector<index_t> initial_bisection(const Graph& g,
                                              double target_fraction,
                                              std::uint64_t seed) {
  return greedy_graph_growing_bisection(g, target_fraction, seed);
}
std::vector<index_t> initial_bisection(const Hypergraph& h,
                                       double target_fraction,
                                       std::uint64_t seed);

/// Counts one bisection and its coarsening levels under partition.gp.* or
/// partition.hp.*.
inline void count_bisection(const Graph&,
                            [[maybe_unused]] std::size_t levels) {
  ORDO_COUNTER_ADD("partition.gp.bisections", 1);
  ORDO_COUNTER_ADD("partition.gp.coarsen_levels",
                   static_cast<std::int64_t>(levels));
}
inline void count_bisection(const Hypergraph&,
                            [[maybe_unused]] std::size_t levels) {
  ORDO_COUNTER_ADD("partition.hp.bisections", 1);
  ORDO_COUNTER_ADD("partition.hp.coarsen_levels",
                   static_cast<std::int64_t>(levels));
}

/// The bisection result for the refined sides of the full-size structure.
PartitionResult finish_bisection(const Graph& g, std::vector<index_t> part,
                                  const PartitionOptions& options);
PartitionResult finish_bisection(const Hypergraph& h,
                                 std::vector<index_t> part,
                                 const PartitionOptions& options);

/// The sub-structure induced by the vertices with part[v] == which, and the
/// id in the parent of each of its vertices.
template <typename Structure>
struct Induced {
  Structure structure;
  std::vector<index_t> to_parent;
};
Induced<Graph> induced_substructure(const Graph& g,
                                    const std::vector<index_t>& part,
                                    index_t which);
Induced<Hypergraph> induced_substructure(const Hypergraph& h,
                                         const std::vector<index_t>& part,
                                         index_t which);

/// Bisects `s` (at least one vertex), putting about `target_fraction` of
/// its vertex weight into part 0.
template <typename Structure>
PartitionResult multilevel_bisect(const Structure& s, double target_fraction,
                                  const PartitionOptions& options) {
  // levels[i] is the (i + 1)-th coarsening of s; to_coarse[i] maps the ids
  // of the level above it (s itself for i = 0) to its ids.
  std::vector<Structure> levels;
  std::vector<std::vector<index_t>> to_coarse;
  const Structure* current = &s;
  std::uint64_t seed = options.seed;
  while (current->num_vertices() > options.coarsen_to) {
    auto [coarser, fine_to_coarse] = coarsen_level(*current, seed++);
    if (coarser.num_vertices() >
        static_cast<index_t>(0.9 * current->num_vertices())) {
      break;
    }
    levels.push_back(std::move(coarser));
    to_coarse.push_back(std::move(fine_to_coarse));
    current = &levels.back();
  }
  count_bisection(s, levels.size());

  std::vector<index_t> part =
      initial_bisection(*current, target_fraction, seed);
  fm_refine_bisection(*current, part,
                      bisection_balance(current->total_vertex_weight(),
                                        target_fraction,
                                        options.imbalance_tolerance),
                      options.refine_passes);

  // Uncoarsening: project the sides to each finer level and refine.
  for (std::size_t level = levels.size(); level > 0; --level) {
    const Structure& fine = level >= 2 ? levels[level - 2] : s;
    const std::vector<index_t>& fine_to_coarse = to_coarse[level - 1];
    std::vector<index_t> fine_part(
        static_cast<std::size_t>(fine.num_vertices()));
    for (index_t v = 0; v < fine.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] = part[static_cast<std::size_t>(
          fine_to_coarse[static_cast<std::size_t>(v)])];
    }
    part = std::move(fine_part);
    fm_refine_bisection(fine, part,
                        bisection_balance(fine.total_vertex_weight(),
                                          target_fraction,
                                          options.imbalance_tolerance),
                        options.refine_passes);
  }
  return finish_bisection(s, std::move(part), options);
}

/// The state every node of one kway_partition recursion shares.
struct KwayRun {
  const PartitionOptions& options;
  BisectionMemo* memo;          ///< null: every bisection is computed
  const char* where;            ///< names the entry point in cancellations
  std::vector<index_t>& part;   ///< part id per root vertex (the output)
  BisectionMemo::Path path;     ///< root-to-node path of the current node
};

/// Assigns parts [first_part, first_part + num_parts) to the vertices of
/// `s`, whose root ids are `to_parent`.
template <typename Structure>
void recursive_bisect(const Structure& s, index_t num_parts,
                      index_t first_part,
                      const std::vector<index_t>& to_parent,
                      std::uint64_t seed, KwayRun& run) {
  if (num_parts <= 1 || s.num_vertices() == 0) {
    for (index_t root : to_parent) {
      run.part[static_cast<std::size_t>(root)] = first_part;
    }
    return;
  }
  poll_cancelled(run.options.cancel, run.where);
  const index_t left_parts = num_parts / 2;
  const index_t right_parts = num_parts - left_parts;
  const double target_fraction =
      static_cast<double>(left_parts) / static_cast<double>(num_parts);

  // Recalled from the memo when an earlier call on the same root already
  // split this node at this fraction, computed and recorded otherwise. Only
  // completed bisections are recorded, so a cancelled call leaves no partial
  // entry behind.
  std::vector<index_t> part;
  if (auto recalled = run.memo ? run.memo->find(run.path, target_fraction)
                               : std::nullopt) {
    part = std::move(*recalled);
  } else {
    PartitionOptions bisect_options = run.options;
    bisect_options.seed = seed;
    part = multilevel_bisect(s, target_fraction, bisect_options).part;
    if (run.memo) run.memo->insert(run.path, target_fraction, part);
  }
  Induced<Structure> left = induced_substructure(s, part, 0);
  Induced<Structure> right = induced_substructure(s, part, 1);
  // Translate the sub-to-parent maps one level further up.
  for (Induced<Structure>* side : {&left, &right}) {
    for (index_t& v : side->to_parent) {
      v = to_parent[static_cast<std::size_t>(v)];
    }
  }

  run.path.push_back({target_fraction, 0});
  recursive_bisect(left.structure, left_parts, first_part, left.to_parent,
                   seed * 6364136223846793005ULL + 1, run);
  run.path.back().side = 1;
  recursive_bisect(right.structure, right_parts, first_part + left_parts,
                   right.to_parent, seed * 6364136223846793005ULL + 2, run);
  run.path.pop_back();
}

/// Part id per vertex of an options.num_parts-way partition of `s`, by
/// recursive bisection from options.seed. `where` names the public entry
/// point in a cancellation.
template <typename Structure>
std::vector<index_t> kway_partition(const Structure& s,
                                    const PartitionOptions& options,
                                    BisectionMemo* memo, const char* where) {
  std::vector<index_t> part(static_cast<std::size_t>(s.num_vertices()), 0);
  if (options.num_parts > 1 && s.num_vertices() > 0) {
    std::vector<index_t> to_parent(static_cast<std::size_t>(s.num_vertices()));
    std::iota(to_parent.begin(), to_parent.end(), index_t{0});
    KwayRun run{options, memo, where, part, {}};
    recursive_bisect(s, options.num_parts, 0, to_parent, options.seed, run);
  }
  return part;
}

}  // namespace ordo::multilevel
