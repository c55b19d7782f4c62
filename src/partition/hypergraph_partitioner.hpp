// Multilevel k-way hypergraph partitioner (PaToH stand-in).
//
// Same driver as the graph partitioner (partition/multilevel.hpp), with
// hypergraph steps: heavy-connectivity matching for coarsening, BFS growing
// for the initial bisection, and FM refinement under the **cut-net** metric (a net counts
// toward the objective when its pins land in more than one part), which is
// the PaToH objective the paper's HP ordering uses.
#pragma once

#include "partition/hypergraph.hpp"
#include "partition/partitioning.hpp"

namespace ordo {

/// One level of hypergraph coarsening: heavy-connectivity matching followed
/// by contraction. Nets reduced to fewer than two pins are dropped.
struct HypergraphCoarseLevel {
  Hypergraph hypergraph;
  std::vector<index_t> fine_to_coarse;
};
HypergraphCoarseLevel coarsen_hypergraph_once(const Hypergraph& h,
                                              std::uint64_t seed);

/// Bisects `h`, targeting `target_fraction` of the vertex weight in part 0,
/// minimizing cut nets.
PartitionResult bisect_hypergraph(const Hypergraph& h, double target_fraction,
                                  const PartitionOptions& options);

/// Partitions `h` into options.num_parts parts via recursive bisection.
PartitionResult partition_hypergraph(const Hypergraph& h,
                                     const PartitionOptions& options);

}  // namespace ordo
