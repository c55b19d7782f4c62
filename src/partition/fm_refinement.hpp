// Fiduccia–Mattheyses (FM) boundary refinement for bisections.
//
// One refinement core serves both partitioners; only the gain rule differs.
// The graph model scores a move by the edge-cut (gain of moving v = weight
// of v's edges crossing the cut - weight of its internal edges; GP and ND),
// the hypergraph model by the cut-net metric (HP). Each pass repeatedly
// moves the highest-gain movable vertex to the other side (respecting the
// balance constraint), locks it, and finally rolls back to the best prefix
// of moves seen during the pass. Passes continue until no improvement is
// found or the pass limit is reached.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/hypergraph.hpp"

namespace ordo {

/// Balance constraint for a bisection: part 0's weight must stay within
/// [min_weight0, max_weight0].
struct BisectionBalance {
  std::int64_t min_weight0 = 0;
  std::int64_t max_weight0 = 0;
};

/// The window for putting `target_fraction` of `total_weight` in part 0,
/// give or take `tolerance` of that share.
BisectionBalance bisection_balance(std::int64_t total_weight,
                                   double target_fraction, double tolerance);

/// Refines `part` (0/1 per vertex) in place to lower the edge-cut. Returns
/// the cut improvement (old cut - new cut, always >= 0).
std::int64_t fm_refine_bisection(const Graph& g, std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes);

/// Refines `part` (0/1 per vertex) in place to lower the weighted cut-net
/// count. Returns the improvement (always >= 0).
std::int64_t fm_refine_bisection(const Hypergraph& h,
                                 std::vector<index_t>& part,
                                 const BisectionBalance& balance,
                                 int max_passes);

/// Gain of moving vertex v to the opposite side under partition `part`.
std::int64_t fm_move_gain(const Graph& g, const std::vector<index_t>& part,
                          index_t v);

}  // namespace ordo
