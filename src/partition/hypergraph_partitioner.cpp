#include "partition/hypergraph_partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <random>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/multilevel.hpp"

namespace ordo {
namespace {

// Nets larger than this are skipped when scoring match candidates; huge nets
// connect nearly everything and add cost without guiding the matching.
constexpr std::size_t kMaxNetSizeForMatching = 64;

std::vector<index_t> heavy_connectivity_matching(const Hypergraph& h,
                                                 std::uint64_t seed) {
  const index_t n = h.num_vertices();
  std::vector<index_t> match(static_cast<std::size_t>(n), -1);
  std::vector<index_t> visit_order(static_cast<std::size_t>(n));
  std::iota(visit_order.begin(), visit_order.end(), index_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(visit_order.begin(), visit_order.end(), rng);

  // Scratch scoring array, reset per vertex via a touched list.
  std::vector<index_t> score(static_cast<std::size_t>(n), 0);
  std::vector<index_t> touched;
  for (index_t v : visit_order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    touched.clear();
    for (index_t e : h.vertex_nets(v)) {
      const auto pins = h.net_pins(e);
      if (pins.size() > kMaxNetSizeForMatching) continue;
      for (index_t u : pins) {
        if (u == v || match[static_cast<std::size_t>(u)] >= 0) continue;
        if (score[static_cast<std::size_t>(u)] == 0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += h.net_weight(e);
      }
    }
    index_t best = -1, best_score = 0;
    for (index_t u : touched) {
      if (score[static_cast<std::size_t>(u)] > best_score ||
          (score[static_cast<std::size_t>(u)] == best_score && best >= 0 &&
           u < best)) {
        best = u;
        best_score = score[static_cast<std::size_t>(u)];
      }
      score[static_cast<std::size_t>(u)] = 0;
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
  return match;
}

}  // namespace

HypergraphCoarseLevel coarsen_hypergraph_once(const Hypergraph& h,
                                              std::uint64_t seed) {
  const std::vector<index_t> match = heavy_connectivity_matching(h, seed);
  const index_t n = h.num_vertices();

  HypergraphCoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  index_t coarse_count = 0;
  std::vector<index_t> coarse_weights;
  for (index_t v = 0; v < n; ++v) {
    const index_t partner = match[static_cast<std::size_t>(v)];
    if (partner >= v) {
      level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
      index_t weight = h.vertex_weight(v);
      if (partner != v) {
        level.fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
        weight += h.vertex_weight(partner);
      }
      coarse_weights.push_back(weight);
      ++coarse_count;
    }
  }

  // Remap nets, deduplicating pins; drop nets with fewer than two pins.
  std::vector<offset_t> net_ptr{0};
  std::vector<index_t> pins;
  std::vector<index_t> net_weights;
  std::vector<index_t> seen_at(static_cast<std::size_t>(coarse_count), -1);
  for (index_t e = 0; e < h.num_nets(); ++e) {
    const std::size_t begin = pins.size();
    for (index_t pin : h.net_pins(e)) {
      const index_t c = level.fine_to_coarse[static_cast<std::size_t>(pin)];
      if (seen_at[static_cast<std::size_t>(c)] != e) {
        seen_at[static_cast<std::size_t>(c)] = e;
        pins.push_back(c);
      }
    }
    if (pins.size() - begin < 2) {
      pins.resize(begin);  // degenerate net: cannot be cut, drop it
    } else {
      net_ptr.push_back(static_cast<offset_t>(pins.size()));
      net_weights.push_back(h.net_weight(e));
    }
  }
  level.hypergraph =
      Hypergraph(coarse_count, std::move(net_ptr), std::move(pins),
                 std::move(coarse_weights), std::move(net_weights));
  return level;
}

namespace multilevel {

// Grows part 0 by hypergraph BFS from a seeded random start vertex until it
// reaches the target weight, restarting from an unassigned vertex when the
// frontier empties.
std::vector<index_t> initial_bisection(const Hypergraph& h,
                                       double target_fraction,
                                       std::uint64_t seed) {
  const index_t n = h.num_vertices();
  const std::int64_t target_weight = static_cast<std::int64_t>(
      static_cast<double>(h.total_vertex_weight()) * target_fraction + 0.5);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, n - 1);
  const index_t start = dist(rng);
  std::vector<index_t> part(static_cast<std::size_t>(n), 1);
  std::vector<bool> queued(static_cast<std::size_t>(n), false);
  std::queue<index_t> frontier;
  frontier.push(start);
  queued[static_cast<std::size_t>(start)] = true;
  std::int64_t weight0 = 0;
  index_t scan = 0;
  while (weight0 < target_weight) {
    if (frontier.empty()) {
      while (scan < n && part[static_cast<std::size_t>(scan)] == 0) ++scan;
      if (scan >= n) break;
      if (!queued[static_cast<std::size_t>(scan)]) {
        frontier.push(scan);
        queued[static_cast<std::size_t>(scan)] = true;
      } else {
        ++scan;
        continue;
      }
    }
    const index_t v = frontier.front();
    frontier.pop();
    if (part[static_cast<std::size_t>(v)] == 0) continue;
    part[static_cast<std::size_t>(v)] = 0;
    weight0 += h.vertex_weight(v);
    for (index_t e : h.vertex_nets(v)) {
      const auto pins = h.net_pins(e);
      if (pins.size() > kMaxNetSizeForMatching * 4) continue;
      for (index_t u : pins) {
        if (part[static_cast<std::size_t>(u)] == 1 &&
            !queued[static_cast<std::size_t>(u)]) {
          queued[static_cast<std::size_t>(u)] = true;
          frontier.push(u);
        }
      }
    }
  }
  return part;
}

Induced<Hypergraph> induced_substructure(const Hypergraph& h,
                                         const std::vector<index_t>& part,
                                         index_t which) {
  Induced<Hypergraph> sub;
  std::vector<index_t> to_sub(static_cast<std::size_t>(h.num_vertices()), -1);
  std::vector<index_t> vweights;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == which) {
      to_sub[static_cast<std::size_t>(v)] =
          static_cast<index_t>(sub.to_parent.size());
      sub.to_parent.push_back(v);
      vweights.push_back(h.vertex_weight(v));
    }
  }
  std::vector<offset_t> net_ptr{0};
  std::vector<index_t> pins;
  std::vector<index_t> net_weights;
  for (index_t e = 0; e < h.num_nets(); ++e) {
    const std::size_t begin = pins.size();
    for (index_t pin : h.net_pins(e)) {
      const index_t sv = to_sub[static_cast<std::size_t>(pin)];
      if (sv >= 0) pins.push_back(sv);
    }
    if (pins.size() - begin < 2) {
      pins.resize(begin);
    } else {
      net_ptr.push_back(static_cast<offset_t>(pins.size()));
      net_weights.push_back(h.net_weight(e));
    }
  }
  sub.structure = Hypergraph(static_cast<index_t>(sub.to_parent.size()),
                             std::move(net_ptr), std::move(pins),
                             std::move(vweights), std::move(net_weights));
  return sub;
}

PartitionResult finish_bisection(const Hypergraph& h,
                                 std::vector<index_t> part,
                                 const PartitionOptions&) {
  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = 2;
  result.cut = compute_cut_nets(h, result.part);
  result.imbalance = compute_partition_imbalance(h, result.part, 2);
  ORDO_CHECK(
      validate_hypergraph_partition(h, result, 2, "bisect_hypergraph"));
  return result;
}

}  // namespace multilevel

PartitionResult bisect_hypergraph(const Hypergraph& h, double target_fraction,
                                  const PartitionOptions& options) {
  require(h.num_vertices() > 0, "bisect_hypergraph: empty hypergraph");
  return multilevel::multilevel_bisect(h, target_fraction, options);
}

PartitionResult partition_hypergraph(const Hypergraph& h,
                                     const PartitionOptions& options) {
  require(options.num_parts >= 1,
          "partition_hypergraph: num_parts must be >= 1");
  ORDO_SCOPE("partition/hypergraph_kway");
  PartitionResult result;
  result.part = multilevel::kway_partition(h, options, nullptr,
                                           "partition_hypergraph");
  result.num_parts = options.num_parts;
  result.cut = compute_cut_nets(h, result.part);
  result.imbalance =
      compute_partition_imbalance(h, result.part, options.num_parts);
  ORDO_CHECK(validate_hypergraph_partition(h, result, options.num_parts,
                                           "partition_hypergraph"));
  return result;
}

}  // namespace ordo
