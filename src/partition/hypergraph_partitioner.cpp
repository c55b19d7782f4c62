#include "partition/hypergraph_partitioner.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <random>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "partition/fm_refinement.hpp"

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

namespace {

// Grows part 0 by hypergraph BFS from `start` until it reaches the target
// weight, restarting from an unassigned vertex when the frontier empties.
std::vector<index_t> grow_bisection(const Hypergraph& h, index_t start,
                                    std::int64_t target_weight) {
  const index_t n = h.num_vertices();
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

struct HgSubgraph {
  Hypergraph hypergraph;
  std::vector<index_t> to_parent;
};

HgSubgraph induced_sub_hypergraph(const Hypergraph& h,
                                  const std::vector<index_t>& part,
                                  index_t which) {
  HgSubgraph sub;
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
  sub.hypergraph = Hypergraph(static_cast<index_t>(sub.to_parent.size()),
                              std::move(net_ptr), std::move(pins),
                              std::move(vweights), std::move(net_weights));
  return sub;
}

void recursive_bisect_hg(const Hypergraph& h, const PartitionOptions& options,
                         index_t num_parts, index_t first_part,
                         const std::vector<index_t>& to_parent,
                         std::vector<index_t>& out_part, std::uint64_t seed) {
  if (num_parts <= 1 || h.num_vertices() == 0) {
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      out_part[static_cast<std::size_t>(
          to_parent[static_cast<std::size_t>(v)])] = first_part;
    }
    return;
  }
  poll_cancelled(options.cancel, "partition_hypergraph");
  const index_t left_parts = num_parts / 2;
  const index_t right_parts = num_parts - left_parts;
  const double target_fraction =
      static_cast<double>(left_parts) / static_cast<double>(num_parts);

  PartitionOptions bisect_options = options;
  bisect_options.seed = seed;
  const PartitionResult bisection =
      bisect_hypergraph(h, target_fraction, bisect_options);

  const HgSubgraph left = induced_sub_hypergraph(h, bisection.part, 0);
  const HgSubgraph right = induced_sub_hypergraph(h, bisection.part, 1);
  std::vector<index_t> left_map(left.to_parent.size());
  for (std::size_t i = 0; i < left.to_parent.size(); ++i) {
    left_map[i] = to_parent[static_cast<std::size_t>(left.to_parent[i])];
  }
  std::vector<index_t> right_map(right.to_parent.size());
  for (std::size_t i = 0; i < right.to_parent.size(); ++i) {
    right_map[i] = to_parent[static_cast<std::size_t>(right.to_parent[i])];
  }
  recursive_bisect_hg(left.hypergraph, options, left_parts, first_part,
                      left_map, out_part, seed * 6364136223846793005ULL + 1);
  recursive_bisect_hg(right.hypergraph, options, right_parts,
                      first_part + left_parts, right_map, out_part,
                      seed * 6364136223846793005ULL + 2);
}

}  // namespace

PartitionResult bisect_hypergraph(const Hypergraph& h, double target_fraction,
                                  const PartitionOptions& options) {
  require(h.num_vertices() > 0, "bisect_hypergraph: empty hypergraph");

  std::vector<HypergraphCoarseLevel> hierarchy;
  const Hypergraph* current = &h;
  std::uint64_t seed = options.seed;
  while (current->num_vertices() > options.coarsen_to) {
    HypergraphCoarseLevel level = coarsen_hypergraph_once(*current, seed++);
    if (level.hypergraph.num_vertices() >
        static_cast<index_t>(0.9 * current->num_vertices())) {
      break;
    }
    hierarchy.push_back(std::move(level));
    current = &hierarchy.back().hypergraph;
  }
  ORDO_COUNTER_ADD("partition.hp.bisections", 1);
  ORDO_COUNTER_ADD("partition.hp.coarsen_levels",
                   static_cast<std::int64_t>(hierarchy.size()));

  const std::int64_t target_weight = static_cast<std::int64_t>(
      static_cast<double>(current->total_vertex_weight()) * target_fraction +
      0.5);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, current->num_vertices() - 1);
  std::vector<index_t> part =
      grow_bisection(*current, dist(rng), target_weight);
  fm_refine_bisection(*current, part,
                      bisection_balance(current->total_vertex_weight(),
                                        target_fraction,
                                        options.imbalance_tolerance),
                      options.refine_passes);

  for (std::size_t level = hierarchy.size(); level > 0; --level) {
    const Hypergraph& fine = level >= 2 ? hierarchy[level - 2].hypergraph : h;
    const std::vector<index_t>& fine_to_coarse =
        hierarchy[level - 1].fine_to_coarse;
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

  PartitionResult result;
  result.part = std::move(part);
  result.num_parts = 2;
  result.cut = compute_cut_nets(h, result.part);
  std::int64_t weight0 = 0;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (result.part[static_cast<std::size_t>(v)] == 0) {
      weight0 += h.vertex_weight(v);
    }
  }
  const double average = static_cast<double>(h.total_vertex_weight()) / 2.0;
  result.imbalance =
      average > 0
          ? std::max(static_cast<double>(weight0),
                     static_cast<double>(h.total_vertex_weight() - weight0)) /
                average
          : 1.0;
  ORDO_CHECK(
      validate_hypergraph_partition(h, result, 2, "bisect_hypergraph"));
  return result;
}

PartitionResult partition_hypergraph(const Hypergraph& h,
                                     const PartitionOptions& options) {
  require(options.num_parts >= 1,
          "partition_hypergraph: num_parts must be >= 1");
  ORDO_SCOPE("partition/hypergraph_kway");
  PartitionResult result;
  result.part.assign(static_cast<std::size_t>(h.num_vertices()), 0);
  result.num_parts = options.num_parts;
  if (options.num_parts > 1 && h.num_vertices() > 0) {
    std::vector<index_t> to_parent(static_cast<std::size_t>(h.num_vertices()));
    std::iota(to_parent.begin(), to_parent.end(), index_t{0});
    recursive_bisect_hg(h, options, options.num_parts, 0, to_parent,
                        result.part, options.seed);
  }
  result.cut = compute_cut_nets(h, result.part);

  std::vector<std::int64_t> weights(
      static_cast<std::size_t>(options.num_parts), 0);
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    weights[static_cast<std::size_t>(
        result.part[static_cast<std::size_t>(v)])] += h.vertex_weight(v);
  }
  const double average =
      static_cast<double>(h.total_vertex_weight()) / options.num_parts;
  result.imbalance =
      average > 0 ? static_cast<double>(*std::max_element(weights.begin(),
                                                          weights.end())) /
                        average
                  : 1.0;
  ORDO_CHECK(validate_hypergraph_partition(h, result, options.num_parts,
                                           "partition_hypergraph"));
  return result;
}

}  // namespace ordo
