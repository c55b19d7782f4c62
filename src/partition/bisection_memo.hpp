// Shared recursive-bisection tree for k-way graph partitions of one graph.
//
// partition_graph splits every node of its recursion tree at
// left_parts/num_parts and derives each child's seed from its parent's seed
// and the side it took, whatever k is. A node's bisection is therefore a
// pure function of its path from the root: the target fraction and side of
// every ancestor, plus its own target fraction. The study partitions each
// matrix into 16, 32, 48, 64, 72 and 128 parts; the k = 16/32/64 trees lie
// inside the k = 128 tree and k = 48/72 share its top levels, so a memo of
// finished bisections keyed by that path turns 354 bisections into 223 with
// bit-identical partitions.
//
// The memo stores one side byte per subgraph vertex, never the subgraphs
// themselves (the partitioner re-induces those on a hit). It is not
// thread-safe: one memo serves the sequential partition_graph calls of one
// pipeline task.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/types.hpp"

namespace ordo {

struct PartitionOptions;

class BisectionMemo {
 public:
  /// One step of a root-to-node path: the target fraction a node was split
  /// at and the side (0 or 1) the path continues into.
  struct Step {
    double fraction = 0.0;
    int side = 0;
    auto operator<=>(const Step&) const = default;
  };
  using Path = std::vector<Step>;

  /// Binds the memo to the root graph and the options its bisections depend
  /// on (seed, tolerance, coarsening and refinement settings) on first use;
  /// throws invalid_argument_error when a later call differs, so a memo can
  /// never serve sides computed for another graph or configuration.
  void bind_to(const Graph& g, const PartitionOptions& options);

  /// The recorded bisection (part 0/1 per subgraph vertex) of the node at
  /// `path` split at `fraction`, if an earlier call completed it.
  std::optional<std::vector<index_t>> find(const Path& path,
                                           double fraction) const;

  /// Records a completed bisection of the node at `path`.
  void insert(const Path& path, double fraction,
              const std::vector<index_t>& part);

  /// Number of recorded bisections.
  std::size_t size() const { return sides_.size(); }

 private:
  struct Binding {
    index_t vertices = 0;
    offset_t adjacency_entries = 0;
    std::int64_t total_vertex_weight = 0;
    std::uint64_t seed = 0;
    double imbalance_tolerance = 0.0;
    index_t coarsen_to = 0;
    int refine_passes = 0;
    bool operator==(const Binding&) const = default;
  };

  std::optional<Binding> binding_;
  std::map<std::pair<Path, double>, std::vector<std::uint8_t>> sides_;
};

}  // namespace ordo
