#include "partition/bisection_memo.hpp"

#include "partition/partitioning.hpp"

namespace ordo {

void BisectionMemo::bind_to(const Graph& g,
                            const PartitionOptions& options) {
  Binding binding;
  binding.vertices = g.num_vertices();
  binding.adjacency_entries = g.num_adjacency_entries();
  binding.total_vertex_weight = g.total_vertex_weight();
  binding.seed = options.seed;
  binding.imbalance_tolerance = options.imbalance_tolerance;
  binding.coarsen_to = options.coarsen_to;
  binding.refine_passes = options.refine_passes;
  if (!binding_) {
    binding_ = binding;
    return;
  }
  require(*binding_ == binding,
          "BisectionMemo: reused with a different graph or partition options");
}

std::optional<std::vector<index_t>> BisectionMemo::find(
    const Path& path, double fraction) const {
  const auto it = sides_.find({path, fraction});
  if (it == sides_.end()) return std::nullopt;
  return std::vector<index_t>(it->second.begin(), it->second.end());
}

void BisectionMemo::insert(const Path& path, double fraction,
                           const std::vector<index_t>& part) {
  sides_.emplace(std::make_pair(path, fraction),
                 std::vector<std::uint8_t>(part.begin(), part.end()));
}

}  // namespace ordo
