#include "partition/partitioning.hpp"

namespace ordo {

std::int64_t compute_edge_cut(const Graph& g,
                              const std::vector<index_t>& part) {
  require(part.size() == static_cast<std::size_t>(g.num_vertices()),
          "compute_edge_cut: partition size mismatch");
  std::int64_t cut = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.neighbors(v);
    const offset_t base = g.adj_ptr()[v];
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const index_t u = neighbors[k];
      if (part[static_cast<std::size_t>(v)] !=
          part[static_cast<std::size_t>(u)]) {
        cut += g.edge_weight(base + static_cast<offset_t>(k));
      }
    }
  }
  // Every undirected edge was visited from both endpoints.
  return cut / 2;
}

}  // namespace ordo
