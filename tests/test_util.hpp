// Shared helpers for ordo tests: small deterministic matrix builders.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/csr_ops.hpp"

namespace ordo::testing {

/// 5-point Laplacian stencil on an nx-by-ny grid (SPD, symmetric pattern).
inline CsrMatrix grid_laplacian_2d(index_t nx, index_t ny) {
  const index_t n = nx * ny;
  CooMatrix coo(n, n);
  auto id = [nx](index_t x, index_t y) { return y * nx + x; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      coo.add(id(x, y), id(x, y), 4.0);
      if (x + 1 < nx) coo.add_symmetric(id(x, y), id(x + 1, y), -1.0);
      if (y + 1 < ny) coo.add_symmetric(id(x, y), id(x, y + 1), -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// Erdős–Rényi-style random square matrix with about `avg_degree` nonzeros
/// per row plus a full diagonal. Unsymmetric pattern.
inline CsrMatrix random_square(index_t n, double avg_degree,
                               std::uint64_t seed) {
  CooMatrix coo(n, n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<index_t> dist(0, n - 1);
  std::poisson_distribution<int> degree(avg_degree);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0 + static_cast<double>(i % 3));
    const int k = degree(rng);
    for (int e = 0; e < k; ++e) coo.add(i, dist(rng), -1.0);
  }
  return CsrMatrix::from_coo(coo);
}

/// Symmetric version of random_square (pattern of R + Rᵀ).
inline CsrMatrix random_symmetric(index_t n, double avg_degree,
                                  std::uint64_t seed) {
  return symmetrize(random_square(n, avg_degree, seed));
}

/// FNV-1a over the eight little-endian bytes of each value. Golden digests
/// cover integers only, so every compiler agrees on them.
class Fnv1a {
 public:
  void add(std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<index_t>& values) {
    add(static_cast<std::int64_t>(values.size()));
    for (index_t v : values) add(static_cast<std::int64_t>(v));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace ordo::testing
