#include "sparse/csr_ops.hpp"

#include <algorithm>
#include <numeric>

#include "check/invariants.hpp"

namespace ordo {

CsrMatrix transpose(const CsrMatrix& a) {
  const index_t m = a.num_rows();
  const index_t n = a.num_cols();
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  std::vector<offset_t> t_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j : col_idx) t_ptr[static_cast<std::size_t>(j) + 1]++;
  std::partial_sum(t_ptr.begin(), t_ptr.end(), t_ptr.begin());

  std::vector<offset_t> next(t_ptr.begin(), t_ptr.end() - 1);
  std::vector<index_t> t_col(col_idx.size());
  std::vector<value_t> t_val(values.size());
  for (index_t i = 0; i < m; ++i) {
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      const offset_t pos = next[static_cast<std::size_t>(j)]++;
      t_col[static_cast<std::size_t>(pos)] = i;
      t_val[static_cast<std::size_t>(pos)] = values[static_cast<std::size_t>(k)];
    }
  }
  // Rows of the transpose are filled in ascending source-row order, so the
  // column indices are already sorted.
  return CsrMatrix(n, m, std::move(t_ptr), std::move(t_col), std::move(t_val));
}

bool is_pattern_symmetric(const CsrMatrix& a) {
  if (!a.is_square()) return false;
  // Every entry (i, j) must meet its mirror (j, i). Scanning rows in
  // ascending order reaches the mirrors stored in row j in ascending i,
  // the order the sorted row holds them, so one cursor per row checks the
  // whole pattern in one pass without building the transpose. The cursors
  // advance nnz times in total and never past their row's end, so a
  // passing scan matches every entry with exactly one mirror.
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  std::vector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (const index_t j : a.row_cols(i)) {
      offset_t& c = cursor[static_cast<std::size_t>(j)];
      if (c == row_ptr[static_cast<std::size_t>(j) + 1] ||
          col_idx[static_cast<std::size_t>(c)] != i) {
        return false;
      }
      ++c;
    }
  }
  return true;
}

CsrMatrix symmetrize(const CsrMatrix& a) {
  require(a.is_square(), "symmetrize: matrix must be square");
  const CsrMatrix at = transpose(a);
  const index_t n = a.num_rows();

  // Merge the sorted rows of A and Aᵀ.
  std::vector<offset_t> s_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> s_col;
  std::vector<value_t> s_val;
  s_col.reserve(static_cast<std::size_t>(a.num_nonzeros()) * 2);
  s_val.reserve(static_cast<std::size_t>(a.num_nonzeros()) * 2);
  for (index_t i = 0; i < n; ++i) {
    const auto ca = a.row_cols(i);
    const auto va = a.row_values(i);
    const auto cb = at.row_cols(i);
    const auto vb = at.row_values(i);
    std::size_t p = 0, q = 0;
    while (p < ca.size() || q < cb.size()) {
      if (q == cb.size() || (p < ca.size() && ca[p] < cb[q])) {
        s_col.push_back(ca[p]);
        s_val.push_back(va[p]);
        ++p;
      } else if (p == ca.size() || cb[q] < ca[p]) {
        s_col.push_back(cb[q]);
        s_val.push_back(vb[q]);
        ++q;
      } else {
        s_col.push_back(ca[p]);
        s_val.push_back(va[p] + vb[q]);
        ++p;
        ++q;
      }
    }
    s_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(s_col.size());
  }
  CsrMatrix s(n, n, std::move(s_ptr), std::move(s_col), std::move(s_val));
#if defined(ORDO_CHECK_INVARIANTS_ENABLED)
  // Contract: the merged pattern equals its transpose's.
  if (!is_pattern_symmetric(s)) {
    check::report_violation(check::ViolationKind::kCsr, "symmetrize",
                            "result pattern is not symmetric");
  }
#endif
  return s;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& perm) {
  require(a.is_square(), "permute_symmetric: matrix must be square");
  return permute(a, perm, perm);
}

CsrMatrix permute_rows(const CsrMatrix& a, const Permutation& perm) {
  require_valid_permutation(perm, "permute_rows");
  require(static_cast<index_t>(perm.size()) == a.num_rows(),
          "permute_rows: permutation length must equal row count");
  const index_t m = a.num_rows();
  std::vector<offset_t> b_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (index_t i = 0; i < m; ++i) {
    b_ptr[static_cast<std::size_t>(i) + 1] =
        b_ptr[static_cast<std::size_t>(i)] +
        a.row_nonzeros(perm[static_cast<std::size_t>(i)]);
  }
  std::vector<index_t> b_col(static_cast<std::size_t>(a.num_nonzeros()));
  std::vector<value_t> b_val(static_cast<std::size_t>(a.num_nonzeros()));
  for (index_t i = 0; i < m; ++i) {
    const index_t src = perm[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(src);
    const auto vals = a.row_values(src);
    std::copy(cols.begin(), cols.end(),
              b_col.begin() + static_cast<std::ptrdiff_t>(
                                  b_ptr[static_cast<std::size_t>(i)]));
    std::copy(vals.begin(), vals.end(),
              b_val.begin() + static_cast<std::ptrdiff_t>(
                                  b_ptr[static_cast<std::size_t>(i)]));
  }
  return CsrMatrix(m, a.num_cols(), std::move(b_ptr), std::move(b_col),
                   std::move(b_val));
}

CsrMatrix permute(const CsrMatrix& a, const Permutation& row_perm,
                  const Permutation& col_perm) {
  require_valid_permutation(row_perm, "permute(row_perm)");
  require_valid_permutation(col_perm, "permute(col_perm)");
  require(static_cast<index_t>(row_perm.size()) == a.num_rows(),
          "permute: row permutation length must equal row count");
  require(static_cast<index_t>(col_perm.size()) == a.num_cols(),
          "permute: column permutation length must equal column count");
  const Permutation col_inv = invert_permutation(col_perm);

  const index_t m = a.num_rows();
  std::vector<offset_t> b_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (index_t i = 0; i < m; ++i) {
    b_ptr[static_cast<std::size_t>(i) + 1] =
        b_ptr[static_cast<std::size_t>(i)] +
        a.row_nonzeros(row_perm[static_cast<std::size_t>(i)]);
  }
  std::vector<index_t> b_col(static_cast<std::size_t>(a.num_nonzeros()));
  std::vector<value_t> b_val(static_cast<std::size_t>(a.num_nonzeros()));
  std::vector<std::pair<index_t, value_t>> row;
  for (index_t i = 0; i < m; ++i) {
    const index_t src = row_perm[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(src);
    const auto vals = a.row_values(src);
    row.clear();
    for (std::size_t k = 0; k < cols.size(); ++k) {
      row.emplace_back(col_inv[static_cast<std::size_t>(cols[k])], vals[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    offset_t out = b_ptr[static_cast<std::size_t>(i)];
    for (const auto& [j, v] : row) {
      b_col[static_cast<std::size_t>(out)] = j;
      b_val[static_cast<std::size_t>(out)] = v;
      ++out;
    }
  }
  return CsrMatrix(m, a.num_cols(), std::move(b_ptr), std::move(b_col),
                   std::move(b_val));
}

index_t diagonal_nonzeros(const CsrMatrix& a) {
  index_t count = 0;
  const index_t n = std::min(a.num_rows(), a.num_cols());
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    if (std::binary_search(cols.begin(), cols.end(), i)) ++count;
  }
  return count;
}

CsrMatrix with_full_diagonal(const CsrMatrix& a, value_t diag_value) {
  require(a.is_square(), "with_full_diagonal: matrix must be square");
  const index_t n = a.num_rows();
  std::vector<offset_t> b_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> b_col;
  std::vector<value_t> b_val;
  b_col.reserve(static_cast<std::size_t>(a.num_nonzeros() + n));
  b_val.reserve(static_cast<std::size_t>(a.num_nonzeros() + n));
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    bool placed = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (!placed && cols[k] > i) {
        b_col.push_back(i);
        b_val.push_back(diag_value);
        placed = true;
      }
      if (cols[k] == i) placed = true;
      b_col.push_back(cols[k]);
      b_val.push_back(vals[k]);
    }
    if (!placed) {
      b_col.push_back(i);
      b_val.push_back(diag_value);
    }
    b_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(b_col.size());
  }
  return CsrMatrix(n, n, std::move(b_ptr), std::move(b_col), std::move(b_val));
}

CsrMatrix lower_triangle(const CsrMatrix& a) {
  require(a.is_square(), "lower_triangle: matrix must be square");
  const index_t n = a.num_rows();
  std::vector<offset_t> b_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> b_col;
  std::vector<value_t> b_val;
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size() && cols[k] <= i; ++k) {
      b_col.push_back(cols[k]);
      b_val.push_back(vals[k]);
    }
    b_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(b_col.size());
  }
  return CsrMatrix(n, n, std::move(b_ptr), std::move(b_col), std::move(b_val));
}

}  // namespace ordo
