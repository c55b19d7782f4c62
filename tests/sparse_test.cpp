// Tests for the sparse containers and structural operations.
#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/csr_ops.hpp"
#include "sparse/permutation.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::random_square;

TEST(Coo, RejectsOutOfRangeIndices) {
  CooMatrix coo(3, 3);
  EXPECT_THROW(coo.add(3, 0, 1.0), invalid_argument_error);
  EXPECT_THROW(coo.add(0, -1, 1.0), invalid_argument_error);
}

TEST(Csr, FromCooSortsAndSumsDuplicates) {
  CooMatrix coo(2, 4);
  coo.add(0, 3, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(0, 3, 0.5);  // duplicate of (0,3)
  coo.add(1, 0, -1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(a.num_nonzeros(), 3);
  ASSERT_EQ(a.row_cols(0).size(), 2u);
  EXPECT_EQ(a.row_cols(0)[0], 1);
  EXPECT_EQ(a.row_cols(0)[1], 3);
  EXPECT_DOUBLE_EQ(a.row_values(0)[1], 1.5);
}

TEST(Csr, ValidatesInvariants) {
  // Unsorted columns within a row must be rejected.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0, 1.0}),
               invalid_argument_error);
  // row_ptr must end at nnz.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 1}, {0, 1}, {1.0, 1.0}),
               invalid_argument_error);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0}), invalid_argument_error);
}

TEST(Csr, SymmetricExpandMirrorsOffDiagonals) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 0, -1.0);  // lower triangle only
  coo.add(2, 1, -1.0);
  const CsrMatrix a = CsrMatrix::from_coo_symmetric_expand(coo);
  EXPECT_EQ(a.num_nonzeros(), 5);
  EXPECT_TRUE(is_pattern_symmetric(a));
}

TEST(Csr, StorageBytesFormula) {
  const CsrMatrix a = random_square(10, 3.0, 1);
  const std::int64_t expected =
      static_cast<std::int64_t>(11 * sizeof(offset_t)) +
      a.num_nonzeros() *
          static_cast<std::int64_t>(sizeof(index_t) + sizeof(value_t));
  EXPECT_EQ(a.storage_bytes(), expected);
}

TEST(Transpose, InvolutionAndKnownPattern) {
  const CsrMatrix a = random_square(50, 4.0, 3);
  const CsrMatrix att = transpose(transpose(a));
  EXPECT_EQ(a, att);
}

TEST(Transpose, RectangularShape) {
  CooMatrix coo(2, 5);
  coo.add(0, 4, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix t = transpose(CsrMatrix::from_coo(coo));
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.num_cols(), 2);
  EXPECT_EQ(t.row_cols(4)[0], 0);
}

TEST(Symmetrize, SumsMirroredValues) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 3.0);
  coo.add(1, 0, 4.0);
  const CsrMatrix s = symmetrize(CsrMatrix::from_coo(coo));
  EXPECT_DOUBLE_EQ(s.row_values(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(s.row_values(1)[0], 7.0);
}

TEST(Symmetrize, ProducesSymmetricPatternOnRandom) {
  const CsrMatrix a = random_square(120, 4.0, 5);
  EXPECT_TRUE(is_pattern_symmetric(symmetrize(a)));
}

TEST(PatternSymmetry, ComparesPatternsNotValues) {
  // Symmetric pattern, unsymmetric values, with an empty row (row 2).
  CooMatrix sym(4, 4);
  sym.add(0, 0, 1.0);
  sym.add(0, 3, 2.0);
  sym.add(3, 0, -7.0);
  sym.add(1, 3, 0.5);
  sym.add(3, 1, 4.0);
  sym.add(3, 3, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(sym);
  ASSERT_EQ(a.row_nonzeros(2), 0);
  EXPECT_TRUE(is_pattern_symmetric(a));

  // One entry without its mirror; the row counts still agree with the
  // column counts, so only the entries themselves can tell.
  CooMatrix unsym(3, 3);
  unsym.add(0, 1, 1.0);
  unsym.add(1, 2, 1.0);
  unsym.add(2, 0, 1.0);
  EXPECT_FALSE(is_pattern_symmetric(CsrMatrix::from_coo(unsym)));
  CooMatrix missing(3, 3);  // (1, 2) has no mirror
  missing.add(0, 2, 1.0);
  missing.add(2, 0, 1.0);
  missing.add(1, 2, 1.0);
  EXPECT_FALSE(is_pattern_symmetric(CsrMatrix::from_coo(missing)));

  // Non-square matrices are never pattern-symmetric; the empty one is.
  CooMatrix wide(2, 3);
  wide.add(0, 0, 1.0);
  wide.add(1, 1, 1.0);
  EXPECT_FALSE(is_pattern_symmetric(CsrMatrix::from_coo(wide)));
  EXPECT_TRUE(is_pattern_symmetric(CsrMatrix::from_coo(CooMatrix(0, 0))));

  // Agrees with the transpose-and-compare definition on random patterns.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrMatrix r = random_square(40, 3.0, seed);
    const CsrMatrix rt = transpose(r);
    const bool expected = std::ranges::equal(r.row_ptr(), rt.row_ptr()) &&
                          std::ranges::equal(r.col_idx(), rt.col_idx());
    EXPECT_EQ(is_pattern_symmetric(r), expected) << seed;
    EXPECT_TRUE(is_pattern_symmetric(symmetrize(r))) << seed;
  }
}

TEST(Permutations, InvertAndCompose) {
  const Permutation p = random_permutation(40, 1);
  const Permutation inv = invert_permutation(p);
  EXPECT_EQ(compose_permutations(p, inv), identity_permutation(40));
  EXPECT_EQ(compose_permutations(inv, p), identity_permutation(40));
}

TEST(Permutations, ValidationCatchesDefects) {
  EXPECT_TRUE(is_valid_permutation({2, 0, 1}));
  EXPECT_FALSE(is_valid_permutation({0, 0, 1}));   // duplicate
  EXPECT_FALSE(is_valid_permutation({0, 3, 1}));   // out of range
  EXPECT_FALSE(is_valid_permutation({0, -1, 1}));  // negative
}

TEST(PermuteSymmetric, RoundTripsThroughInverse) {
  const CsrMatrix a = symmetrize(random_square(64, 4.0, 9));
  const Permutation p = random_permutation(64, 2);
  const CsrMatrix b = permute_symmetric(a, p);
  const CsrMatrix back = permute_symmetric(b, invert_permutation(p));
  EXPECT_EQ(a, back);
}

TEST(PermuteSymmetric, MovesEntriesCorrectly) {
  // 2x2 with A(0,1) = 5; swapping rows/cols moves it to B(1,0).
  CooMatrix coo(2, 2);
  coo.add(0, 1, 5.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const CsrMatrix b = permute_symmetric(a, {1, 0});
  EXPECT_EQ(b.row_nonzeros(0), 0);
  EXPECT_EQ(b.row_cols(1)[0], 0);
  EXPECT_DOUBLE_EQ(b.row_values(1)[0], 5.0);
}

TEST(PermuteRows, LeavesColumnsInPlace) {
  CooMatrix coo(3, 3);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(2, 1, 3.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const CsrMatrix b = permute_rows(a, {2, 0, 1});
  EXPECT_EQ(b.row_cols(0)[0], 1);  // old row 2
  EXPECT_EQ(b.row_cols(1)[0], 2);  // old row 0
  EXPECT_EQ(b.row_cols(2)[0], 0);  // old row 1
}

TEST(Diagonal, CountAndFill) {
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 2, 1.0);
  coo.add(3, 3, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(diagonal_nonzeros(a), 2);
  const CsrMatrix full = with_full_diagonal(a, 9.0);
  EXPECT_EQ(diagonal_nonzeros(full), 4);
  EXPECT_EQ(full.num_nonzeros(), 5);
  EXPECT_DOUBLE_EQ(full.row_values(2)[0], 9.0);
  // Existing diagonal entries keep their value.
  EXPECT_DOUBLE_EQ(full.row_values(0)[0], 1.0);
}

TEST(LowerTriangle, KeepsDiagonalAndBelow) {
  const CsrMatrix a = testing::grid_laplacian_2d(5, 5);
  const CsrMatrix l = lower_triangle(a);
  for (index_t i = 0; i < l.num_rows(); ++i) {
    for (index_t j : l.row_cols(i)) EXPECT_LE(j, i);
  }
  // Symmetric matrix with full diagonal: lower triangle has (nnz + n) / 2.
  EXPECT_EQ(l.num_nonzeros(), (a.num_nonzeros() + a.num_rows()) / 2);
}

}  // namespace
}  // namespace ordo
