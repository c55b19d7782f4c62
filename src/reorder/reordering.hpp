// Common interface for matrix reordering algorithms (Table 1 of the paper).
//
// Every symmetric ordering (RCM, AMD, ND, GP, HP) produces one permutation
// applied to both rows and columns; the Gray ordering permutes rows only.
// All orderings that assume structural symmetry operate on the pattern of
// A + Aᵀ, as in Section 3.3.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/csr_ops.hpp"
#include "sparse/permutation.hpp"

namespace ordo {

class BisectionMemo;
class Graph;
struct BfsWorkspace;

/// The reordering algorithms of the study, plus extra baselines used for
/// ablation benches.
enum class OrderingKind {
  kOriginal,    ///< identity (the matrix as given)
  kRcm,         ///< Reverse Cuthill–McKee
  kAmd,         ///< approximate minimum degree
  kNd,          ///< nested dissection
  kGp,          ///< graph-partitioning-based (METIS-style, edge-cut)
  kHp,          ///< hypergraph-partitioning-based (PaToH-style, cut-net)
  kGray,        ///< Gray-code row ordering (Zhao et al.)
  kSbd,         ///< separated block diagonal (Yzelman & Bisseling), extension
  kKing,        ///< King's wavefront-minimising ordering, extension
  kSimilarity,  ///< greedy TSP-style row-similarity tour, extension
  kRandom,      ///< uniformly random symmetric permutation (ablation)
  kDegreeSort,  ///< rows sorted by ascending degree (ablation)
};

/// Knobs shared by the ordering implementations.
struct ReorderOptions {
  /// Parts used by GP; the paper matches the core count of the machine
  /// (16/32/48/64/72/128).
  index_t gp_parts = 128;
  /// When true, GP weights each vertex by its row's nonzero count so the
  /// partitioner balances nonzeros instead of rows. The paper uses the
  /// unweighted (row-balancing) variant; this knob enables the alternative
  /// Section 3.3 mentions, for ablation.
  bool gp_nnz_weighted = false;
  /// Parts used by HP; the paper fixes 128-way partitioning for PaToH.
  index_t hp_parts = 128;
  /// Gray ordering: number of bitmap sections (16 bits in the paper).
  int gray_bits = 16;
  /// Gray ordering: rows with more nonzeros than this are "dense".
  index_t gray_dense_threshold = 20;
  /// Nested dissection switches to AMD below this subgraph size.
  index_t nd_leaf_size = 64;
  /// SBD recursion stops below this many rows.
  index_t sbd_leaf_rows = 64;
  /// Seed for partitioner tie-breaking and the random baseline.
  std::uint64_t seed = 1;
  /// Optional cooperative cancellation flag (see poll_cancelled in
  /// sparse/types.hpp). The expensive recursive orderings (ND, GP, HP)
  /// forward it to the partitioners and poll it once per separator level /
  /// bisection, so a pipeline soft deadline can stop a pathological case
  /// mid-ordering. Null means not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional bisection tree shared by the GP calls of one matrix
  /// (forwarded as PartitionOptions::memo): run_matrix_study computes GP
  /// once per core count, and each call reuses the bisections the others
  /// share. Null means GP partitions from scratch.
  BisectionMemo* gp_memo = nullptr;
};

/// A computed ordering: row permutation, column permutation and whether the
/// two coincide (perm[new] == old convention, see permutation.hpp).
struct Ordering {
  Permutation row_perm;
  Permutation col_perm;
  bool symmetric = true;
};

/// Computes the ordering of the given kind for a square matrix.
Ordering compute_ordering(const CsrMatrix& a, OrderingKind kind,
                          const ReorderOptions& options = {});

/// Applies an ordering to a matrix (symmetric or row-only as appropriate).
CsrMatrix apply_ordering(const CsrMatrix& a, const Ordering& ordering);

/// Short display name matching the paper's tables ("RCM", "GP", ...).
std::string ordering_name(OrderingKind kind);

/// Parses a short name back to the kind; throws on unknown names.
OrderingKind parse_ordering_name(const std::string& name);

/// The seven orderings of the study in the paper's canonical column order:
/// Original, RCM, AMD, ND, GP, HP, Gray.
std::vector<OrderingKind> study_orderings();

/// The six non-identity reorderings of Table 1.
std::vector<OrderingKind> table1_orderings();

// ---------------------------------------------------------------------------
// Individual algorithms (all return old-of-new permutations).
// ---------------------------------------------------------------------------

/// Reverse Cuthill–McKee on the pattern of A + Aᵀ, per connected component,
/// starting each component from a George–Liu pseudo-peripheral vertex.
Permutation rcm_ordering(const CsrMatrix& a);

/// Cuthill–McKee without the final reversal (exposed for tests/ablation).
Permutation cuthill_mckee_ordering(const CsrMatrix& a);
/// The same over a graph, its searches run in the caller's workspace:
/// O(n + m) plus the level sorts however many components the graph has.
Permutation cuthill_mckee_ordering(const Graph& g, BfsWorkspace& ws);

/// Band-limited windowed RCM — the out-of-core variant: RCM is computed
/// independently on each contiguous block of `window_rows` rows (edges
/// leaving the block are clipped), so the pass touches O(window) rows of
/// the source matrix at a time and the union of the block-local
/// permutations is a valid global permutation. Degenerates to exact RCM
/// semantics per block; quality approaches global RCM as window_rows grows
/// past the matrix bandwidth. Polls `cancel` once per window.
Permutation windowed_rcm_ordering(const CsrMatrix& a, index_t window_rows,
                                  const std::atomic<bool>* cancel = nullptr);

/// Applies an ordering by streaming rows through the paged spill writer
/// into `<spill_dir>/<name>.ordocsr` (mmap backend) — O(rows) heap on both
/// sides, so an out-of-core matrix can be reordered without ever holding
/// either copy in RAM. The general-permutation core of the windowed-RCM
/// out-of-core path.
CsrMatrix apply_ordering_out_of_core(const CsrMatrix& a,
                                     const Ordering& ordering,
                                     const std::string& spill_dir,
                                     const std::string& name);

/// Approximate minimum degree (Amestoy–Davis–Duff) on A + Aᵀ.
Permutation amd_ordering(const CsrMatrix& a);

/// Nested dissection: recursive vertex separators from the multilevel graph
/// partitioner; leaves ordered by AMD.
Permutation nd_ordering(const CsrMatrix& a, const ReorderOptions& options = {});

/// Graph-partitioning ordering: k-way edge-cut partition of A + Aᵀ with rows
/// grouped by part id (original order kept within a part).
Permutation gp_ordering(const CsrMatrix& a, const ReorderOptions& options = {});

/// Hypergraph-partitioning ordering: column-net model, cut-net objective,
/// rows grouped by part id.
Permutation hp_ordering(const CsrMatrix& a, const ReorderOptions& options = {});

/// Gray-code row ordering (Zhao et al.): dense/sparse split at
/// `gray_dense_threshold` nonzeros per row, density ordering for the dense
/// block, section-bitmap Gray-code ordering for the sparse block.
Permutation gray_row_ordering(const CsrMatrix& a,
                              const ReorderOptions& options = {});

/// Separated block diagonal ordering (Yzelman & Bisseling 2009), an
/// extension beyond the paper's six: rows are recursively bisected with the
/// column-net hypergraph partitioner and the cut columns of each bisection
/// are moved between the two column blocks, yielding independent row and
/// column permutations and a cache-oblivious doubly-separated form.
std::pair<Permutation, Permutation> sbd_ordering(
    const CsrMatrix& a, const ReorderOptions& options = {});

/// King's ordering (1970): CM-style numbering that greedily minimises
/// wavefront growth; extension from the bandwidth/profile family.
Permutation king_ordering(const CsrMatrix& a);

/// Greedy nearest-neighbour tour over rows in column-overlap space — the
/// simplest TSP-based locality ordering of the Pinar & Heath family the
/// paper's related work surveys. Symmetric permutation.
Permutation similarity_ordering(const CsrMatrix& a, std::uint64_t seed = 1);

}  // namespace ordo
