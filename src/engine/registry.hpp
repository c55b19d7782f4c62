// ordo::engine — the kernel registry.
//
// Every SpMV kernel the study can sweep is described by a KernelDesc: a
// stable string id, capability flags, and a prepare/execute function pair
// behind the uniform plan interface of plan.hpp. The studied 1D/2D pair,
// the merge-path kernel and the transpose kernel register themselves here
// (src/spmv/kernel_descriptors.cpp), and the experiment layer resolves
// StudyOptions::kernels against the registry — so adding a kernel to the
// sweep means registering a descriptor, not editing an enum in four layers.
//
// Capability flags gate enrolment rather than trusting callers to know each
// kernel's fine print: `needs_symmetric` kernels are rejected by
// study_kernels() (the corpus stores full matrices), and kernels with
// `deterministic == false` are refused by checkpointed sweeps unless
// StudyOptions::allow_nondeterministic is set (the journal's byte-identical
// resume guarantee cannot hold for atomic-scatter float summation).
#pragma once

#include <compare>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "engine/plan.hpp"
#include "sparse/csr.hpp"

namespace ordo {

/// A kernel identity in study-facing APIs: a thin value wrapper over a
/// registry id. The studied pair is exposed as SpmvKernel::k1D / ::k2D so
/// call sites written against the former two-value enum compile unchanged;
/// any registered id can be wrapped to extend the sweep.
class SpmvKernel {
 public:
  /// Defaults to the 1D kernel (the study's baseline).
  SpmvKernel() : id_("csr_1d") {}
  explicit SpmvKernel(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  friend bool operator==(const SpmvKernel&, const SpmvKernel&) = default;
  friend auto operator<=>(const SpmvKernel&, const SpmvKernel&) = default;

  static const SpmvKernel k1D;  ///< "csr_1d", the even row split
  static const SpmvKernel k2D;  ///< "csr_2d", the even nonzero split
 private:
  std::string id_;
};

/// Display name of the kernel ("1D", "2D", "merge-path", ...); falls back to
/// the raw id for kernels the registry does not know.
std::string spmv_kernel_name(const SpmvKernel& kernel);

namespace engine {

/// Capability flags consulted when a kernel is enrolled in a sweep.
struct KernelCaps {
  /// Runs multi-threaded; false for serial reference kernels.
  bool parallel = true;
  /// Bitwise-reproducible output for a fixed (matrix, x, threads). False
  /// for kernels whose float summation order depends on scheduling (the
  /// atomic-scatter transpose kernel) — such kernels break the pipeline's
  /// byte-identical checkpoint/resume guarantee.
  bool deterministic = true;
  /// Input must be the lower triangle of a symmetric matrix; incompatible
  /// with the study corpus, which stores matrices in full.
  bool needs_symmetric = false;
  /// Computes y = Aᵀ·x, so the output has num_cols elements.
  bool transposed_output = false;
};

/// One registered kernel: identity, capabilities, and the prepare/execute
/// pair. `prepare` builds the reusable plan (the inspector phase);
/// `execute` runs one y = A·x (or Aᵀ·x) against a plan previously prepared
/// for the same matrix structure and thread count.
struct KernelDesc {
  std::string id;            ///< stable registry id, e.g. "csr_1d"
  std::string display_name;  ///< short human name, e.g. "1D"
  std::string summary;       ///< one line for --list-kernels
  KernelCaps caps;
  Plan (*prepare)(const CsrMatrix& a, int threads) = nullptr;
  void (*execute)(const Plan& plan, const CsrMatrix& a,
                  std::span<const value_t> x, std::span<value_t> y) = nullptr;
};

/// Registers a kernel. Throws invalid_argument_error on a duplicate id,
/// an empty id, or missing prepare/execute functions. Thread-safe.
void register_kernel(KernelDesc desc);

/// Looks up a kernel by id; returns nullptr when unknown. The returned
/// pointer stays valid for the process lifetime (descriptors are never
/// removed).
const KernelDesc* find_kernel(const std::string& id);

/// Looks up a kernel by id; throws invalid_argument_error (listing the
/// registered ids) when unknown.
const KernelDesc& kernel(const std::string& id);

/// All registered ids, sorted.
std::vector<std::string> kernel_ids();

/// Splits a comma-separated kernel-id list ("merge,transpose"), dropping
/// empty items: the --kernels / ORDO_KERNELS syntax.
std::vector<std::string> parse_kernel_list(const std::string& list);

/// Prints the registered kernels with their capability flags
/// (--list-kernels).
void print_kernel_table(std::FILE* out);

/// RAII registration helper for kernels defined outside
/// src/spmv/kernel_descriptors.cpp (tests, future plugins):
/// `static engine::KernelRegistrar reg{desc};` at namespace scope.
class KernelRegistrar {
 public:
  explicit KernelRegistrar(KernelDesc desc) {
    register_kernel(std::move(desc));
  }
};

/// Registers the built-in kernel set (defined in
/// src/spmv/kernel_descriptors.cpp). The registry calls this lazily from
/// its accessors — an explicit hook rather than static-initializer
/// self-registration, because ordo is a static library and the linker is
/// free to drop a translation unit nothing references.
void register_builtin_kernels();

/// Prepares a plan for `a` on `threads` threads, bypassing the plan cache
/// (prepare_plan() in plan_cache.hpp is the cached entry point). Validates
/// the plan's thread-partition invariants through the ORDO_CHECK seam.
Plan prepare(const CsrMatrix& a, const std::string& id, int threads);

/// Executes one SpMV against a prepared plan. The plan must have been
/// prepared for a matrix with the same row structure; `y` must have
/// a.num_rows() elements (a.num_cols() for transposed-output kernels).
void execute(const Plan& plan, const CsrMatrix& a, std::span<const value_t> x,
             std::span<value_t> y);

}  // namespace engine
}  // namespace ordo
