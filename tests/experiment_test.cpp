// Integration tests for the experiment pipeline: full-study execution on a
// tiny corpus, result-file round-trips, and the cache layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "obs/status/status.hpp"
#include "partition/bisection_memo.hpp"
#include "test_util.hpp"

namespace ordo {
namespace {

using testing::Fnv1a;

CorpusOptions tiny_corpus() {
  CorpusOptions options;
  options.count = 4;
  options.scale = 0.02;
  return options;
}

TEST(FullStudy, ProducesRowsForEveryMachineAndKernel) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  EXPECT_EQ(results.size(), 16u);  // 8 machines x 2 kernels
  for (const auto& [key, rows] : results) {
    EXPECT_EQ(rows.size(), corpus.size()) << key.first;
    for (const MeasurementRow& row : rows) {
      ASSERT_EQ(row.orderings.size(), 7u);
      for (const OrderingMeasurement& m : row.orderings) {
        EXPECT_GT(m.gflops_max, 0.0);
        EXPECT_GE(m.imbalance, 0.99);
        EXPECT_GT(m.seconds, 0.0);
      }
      EXPECT_EQ(row.threads, architecture_by_name(key.first).cores);
    }
  }
}

TEST(FullStudy, TwoDImbalanceIsAlwaysOne) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  for (const auto& [key, rows] : results) {
    if (key.second != SpmvKernel::k2D) continue;
    for (const MeasurementRow& row : rows) {
      for (const OrderingMeasurement& m : row.orderings) {
        // The even nonzero split differs by at most one nonzero per thread,
        // so max <= mean + 1 exactly (the paper's footnote 1: imbalance is
        // always 1, up to this integer granularity).
        EXPECT_LE(static_cast<double>(m.max_thread_nnz),
                  m.mean_thread_nnz + 1.0)
            << row.name;
      }
    }
  }
}

#if defined(ORDO_OBS_ENABLED)
TEST(FullStudy, PopulatesObservabilityMetrics) {
  obs::reset_metrics();
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  ASSERT_EQ(results.size(), 16u);

  // One model evaluation per (matrix, machine, kernel, ordering).
  EXPECT_EQ(obs::counter("model.evaluations").value(),
            static_cast<std::int64_t>(corpus.size()) * 8 * 2 * 7);
  EXPECT_EQ(obs::counter("study.matrices").value(),
            static_cast<std::int64_t>(corpus.size()));

  // Per-ordering wall time (observed) and modeled per-thread work must be
  // present for every ordering of the study.
  for (OrderingKind kind : study_orderings()) {
    const std::string name = ordering_name(kind);
    EXPECT_TRUE(obs::has_metric("study." + name + ".seconds")) << name;
    EXPECT_TRUE(obs::has_metric("study." + name + ".max_thread_nnz")) << name;
    EXPECT_TRUE(obs::has_metric("study." + name + ".imbalance")) << name;
    // A ratio in the shared histogram reads back unscaled: max/mean thread
    // work is at least 1, and the median is reported.
    const obs::Histogram::Snapshot imbalance =
        obs::histogram("study." + name + ".imbalance").snapshot();
    EXPECT_GE(imbalance.min, 1.0) << name;
    EXPECT_GE(imbalance.percentile(0.5), imbalance.min) << name;
    EXPECT_LE(imbalance.percentile(0.5), imbalance.max) << name;
    if (kind != OrderingKind::kOriginal) {
      EXPECT_TRUE(obs::has_metric("reorder." + name + ".seconds")) << name;
      EXPECT_GT(obs::histogram("reorder." + name + ".seconds")
                    .snapshot().count, 0) << name;
    }
  }

  // The GP/HP orderings exercise the partitioners, which report their own
  // counters.
  EXPECT_GT(obs::counter("partition.gp.bisections").value(), 0);
  EXPECT_GT(obs::counter("partition.fm.passes").value(), 0);
}
#endif

CorpusOptions golden_corpus() {
  CorpusOptions options;
  options.count = 6;
  options.scale = 0.05;
  return options;
}

// Reference digests of the golden corpus's study output, recorded from the
// study as it stood before orderings ran one at a time through the task and
// the pool started largest first. The other determinism tests compare two
// runs of the same code; these pin the output itself, so a change that
// alters any permutation or integer result column fails here even when it
// does so identically for every --jobs value.
constexpr std::uint64_t kGoldenPermutationDigest = 0xb7a9e48cb0f2180dULL;
constexpr std::uint64_t kGoldenResultDigest = 0xd291d99bc8d5c32eULL;

// Digest of every permutation the study computes for `kinds` over `corpus`:
// arch-independent orderings once, GP at each distinct core count, in
// machine order, sharing one bisection tree as run_matrix_study does.
std::uint64_t permutation_digest(const CorpusOptions& corpus,
                                 const std::vector<OrderingKind>& kinds) {
  const ReorderOptions defaults = StudyOptions().reorder;
  Fnv1a digest;
  for (const CorpusEntry& entry : generate_corpus(corpus)) {
    for (OrderingKind kind : kinds) {
      std::vector<Ordering> orderings;
      if (kind != OrderingKind::kGp) {
        orderings.push_back(compute_ordering(entry.matrix, kind, defaults));
      } else {
        BisectionMemo memo;
        std::vector<int> seen;
        for (const Architecture& arch : table2_architectures()) {
          if (std::find(seen.begin(), seen.end(), arch.cores) != seen.end()) {
            continue;
          }
          seen.push_back(arch.cores);
          ReorderOptions gp = defaults;
          gp.gp_parts = arch.cores;
          gp.gp_memo = &memo;
          orderings.push_back(compute_ordering(entry.matrix, kind, gp));
        }
        EXPECT_EQ(seen.size(), 6u);
      }
      for (const Ordering& ordering : orderings) {
        digest.add(ordering.row_perm);
        digest.add(ordering.col_perm);
        digest.add(ordering.symmetric ? 1 : 0);
      }
    }
  }
  return digest.value();
}

// Every permutation the study computes: the six arch-independent orderings
// (Original included) and GP at each distinct core count.
TEST(GoldenStudy, PermutationsMatchReference) {
  const std::uint64_t digest =
      permutation_digest(golden_corpus(), study_orderings());
  EXPECT_EQ(digest, kGoldenPermutationDigest) << std::hex << "0x" << digest;
}

// The partitioner orderings on a corpus large enough that FM passes hit
// their stall limit and the balance window rejects moves (at the golden
// corpus's scale 0.05 most bisections refine only a few dozen vertices).
// Recorded from the partitioners as they stood before GP, ND and HP shared
// one FM core.
constexpr std::uint64_t kGoldenPartitionerDigest = 0x134aca932f337fe5ULL;

TEST(GoldenStudy, PartitionerPermutationsMatchReferenceAtStallScale) {
  CorpusOptions corpus;
  corpus.count = 12;
  corpus.scale = 0.15;
  const std::uint64_t digest = permutation_digest(
      corpus, {OrderingKind::kHp, OrderingKind::kNd, OrderingKind::kGp});
  EXPECT_EQ(digest, kGoldenPartitionerDigest) << std::hex << "0x" << digest;
}

// The integer columns of all 16 (machine, kernel) tables, on the sequential
// path and on the pool.
TEST(GoldenStudy, IntegerResultColumnsMatchReference) {
  const auto corpus = generate_corpus(golden_corpus());
  for (int jobs : {1, 4}) {
    StudyOptions options;
    options.jobs = jobs;
    const StudyResults results = run_full_study(corpus, options);
    ASSERT_EQ(results.size(), 16u);
    Fnv1a digest;
    for (const auto& [key, rows] : results) {
      digest.add(static_cast<std::int64_t>(rows.size()));
      for (const MeasurementRow& row : rows) {
        digest.add(row.nnz);
        digest.add(row.threads);
        for (const OrderingMeasurement& m : row.orderings) {
          digest.add(m.min_thread_nnz);
          digest.add(m.max_thread_nnz);
          digest.add(m.bandwidth);
          digest.add(m.profile);
          digest.add(m.off_diagonal_nnz);
        }
      }
    }
    EXPECT_EQ(digest.value(), kGoldenResultDigest)
        << "jobs " << jobs << std::hex << ": 0x" << digest.value();
  }
}

TEST(ReorderingSpeedups, DividesByOriginal) {
  MeasurementRow row;
  row.orderings.resize(7);
  for (std::size_t k = 0; k < 7; ++k) {
    row.orderings[k].gflops_max = static_cast<double>(k + 1);
  }
  const auto speedups = reordering_speedups(row);
  ASSERT_EQ(speedups.size(), 6u);
  EXPECT_DOUBLE_EQ(speedups[0], 2.0);
  EXPECT_DOUBLE_EQ(speedups[5], 7.0);
}

TEST(ResultsFile, RoundTrip) {
  const auto corpus = generate_corpus(tiny_corpus());
  StudyOptions options;
  const StudyResults results = run_full_study(corpus, options);
  const auto& rows = results.at({"Rome", SpmvKernel::k1D});

  const std::string path = ::testing::TempDir() + "/ordo_results_test.txt";
  write_results_file(path, rows);
  const auto loaded = read_results_file(path);
  ASSERT_EQ(loaded.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(loaded[i].name, rows[i].name);
    EXPECT_EQ(loaded[i].nnz, rows[i].nnz);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_NEAR(loaded[i].orderings[k].gflops_max,
                  rows[i].orderings[k].gflops_max,
                  1e-6 * rows[i].orderings[k].gflops_max);
      EXPECT_EQ(loaded[i].orderings[k].bandwidth,
                rows[i].orderings[k].bandwidth);
      EXPECT_EQ(loaded[i].orderings[k].off_diagonal_nnz,
                rows[i].orderings[k].off_diagonal_nnz);
    }
  }
}

TEST(ResultsFilename, MatchesArtifactConvention) {
  EXPECT_EQ(results_filename(SpmvKernel::k1D, architecture_by_name("Milan B"),
                             490),
            "csr_1d_milan_b_128_threads_ss490.txt");
  EXPECT_EQ(results_filename(SpmvKernel::k2D, architecture_by_name("Rome"),
                             56),
            "csr_2d_rome_16_threads_ss56.txt");
}

TEST(StudyCache, SecondLoadReadsFiles) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/ordo_cache_test";
  fs::remove_all(dir);

  StudyOptions options;
  const StudyResults first = load_or_run_study(dir, tiny_corpus(), options);
  // All 16 files must exist now.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") ++files;
  }
  EXPECT_EQ(files, 16u);

  const StudyResults second = load_or_run_study(dir, tiny_corpus(), options);
  ASSERT_EQ(second.size(), first.size());
  const auto& a = first.at({"Skylake", SpmvKernel::k1D});
  const auto& b = second.at({"Skylake", SpmvKernel::k1D});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_NEAR(a[i].orderings[4].gflops_max, b[i].orderings[4].gflops_max,
                1e-6 * a[i].orderings[4].gflops_max);
  }
  fs::remove_all(dir);
}

TEST(StudyCache, EnvironmentJobsIsADefaultNotAnOverride) {
  // ORDO_JOBS is read where the CLIs build their options, before flags;
  // load_or_run_study must run an explicit options.jobs as given.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/ordo_cache_env_jobs";
  fs::remove_all(dir);
  ASSERT_EQ(::setenv("ORDO_JOBS", "3", 1), 0);
  EXPECT_EQ(study_options_from_env().jobs, 3);
  StudyOptions options;
  options.jobs = 1;
  load_or_run_study(dir, tiny_corpus(), options);
  ASSERT_EQ(::unsetenv("ORDO_JOBS"), 0);
  EXPECT_EQ(obs::status::progress().workers, 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ordo
