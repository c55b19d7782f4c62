// Shared setup for the figure/table harnesses: every bench reads the same
// environment knobs and shares the cached sweep in the results directory, so
// the expensive 490-matrix study runs once and every figure regenerates from
// the cache.
//
// Environment knobs:
//   ORDO_CORPUS_COUNT  number of corpus matrices (default 490)
//   ORDO_CORPUS_SCALE  nonzero-count scale factor (default 1.0)
//   ORDO_CACHE_SCALE   cache-capacity divisor of the model (default 64)
//   ORDO_SYNC_US       modelled parallel-region overhead (default 0.5)
//   ORDO_RESULTS_DIR   sweep cache directory (default ./ordo_results)
//   ORDO_VERBOSE       set to 1 for per-matrix progress on stderr
//                      (legacy alias of ORDO_LOG=progress)
//   ORDO_LOG           quiet|progress|debug structured logging (obs/log.hpp)
//   ORDO_TRACE         path: write a Chrome trace_event JSON at exit
//   ORDO_METRICS       metrics JSON path (default ordo_metrics.json)
//   ORDO_PROFILE       set to 1 for observed per-thread kernel profiles
//   ORDO_KERNELS       comma-separated engine kernel ids swept in addition
//                      to the studied csr_1d,csr_2d pair (= --kernels)
//   ORDO_JOBS          parallel per-matrix tasks (0 = all cores)
//   ORDO_SHARDS        worker processes for the sweep
// (StudyOptions knobs are read by ordo::study_options_from_env.)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/stats.hpp"
#include "engine/engine.hpp"
#include "obs/obs.hpp"

namespace ordo::bench {

/// Configures ordo::obs from the environment once per process and registers
/// the exit-time flush, so every harness writes ordo_metrics.json (and the
/// ORDO_TRACE file when requested) alongside its stdout output.
inline void init_observability() {
  static const bool initialized = [] {
    obs::init_from_env();
    if (obs::metrics_output_path().empty()) {
      obs::set_metrics_output_path("ordo_metrics.json");
    }
    std::atexit([] { obs::finalize(); });
    return true;
  }();
  (void)initialized;
}

/// init_observability plus the harness's bench-report identity: names the
/// schema-versioned BENCH_<name>.json every bench main writes at exit (see
/// obs/report.hpp; first name wins, ORDO_BENCH_REPORT overrides the path).
inline void init_observability(const std::string& report_name) {
  init_observability();
  obs::set_bench_report_name(report_name);
  if (const char* path = std::getenv("ORDO_BENCH_REPORT")) {
    if (*path != '\0') obs::set_bench_report_output_path(path);
  }
}

/// Loads (or computes and caches) the full study shared by all benches.
/// The (argc, argv) overload lets every figure/table harness accept
/// --kernels LIST and --list-kernels; unrecognised arguments abort with a
/// message rather than being silently swallowed.
inline StudyResults shared_study(int argc, char** argv) {
  init_observability();
  StudyOptions options = study_options_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels" && i + 1 < argc) {
      for (std::string& id : engine::parse_kernel_list(argv[++i])) {
        options.kernels.push_back(std::move(id));
      }
    } else if (arg == "--list-kernels") {
      engine::print_kernel_table(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument %s (supported: --kernels LIST, "
                   "--list-kernels)\n",
                   argv[0], arg.c_str());
      std::exit(2);
    }
  }
  const CorpusOptions corpus = corpus_options_from_env();
  std::fprintf(stderr,
               "ordo: using corpus of %d matrices (scale %.2f); cache dir %s\n",
               corpus.count, corpus.scale, default_results_dir().c_str());
  obs::Stopwatch watch;
  StudyResults results =
      load_or_run_study(default_results_dir(), corpus, options);
  obs::BenchCase study_case;
  study_case.name = "shared_study_seconds";
  study_case.rep_seconds.push_back(watch.seconds());
  obs::bench_report().add_case(std::move(study_case));
  return results;
}

inline StudyResults shared_study() { return shared_study(0, nullptr); }

/// Formats a five-point box summary like the paper's boxplot captions.
inline void print_box(const char* label, const BoxStats& stats) {
  std::printf("  %-8s min %6.2f | q1 %5.2f | med %5.2f | q3 %5.2f | max %7.2f\n",
              label, stats.min, stats.q1, stats.median, stats.q3, stats.max);
}

}  // namespace ordo::bench
