// One measured unit of a perfbench workload (see perfbench/README.md): set
// up the workload's inputs, run its measured window once, and print one JSON
// line of facts on stdout. perfbench/run.py starts a fresh process for every
// unit, so telemetry state that ordo reads from the environment at start-up
// never carries over from one unit to the next.
//
//   ordo_perfbench <sweep_mixed|sweep_fleet|host_spmv> --seed N --out DIR
//                  [--tiny] [--calibrate]
//
// --tiny shrinks every shape for the smoke test; --calibrate (host_spmv
// only) adds, after the measured window, the single-threaded baseline, the
// STREAM-like bandwidth and the model-vs-host evaluation.
//
// This file calls only ordo's public entry points. The traced build links
// the same object with trace_wrap.cpp, which records a span around each
// call into a layer's public function; nothing here knows about tracing.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "corpus/corpus.hpp"
#include "engine/engine.hpp"
#include "obs/hw/membw.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "perfmodel/arch.hpp"
#include "perfmodel/spmv_model.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/shard.hpp"
#include "reorder/reordering.hpp"
#include "spmv/spmv.hpp"

namespace fs = std::filesystem;
using namespace ordo;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The measured window on the steady clock, which is also the clock of the
// traced build's spans, and the wall and CPU seconds reported for it.
struct Window {
  Clock::time_point start = Clock::now();
  Clock::time_point end = start;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// User plus system seconds of this process and of every child it has
// waited for (the forked shard workers).
double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
  }
  return total;
}

double max_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Builds the one JSON object the unit prints.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    this->key(key);
    obs::append_json_double(out_, v);
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    this->key(key);
    obs::append_json_string(out_, v);
    return *this;
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    this->key(key);
    out_ += json;
    return *this;
  }
  std::string done() const { return out_ + "}"; }

 private:
  void key(const std::string& k) {
    out_ += out_.size() > 1 ? "," : "";
    obs::append_json_string(out_, k);
    out_ += ":";
  }
  std::string out_ = "{";
};

JsonObject& window_facts(JsonObject& o, const Window& w) {
  auto ns = [](Clock::time_point t) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  };
  return o.num("wall_s", w.wall_s)
      .num("cpu_s", w.cpu_s)
      .num("window_start_ns", ns(w.start))
      .num("window_end_ns", ns(w.end));
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

// --- sweeps ----------------------------------------------------------------

// The reference unit of the ROADMAP: a fresh 40-matrix sweep at scale 0.3
// with four workers in total, checkpoint journal on and no resume, as
// `run_study --count 40 --scale 0.3 --jobs 4 --no-resume` runs it.
struct SweepShape {
  int jobs = 4;
  int shards = 1;
  double task_timeout_seconds = 0.0;
};

// The corpus is always the ROADMAP's reference corpus: a corpus seed changes
// which matrices are drawn and with them the amount of work, which would
// swamp any change under test (README.md, "The seed"). The benchmark seed
// is the partitioner seed instead (ReorderOptions::seed): it changes every
// GP/HP/ND permutation, and with them the result bytes, but not the work.
constexpr std::uint64_t kCorpusSeed = 2023;

std::string run_sweep(const SweepShape& shape, std::uint64_t seed,
                      const fs::path& out, bool tiny) {
  CorpusOptions corpus_options;
  corpus_options.count = tiny ? 4 : 40;
  corpus_options.scale = tiny ? 0.05 : 0.3;
  corpus_options.seed = kCorpusSeed;

  const Clock::time_point setup_start = Clock::now();
  const std::vector<CorpusEntry> corpus = generate_corpus(corpus_options);
  const double setup_s = seconds_since(setup_start);

  StudyOptions study;
  study.jobs = shape.jobs;
  study.shards = shape.shards;
  study.task_timeout_seconds = shape.task_timeout_seconds;
  study.reorder.seed = seed;
  study.checkpoint_dir = out.string();
  study.resume = false;
  fs::create_directories(out);

  const double cpu_start = cpu_seconds();
  Window window;
  // run_sharded_study is the dispatch point run_study uses; at shards == 1
  // it is run_study_pipeline itself.
  const pipeline::StudyReport report =
      pipeline::run_sharded_study(corpus, study);
  int tables = 0;
  std::size_t min_rows = corpus.size();
  for (const Architecture& arch : table2_architectures()) {
    for (const SpmvKernel& kernel : study_kernels(study)) {
      const auto it = report.results.find({arch.name, kernel});
      const std::vector<MeasurementRow> rows =
          it == report.results.end() ? std::vector<MeasurementRow>{}
                                     : it->second;
      min_rows = std::min(min_rows, rows.size());
      write_results_file(
          (out / results_filename(kernel, arch, corpus_options.count)).string(),
          rows);
      ++tables;
    }
  }
  // As run_study does: the result files supersede a clean run's journal.
  if (report.failures.empty()) fs::remove(out / pipeline::kJournalFilename);
  obs::finalize();  // trace/metrics flush and shard-trace stitch
  window.end = Clock::now();
  window.wall_s = std::chrono::duration<double>(window.end - window.start).count();
  window.cpu_s = cpu_seconds() - cpu_start;

  const engine::PlanCache::Stats cache = engine::plan_cache().stats();
  return window_facts(JsonObject().num("setup_s", setup_s), window)
      .num("rss_self_mb", max_rss_mb(RUSAGE_SELF))
      .num("rss_child_max_mb", max_rss_mb(RUSAGE_CHILDREN))
      .num("workers", shape.jobs * shape.shards)
      .num("shards", shape.shards)
      .num("matrices", static_cast<double>(corpus.size()))
      .num("computed", report.computed)
      .num("resumed", report.resumed)
      .num("failures", static_cast<double>(report.failures.size()))
      .num("tables", tables)
      .num("min_rows", static_cast<double>(min_rows))
      .num("plan_cache_hits", static_cast<double>(cache.hits))
      .num("plan_cache_lookups", static_cast<double>(cache.lookups()))
      .done();
}

// --- host SpMV ---------------------------------------------------------------

// Three structurally different stand-ins (FEM, road network, power-law
// graph), each generated past the per-core L2 of the reference host.
const char* const kHostMatrices[] = {"HV15R", "europe_osm",
                                     "kron_g500-logn21"};
// GP/ND/HP are left out: they dominate set-up (tens of seconds at this
// size) without changing what the timed section measures.
const OrderingKind kHostOrderings[] = {OrderingKind::kOriginal,
                                       OrderingKind::kRcm, OrderingKind::kGray};
constexpr int kHostThreads = 2;
// Tolerance of a host y against the serial reference, per row, relative to
// that row's sum of |a_ij * x_j|: summation-order error stays below
// row length x 1.1e-16 of it, and no stand-in row has 10^6 nonzeros.
constexpr double kHostTolerance = 1e-10;

struct HostShape {
  double scale;
  int blocks;           ///< timing blocks per cell (the median is kept)
  int calls_per_block;  ///< engine::spmv calls per block
};

struct HostMatrix {
  std::string name;
  std::vector<CsrMatrix> ordered;  ///< indexed like kHostOrderings
  std::vector<Ordering> orderings;
  std::vector<value_t> x;          ///< seed-driven input, original order
  std::vector<value_t> y_ref;      ///< spmv_serial on the original matrix
  std::vector<value_t> row_abs;    ///< sum_j |a_ij * x_j|, original order
};

struct HostCell {
  int matrix = 0;
  int ordering = 0;
  const SpmvKernel* kernel = nullptr;
  std::shared_ptr<const engine::Plan> plan;
  std::vector<value_t> x;  ///< input in the cell's ordering
  std::vector<value_t> y;
  std::vector<double> block_s;
};

const Permutation& column_permutation(const Ordering& ordering) {
  return ordering.symmetric ? ordering.row_perm : ordering.col_perm;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Cache sizes of cpu0 from sysfs, in KiB, keyed "L1d", "L2", "L3".
std::vector<std::pair<std::string, double>> host_caches() {
  std::vector<std::pair<std::string, double>> caches;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  for (int index = 0; index < 8; ++index) {
    const fs::path dir = base / ("index" + std::to_string(index));
    std::ifstream level_in(dir / "level");
    std::ifstream type_in(dir / "type");
    std::ifstream size_in(dir / "size");
    int level = 0;
    std::string type;
    std::string size;
    if (!(level_in >> level) || !(type_in >> type) || !(size_in >> size)) {
      continue;
    }
    if (type == "Instruction") continue;
    double kib = std::atof(size.c_str());
    if (size.back() == 'M') kib *= 1024.0;
    caches.emplace_back("L" + std::to_string(level) +
                            (type == "Data" ? "d" : ""),
                        kib);
  }
  return caches;
}

double cache_kib(const std::vector<std::pair<std::string, double>>& caches,
                 const std::string& name, double fallback) {
  for (const auto& [n, kib] : caches) {
    if (n == name) return kib;
  }
  return fallback;
}

// "cpu MHz" of the first processor in /proc/cpuinfo; 0 when absent.
double host_freq_ghz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::atof(line.c_str() + colon + 1) / 1000.0;
      }
    }
  }
  return 0.0;
}

// The host as an ordo Architecture: cores = the kernel's threads, cache
// sizes from sysfs, bandwidth from this process's measure_membw.
Architecture host_architecture(
    const std::vector<std::pair<std::string, double>>& caches,
    double peak_gbps, double freq_ghz) {
  Architecture host;
  host.name = "host";
  host.cores = kHostThreads;
  if (freq_ghz > 0.0) host.freq_ghz = freq_ghz;
  host.l1d_kib_per_core = static_cast<int>(cache_kib(caches, "L1d", 32));
  host.l2_kib_per_core = static_cast<int>(cache_kib(caches, "L2", 512));
  host.l3_mib_per_socket =
      std::max(1, static_cast<int>(cache_kib(caches, "L3", 32768) / 1024.0));
  host.bandwidth_gbs = peak_gbps;
  host.per_core_bandwidth_gbs = peak_gbps / kHostThreads;
  return host;
}

// Median seconds per call of `call` over `blocks` blocks of `calls` calls.
template <typename Call>
double time_per_call(int blocks, int calls, Call&& call) {
  std::vector<double> block_s;
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < calls; ++c) call();
    block_s.push_back(seconds_since(start));
  }
  return median(block_s) / calls;
}

std::string run_host(std::uint64_t seed, bool tiny, bool calibrate) {
  const HostShape shape =
      tiny ? HostShape{0.2, 3, 2} : HostShape{10.0, 7, 8};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);

  bool perms_valid = true;
  std::vector<HostMatrix> matrices;
  std::vector<HostCell> cells;
  const Clock::time_point setup_start = Clock::now();
  for (const char* name : kHostMatrices) {
    CorpusEntry entry = generate_named(name, shape.scale);
    HostMatrix& hm = matrices.emplace_back();
    hm.name = name;
    for (OrderingKind kind : kHostOrderings) {
      Ordering ordering = compute_ordering(entry.matrix, kind);
      perms_valid = perms_valid && is_valid_permutation(ordering.row_perm) &&
                    is_valid_permutation(column_permutation(ordering));
      hm.ordered.push_back(apply_ordering(entry.matrix, ordering));
      hm.orderings.push_back(std::move(ordering));
    }
    for (std::size_t k = 0; k < hm.ordered.size(); ++k) {
      for (const SpmvKernel* kernel : {&SpmvKernel::k1D, &SpmvKernel::k2D}) {
        HostCell& cell = cells.emplace_back();
        cell.matrix = static_cast<int>(matrices.size() - 1);
        cell.ordering = static_cast<int>(k);
        cell.kernel = kernel;
        cell.plan = engine::prepare_plan(hm.ordered[k], *kernel, kHostThreads);
      }
    }
  }
  const double setup_s = seconds_since(setup_start);

  // Seed-driven inputs, the serial reference on the original order, and
  // each cell's input in its own ordering — outside every timed window.
  for (HostMatrix& hm : matrices) {
    const CsrMatrix& original = hm.ordered[0];  // the Original ordering
    hm.x.resize(static_cast<std::size_t>(original.num_cols()));
    for (value_t& v : hm.x) v = uniform(rng);
    hm.y_ref.assign(static_cast<std::size_t>(original.num_rows()), 0.0);
    spmv_serial(original, hm.x, hm.y_ref);
    hm.row_abs.assign(hm.y_ref.size(), 0.0);
    for (index_t i = 0; i < original.num_rows(); ++i) {
      const auto cols = original.row_cols(i);
      const auto row_begin = original.row_ptr()[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < cols.size(); ++j) {
        hm.row_abs[static_cast<std::size_t>(i)] +=
            std::fabs(original.values()[static_cast<std::size_t>(row_begin) + j] *
                      hm.x[static_cast<std::size_t>(cols[j])]);
      }
    }
  }
  for (HostCell& cell : cells) {
    const HostMatrix& hm = matrices[static_cast<std::size_t>(cell.matrix)];
    const Permutation& cols =
        column_permutation(hm.orderings[static_cast<std::size_t>(cell.ordering)]);
    cell.x.resize(cols.size());
    for (std::size_t j = 0; j < cols.size(); ++j) {
      cell.x[j] = hm.x[static_cast<std::size_t>(cols[j])];
    }
    cell.y.assign(hm.y_ref.size(), 0.0);
  }
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  auto matrix_of = [&](const HostCell& cell) -> const CsrMatrix& {
    return matrices[static_cast<std::size_t>(cell.matrix)]
        .ordered[static_cast<std::size_t>(cell.ordering)];
  };
  // Warm-up: first-touch page faults and OpenMP team start-up stay out of
  // the timed section.
  for (std::size_t i : order) {
    engine::spmv(*cells[i].plan, matrix_of(cells[i]), cells[i].x, cells[i].y);
  }

  // Timed section: rounds over the seed-shuffled cells, one block of calls
  // per cell per round, so host noise spreads over every cell. Its wall and
  // CPU seconds are rounds x the median round, so a burst of load from
  // another tenant during one round does not move them.
  std::vector<double> round_wall;
  std::vector<double> round_cpu;
  Window window;
  for (int round = 0; round < shape.blocks; ++round) {
    const double cpu_round_start = cpu_seconds();
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i : order) {
      HostCell& cell = cells[i];
      const CsrMatrix& m = matrix_of(cell);
      const Clock::time_point block_start = Clock::now();
      for (int c = 0; c < shape.calls_per_block; ++c) {
        engine::spmv(*cell.plan, m, cell.x, cell.y);
      }
      cell.block_s.push_back(seconds_since(block_start));
    }
    round_wall.push_back(seconds_since(round_start));
    round_cpu.push_back(cpu_seconds() - cpu_round_start);
  }
  window.end = Clock::now();
  window.wall_s = shape.blocks * median(round_wall);
  window.cpu_s = shape.blocks * median(round_cpu);

  // Correctness: the last y of every cell, mapped back to the original row
  // order, against the serial reference.
  int mismatched = 0;
  for (const HostCell& cell : cells) {
    const HostMatrix& hm = matrices[static_cast<std::size_t>(cell.matrix)];
    const Permutation& rows =
        hm.orderings[static_cast<std::size_t>(cell.ordering)].row_perm;
    bool ok = cell.y.size() == hm.y_ref.size();
    for (std::size_t i = 0; ok && i < cell.y.size(); ++i) {
      const std::size_t r = static_cast<std::size_t>(rows[i]);
      ok = std::fabs(cell.y[i] - hm.y_ref[r]) <=
           kHostTolerance * hm.row_abs[r] + 1e-300;
    }
    mismatched += ok ? 0 : 1;
  }

  // Calibration, after the measured window: bandwidth, the single-threaded
  // baseline, and the model on a host-shaped Architecture.
  const auto caches = host_caches();
  double peak_gbps = 0.0;
  std::vector<double> serial_s(cells.size(), 0.0);
  std::vector<double> predicted_s(cells.size(), 0.0);
  if (calibrate) {
    obs::hw::MembwOptions membw;
    membw.threads = kHostThreads;
    if (tiny) membw.array_bytes = std::size_t{8} << 20;
    peak_gbps = obs::hw::measure_membw(membw).peak_gbps;
    const Architecture host =
        host_architecture(caches, peak_gbps, host_freq_ghz());
    ModelOptions model_options;
    model_options.cache_scale = 1.0;
    // Cells are laid out per (matrix, ordering) as csr_1d then csr_2d, so
    // cell i + 1 is the csr_2d twin of a csr_1d cell i.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      HostCell& cell = cells[i];
      const CsrMatrix& m = matrix_of(cell);
      if (cell.kernel == &SpmvKernel::k1D) {
        serial_s[i] = time_per_call(shape.blocks, shape.calls_per_block / 2 + 1,
                                    [&] { spmv_serial(m, cell.x, cell.y); });
        const SpmvModel model(m, model_options);
        predicted_s[i] = model.estimate(SpmvKernel::k1D, host).seconds;
        predicted_s[i + 1] = model.estimate(SpmvKernel::k2D, host).seconds;
      } else {
        serial_s[i] = serial_s[i - 1];
      }
    }
  }

  std::vector<std::string> matrix_json;
  for (const HostMatrix& hm : matrices) {
    const CsrMatrix& m = hm.ordered[0];
    matrix_json.push_back(
        JsonObject()
            .str("name", hm.name)
            .num("rows", m.num_rows())
            .num("nnz", static_cast<double>(m.num_nonzeros()))
            .num("csr_bytes",
                 static_cast<double>(m.num_nonzeros()) *
                         (sizeof(value_t) + sizeof(index_t)) +
                     static_cast<double>(m.num_rows() + 1) * sizeof(offset_t))
            .done());
  }
  std::vector<std::string> cell_json;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const HostCell& cell = cells[i];
    const HostMatrix& hm = matrices[static_cast<std::size_t>(cell.matrix)];
    JsonObject o;
    o.str("matrix", hm.name)
        .str("ordering",
             ordering_name(kHostOrderings[static_cast<std::size_t>(cell.ordering)]))
        .str("kernel", cell.kernel->id())
        .num("seconds", median(cell.block_s) / shape.calls_per_block);
    if (calibrate) {
      o.num("serial_seconds", serial_s[i]).num("predicted_seconds", predicted_s[i]);
    }
    cell_json.push_back(o.done());
  }
  std::vector<std::string> cache_json;
  for (const auto& [name, kib] : caches) {
    cache_json.push_back(JsonObject().str("level", name).num("kib", kib).done());
  }
  obs::finalize();
  return window_facts(JsonObject().num("setup_s", setup_s), window)
      .num("rss_self_mb", max_rss_mb(RUSAGE_SELF))
      .num("rss_child_max_mb", 0.0)
      .num("threads", kHostThreads)
      .num("calls_per_cell", shape.blocks * shape.calls_per_block)
      .num("perms_valid", perms_valid ? 1 : 0)
      .num("mismatched_cells", mismatched)
      .num("tolerance", kHostTolerance)
      .num("membw_gbps", peak_gbps)
      .raw("caches", json_array(cache_json))
      .raw("matrices", json_array(matrix_json))
      .raw("cells", json_array(cell_json))
      .done();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <sweep_mixed|sweep_fleet|host_spmv> --seed N "
               "--out DIR [--tiny] [--calibrate]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string workload = argv[1];
  std::uint64_t seed = 2023;
  fs::path out;
  bool tiny = false;
  bool calibrate = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (out.empty()) return usage(argv[0]);

  obs::init_from_env();
  std::string facts;
  if (workload == "sweep_mixed") {
    facts = run_sweep(SweepShape{4, 1, 0.0}, seed, out, tiny);
  } else if (workload == "sweep_fleet") {
    // A generous deadline: no task comes near it, but it keeps the
    // DeadlineWatchdog armed for every task.
    facts = run_sweep(SweepShape{2, 2, 600.0}, seed, out, tiny);
  } else if (workload == "host_spmv") {
    facts = run_host(seed, tiny, calibrate);
  } else {
    return usage(argv[0]);
  }
  std::printf("%s\n", facts.c_str());
  return 0;
}
