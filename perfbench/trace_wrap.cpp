// Link-time span recorder for ordo_perfbench_traced.
//
// Every function below is a `__wrap_<symbol>` for the GNU linker's
// `--wrap=<symbol>` (CMakeLists.txt reads the symbol list from the
// PERFBENCH_WRAP labels in this file): each undefined reference to one of
// ordo's public layer entry points — from the driver or from another object
// of libordo.a — lands here, opens a span, and calls `__real_<symbol>`.
// Calls inside one translation unit are not references and stay unwrapped,
// so the spans sit exactly at the layer boundaries. Nothing under src/ is
// instrumented.
//
// `__real_` symbols are weak: should a signature change rename a mangled
// name, the wrapper is simply never called, its span name never appears,
// and run.py reports the layer as dropped instead of the link failing.
//
// Spans (id, parent, pid, tid, start, end, name, matrix, wait flag) are
// kept in memory and written, one TSV file per process, when obs::finalize
// returns — the driver calls it once at the end, and every forked shard
// worker calls it right before _exit. PERFBENCH_SPAN_DIR names the
// directory; without it nothing is written.
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "corpus/corpus.hpp"
#include "engine/engine.hpp"
#include "features/features.hpp"
#include "obs/hw/membw.hpp"
#include "partition/graph_partitioner.hpp"
#include "partition/hypergraph_partitioner.hpp"
#include "perfmodel/spmv_model.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/study_pipeline.hpp"
#include "reorder/reordering.hpp"
#include "spmv/spmv.hpp"

// The `__real_` / `__wrap_` twins of a mangled symbol. CMakeLists.txt turns
// every PERFBENCH_WRAP(<symbol>) below into -Wl,--wrap=<symbol>.
#define PERFBENCH_REAL(symbol) __asm__("__real_" #symbol) __attribute__((weak))
#define PERFBENCH_WRAP(symbol) __asm__("__wrap_" #symbol)

using namespace ordo;

namespace {

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 for a root span
  int pid = 0;
  long tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* name = "";
  std::string matrix;
  bool wait = false;  ///< a coordinator blocked on workers (pipeline entry)
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide span store. Guarded by one mutex: spans close at layer-call
// granularity (thousands per run), never inside a kernel loop.
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;
// (rows, nnz) -> matrix name, filled by the generate_named wrapper so spans
// of calls that see only a CsrMatrix still name their matrix. Study tasks
// name theirs through t_matrix instead.
std::map<std::pair<std::int64_t, std::int64_t>, std::string> g_names;
std::atomic<std::int64_t> g_next_id{1};

thread_local std::vector<std::int64_t> t_open;  ///< ids of open spans
thread_local std::string t_matrix;  ///< set while a study task runs

std::string matrix_name(const CsrMatrix* a) {
  if (!t_matrix.empty() || a == nullptr) return t_matrix;
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = g_names.find({a->num_rows(), a->num_nonzeros()});
  return it == g_names.end() ? std::string() : it->second;
}

void register_name(const CsrMatrix& a, const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_names[{a.num_rows(), a.num_nonzeros()}] = name;
}

class Span {
 public:
  Span(const char* name, const CsrMatrix* a, bool wait = false) {
    record_.name = name;
    record_.wait = wait;
    record_.matrix = matrix_name(a);
    record_.pid = static_cast<int>(getpid());
    record_.tid = static_cast<long>(syscall(SYS_gettid));
    // Ids carry the pid, so spans of forked shard workers never collide.
    record_.id = (static_cast<std::int64_t>(record_.pid) << 32) |
                 g_next_id.fetch_add(1, std::memory_order_relaxed);
    record_.parent = t_open.empty() ? 0 : t_open.back();
    t_open.push_back(record_.id);
    record_.start_ns = now_ns();
  }
  ~Span() {
    record_.end_ns = now_ns();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
};

const char* ordering_span_name(OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kOriginal: return "reorder.original";
    case OrderingKind::kRcm: return "reorder.rcm";
    case OrderingKind::kAmd: return "reorder.amd";
    case OrderingKind::kNd: return "reorder.nd";
    case OrderingKind::kGp: return "reorder.gp";
    case OrderingKind::kHp: return "reorder.hp";
    case OrderingKind::kGray: return "reorder.gray";
    default: return "reorder.other";
  }
}

// Writes this process's spans (forked workers inherit the parent's buffer,
// hence the pid filter) and its plan-cache counters.
void dump_spans() {
  const char* dir = std::getenv("PERFBENCH_SPAN_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const int pid = static_cast<int>(getpid());
  const std::string path =
      std::string(dir) + "/spans." + std::to_string(pid) + ".tsv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const engine::PlanCache::Stats cache = engine::plan_cache().stats();
  std::fprintf(out, "#plan_cache\t%lld\t%lld\n",
               static_cast<long long>(cache.hits),
               static_cast<long long>(cache.lookups()));
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const SpanRecord& s : g_spans) {
    if (s.pid != pid) continue;
    std::fprintf(out, "%lld\t%lld\t%d\t%ld\t%lld\t%lld\t%s\t%s\t%d\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 s.pid, s.tid, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.name, s.matrix.c_str(),
                 s.wait ? 1 : 0);
  }
  std::fclose(out);
}

}  // namespace

// --- corpus ------------------------------------------------------------------

std::vector<CorpusEntry> real_generate_corpus(const CorpusOptions&)
    PERFBENCH_REAL(_ZN4ordo15generate_corpusERKNS_13CorpusOptionsE);
std::vector<CorpusEntry> wrap_generate_corpus(const CorpusOptions& options)
    PERFBENCH_WRAP(_ZN4ordo15generate_corpusERKNS_13CorpusOptionsE);
std::vector<CorpusEntry> wrap_generate_corpus(const CorpusOptions& options) {
  Span span("corpus.generate_corpus", nullptr);
  return real_generate_corpus(options);
}

CorpusEntry real_generate_named(const std::string&, double)
    PERFBENCH_REAL(_ZN4ordo14generate_namedERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEd);
CorpusEntry wrap_generate_named(const std::string& name, double scale)
    PERFBENCH_WRAP(_ZN4ordo14generate_namedERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEd);
CorpusEntry wrap_generate_named(const std::string& name, double scale) {
  t_matrix = name;
  CorpusEntry entry;
  {
    Span span("corpus.generate_named", nullptr);
    entry = real_generate_named(name, scale);
  }
  t_matrix.clear();
  register_name(entry.matrix, entry.name);
  return entry;
}

// --- reorder / partition / sparse --------------------------------------------

Ordering real_compute_ordering(const CsrMatrix&, OrderingKind,
                               const ReorderOptions&)
    PERFBENCH_REAL(_ZN4ordo16compute_orderingERKNS_9CsrMatrixENS_12OrderingKindERKNS_14ReorderOptionsE);
Ordering wrap_compute_ordering(const CsrMatrix& a, OrderingKind kind,
                               const ReorderOptions& options)
    PERFBENCH_WRAP(_ZN4ordo16compute_orderingERKNS_9CsrMatrixENS_12OrderingKindERKNS_14ReorderOptionsE);
Ordering wrap_compute_ordering(const CsrMatrix& a, OrderingKind kind,
                               const ReorderOptions& options) {
  Span span(ordering_span_name(kind), &a);
  return real_compute_ordering(a, kind, options);
}

PartitionResult real_partition_graph(const Graph&, const PartitionOptions&)
    PERFBENCH_REAL(_ZN4ordo15partition_graphERKNS_5GraphERKNS_16PartitionOptionsE);
PartitionResult wrap_partition_graph(const Graph& g,
                                     const PartitionOptions& options)
    PERFBENCH_WRAP(_ZN4ordo15partition_graphERKNS_5GraphERKNS_16PartitionOptionsE);
PartitionResult wrap_partition_graph(const Graph& g,
                                     const PartitionOptions& options) {
  Span span("partition.partition_graph", nullptr);
  return real_partition_graph(g, options);
}

PartitionResult real_bisect_graph(const Graph&, double, const PartitionOptions&)
    PERFBENCH_REAL(_ZN4ordo12bisect_graphERKNS_5GraphEdRKNS_16PartitionOptionsE);
PartitionResult wrap_bisect_graph(const Graph& g, double target_fraction,
                                  const PartitionOptions& options)
    PERFBENCH_WRAP(_ZN4ordo12bisect_graphERKNS_5GraphEdRKNS_16PartitionOptionsE);
PartitionResult wrap_bisect_graph(const Graph& g, double target_fraction,
                                  const PartitionOptions& options) {
  Span span("partition.bisect_graph", nullptr);
  return real_bisect_graph(g, target_fraction, options);
}

PartitionResult real_partition_hypergraph(const Hypergraph&,
                                          const PartitionOptions&)
    PERFBENCH_REAL(_ZN4ordo20partition_hypergraphERKNS_10HypergraphERKNS_16PartitionOptionsE);
PartitionResult wrap_partition_hypergraph(const Hypergraph& h,
                                          const PartitionOptions& options)
    PERFBENCH_WRAP(_ZN4ordo20partition_hypergraphERKNS_10HypergraphERKNS_16PartitionOptionsE);
PartitionResult wrap_partition_hypergraph(const Hypergraph& h,
                                          const PartitionOptions& options) {
  Span span("partition.partition_hypergraph", nullptr);
  return real_partition_hypergraph(h, options);
}

CsrMatrix real_apply_ordering(const CsrMatrix&, const Ordering&)
    PERFBENCH_REAL(_ZN4ordo14apply_orderingERKNS_9CsrMatrixERKNS_8OrderingE);
CsrMatrix wrap_apply_ordering(const CsrMatrix& a, const Ordering& ordering)
    PERFBENCH_WRAP(_ZN4ordo14apply_orderingERKNS_9CsrMatrixERKNS_8OrderingE);
CsrMatrix wrap_apply_ordering(const CsrMatrix& a, const Ordering& ordering) {
  Span span("sparse.apply_ordering", &a);
  return real_apply_ordering(a, ordering);
}

// --- perfmodel / features / engine / spmv ------------------------------------

// The complete-object constructor and a const member function, declared with
// their Itanium ABI signatures (`this` first).
void real_model_ctor(SpmvModel*, const CsrMatrix&, const ModelOptions&)
    PERFBENCH_REAL(_ZN4ordo9SpmvModelC1ERKNS_9CsrMatrixERKNS_12ModelOptionsE);
void wrap_model_ctor(SpmvModel* self, const CsrMatrix& a,
                     const ModelOptions& options)
    PERFBENCH_WRAP(_ZN4ordo9SpmvModelC1ERKNS_9CsrMatrixERKNS_12ModelOptionsE);
void wrap_model_ctor(SpmvModel* self, const CsrMatrix& a,
                     const ModelOptions& options) {
  Span span("perfmodel.profile", &a);
  real_model_ctor(self, a, options);
}

SpmvEstimate real_model_estimate(const SpmvModel*, const SpmvKernel&,
                                 const Architecture&)
    PERFBENCH_REAL(_ZNK4ordo9SpmvModel8estimateERKNS_10SpmvKernelERKNS_12ArchitectureE);
SpmvEstimate wrap_model_estimate(const SpmvModel* self,
                                 const SpmvKernel& kernel,
                                 const Architecture& arch)
    PERFBENCH_WRAP(_ZNK4ordo9SpmvModel8estimateERKNS_10SpmvKernelERKNS_12ArchitectureE);
SpmvEstimate wrap_model_estimate(const SpmvModel* self,
                                 const SpmvKernel& kernel,
                                 const Architecture& arch) {
  Span span("perfmodel.estimate", nullptr);
  return real_model_estimate(self, kernel, arch);
}

index_t real_matrix_bandwidth(const CsrMatrix&)
    PERFBENCH_REAL(_ZN4ordo16matrix_bandwidthERKNS_9CsrMatrixE);
index_t wrap_matrix_bandwidth(const CsrMatrix& a)
    PERFBENCH_WRAP(_ZN4ordo16matrix_bandwidthERKNS_9CsrMatrixE);
index_t wrap_matrix_bandwidth(const CsrMatrix& a) {
  Span span("features.bandwidth", &a);
  return real_matrix_bandwidth(a);
}

std::int64_t real_matrix_profile(const CsrMatrix&)
    PERFBENCH_REAL(_ZN4ordo14matrix_profileERKNS_9CsrMatrixE);
std::int64_t wrap_matrix_profile(const CsrMatrix& a)
    PERFBENCH_WRAP(_ZN4ordo14matrix_profileERKNS_9CsrMatrixE);
std::int64_t wrap_matrix_profile(const CsrMatrix& a) {
  Span span("features.profile", &a);
  return real_matrix_profile(a);
}

std::int64_t real_off_diagonal(const CsrMatrix&, int)
    PERFBENCH_REAL(_ZN4ordo27off_diagonal_block_nonzerosERKNS_9CsrMatrixEi);
std::int64_t wrap_off_diagonal(const CsrMatrix& a, int blocks)
    PERFBENCH_WRAP(_ZN4ordo27off_diagonal_block_nonzerosERKNS_9CsrMatrixEi);
std::int64_t wrap_off_diagonal(const CsrMatrix& a, int blocks) {
  Span span("features.off_diagonal", &a);
  return real_off_diagonal(a, blocks);
}

std::shared_ptr<const engine::Plan> real_prepare_plan(const CsrMatrix&,
                                                      const SpmvKernel&, int)
    PERFBENCH_REAL(_ZN4ordo6engine12prepare_planERKNS_9CsrMatrixERKNS_10SpmvKernelEi);
std::shared_ptr<const engine::Plan> wrap_prepare_plan(const CsrMatrix& a,
                                                      const SpmvKernel& kernel,
                                                      int threads)
    PERFBENCH_WRAP(_ZN4ordo6engine12prepare_planERKNS_9CsrMatrixERKNS_10SpmvKernelEi);
std::shared_ptr<const engine::Plan> wrap_prepare_plan(const CsrMatrix& a,
                                                      const SpmvKernel& kernel,
                                                      int threads) {
  Span span("engine.prepare_plan", &a);
  return real_prepare_plan(a, kernel, threads);
}

void real_execute(const engine::Plan&, const CsrMatrix&,
                  std::span<const value_t>, std::span<value_t>)
    PERFBENCH_REAL(_ZN4ordo6engine7executeERKNS0_4PlanERKNS_9CsrMatrixESt4spanIKdLm18446744073709551615EES7_IdLm18446744073709551615EE);
void wrap_execute(const engine::Plan& plan, const CsrMatrix& a,
                  std::span<const value_t> x, std::span<value_t> y)
    PERFBENCH_WRAP(_ZN4ordo6engine7executeERKNS0_4PlanERKNS_9CsrMatrixESt4spanIKdLm18446744073709551615EES7_IdLm18446744073709551615EE);
void wrap_execute(const engine::Plan& plan, const CsrMatrix& a,
                  std::span<const value_t> x, std::span<value_t> y) {
  Span span("spmv.execute", &a);
  real_execute(plan, a, x, y);
}

void real_spmv_serial(const CsrMatrix&, std::span<const value_t>,
                      std::span<value_t>)
    PERFBENCH_REAL(_ZN4ordo11spmv_serialERKNS_9CsrMatrixESt4spanIKdLm18446744073709551615EES3_IdLm18446744073709551615EE);
void wrap_spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                      std::span<value_t> y)
    PERFBENCH_WRAP(_ZN4ordo11spmv_serialERKNS_9CsrMatrixESt4spanIKdLm18446744073709551615EES3_IdLm18446744073709551615EE);
void wrap_spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                      std::span<value_t> y) {
  Span span("spmv.serial", &a);
  real_spmv_serial(a, x, y);
}

// --- core / pipeline ---------------------------------------------------------

MatrixStudyRows real_run_matrix_study(const CorpusEntry&, const StudyOptions&)
    PERFBENCH_REAL(_ZN4ordo16run_matrix_studyB5cxx11ERKNS_11CorpusEntryERKNS_12StudyOptionsE);
MatrixStudyRows wrap_run_matrix_study(const CorpusEntry& entry,
                                      const StudyOptions& options)
    PERFBENCH_WRAP(_ZN4ordo16run_matrix_studyB5cxx11ERKNS_11CorpusEntryERKNS_12StudyOptionsE);
MatrixStudyRows wrap_run_matrix_study(const CorpusEntry& entry,
                                      const StudyOptions& options) {
  t_matrix = entry.name;
  struct Reset {
    ~Reset() { t_matrix.clear(); }
  } reset;
  Span span("core.run_matrix_study", nullptr);
  return real_run_matrix_study(entry, options);
}

void real_write_results_file(const std::string&,
                             const std::vector<MeasurementRow>&)
    PERFBENCH_REAL(_ZN4ordo18write_results_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_14MeasurementRowESaIS9_EE);
void wrap_write_results_file(const std::string& path,
                             const std::vector<MeasurementRow>& rows)
    PERFBENCH_WRAP(_ZN4ordo18write_results_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_14MeasurementRowESaIS9_EE);
void wrap_write_results_file(const std::string& path,
                             const std::vector<MeasurementRow>& rows) {
  Span span("core.write_results_file", nullptr);
  real_write_results_file(path, rows);
}

pipeline::StudyReport real_run_study_pipeline(const std::vector<CorpusEntry>&,
                                              const StudyOptions&)
    PERFBENCH_REAL(_ZN4ordo8pipeline18run_study_pipelineERKSt6vectorINS_11CorpusEntryESaIS2_EERKNS_12StudyOptionsE);
pipeline::StudyReport wrap_run_study_pipeline(
    const std::vector<CorpusEntry>& corpus, const StudyOptions& options)
    PERFBENCH_WRAP(_ZN4ordo8pipeline18run_study_pipelineERKSt6vectorINS_11CorpusEntryESaIS2_EERKNS_12StudyOptionsE);
pipeline::StudyReport wrap_run_study_pipeline(
    const std::vector<CorpusEntry>& corpus, const StudyOptions& options) {
  Span span("pipeline.run_study_pipeline", nullptr, /*wait=*/true);
  return real_run_study_pipeline(corpus, options);
}

pipeline::StudyReport real_run_sharded_study(const std::vector<CorpusEntry>&,
                                             const StudyOptions&)
    PERFBENCH_REAL(_ZN4ordo8pipeline17run_sharded_studyERKSt6vectorINS_11CorpusEntryESaIS2_EERKNS_12StudyOptionsE);
pipeline::StudyReport wrap_run_sharded_study(
    const std::vector<CorpusEntry>& corpus, const StudyOptions& options)
    PERFBENCH_WRAP(_ZN4ordo8pipeline17run_sharded_studyERKSt6vectorINS_11CorpusEntryESaIS2_EERKNS_12StudyOptionsE);
pipeline::StudyReport wrap_run_sharded_study(
    const std::vector<CorpusEntry>& corpus, const StudyOptions& options) {
  Span span("pipeline.run_sharded_study", nullptr, /*wait=*/true);
  return real_run_sharded_study(corpus, options);
}

void real_journal_append(pipeline::JournalWriter*,
                         const pipeline::JournalRecord&)
    PERFBENCH_REAL(_ZN4ordo8pipeline13JournalWriter6appendERKNS0_13JournalRecordE);
void wrap_journal_append(pipeline::JournalWriter* self,
                         const pipeline::JournalRecord& record)
    PERFBENCH_WRAP(_ZN4ordo8pipeline13JournalWriter6appendERKNS0_13JournalRecordE);
void wrap_journal_append(pipeline::JournalWriter* self,
                         const pipeline::JournalRecord& record) {
  Span span("pipeline.journal_append", nullptr);
  real_journal_append(self, record);
}

// --- obs -----------------------------------------------------------------------

void real_obs_finalize()
    PERFBENCH_REAL(_ZN4ordo3obs8finalizeEv);
void wrap_obs_finalize()
    PERFBENCH_WRAP(_ZN4ordo3obs8finalizeEv);
void wrap_obs_finalize() {
  {
    Span span("obs.finalize", nullptr);
    real_obs_finalize();
  }
  dump_spans();
}

obs::hw::MembwResult real_measure_membw(const obs::hw::MembwOptions&)
    PERFBENCH_REAL(_ZN4ordo3obs2hw13measure_membwERKNS1_12MembwOptionsE);
obs::hw::MembwResult wrap_measure_membw(const obs::hw::MembwOptions& options)
    PERFBENCH_WRAP(_ZN4ordo3obs2hw13measure_membwERKNS1_12MembwOptionsE);
obs::hw::MembwResult wrap_measure_membw(const obs::hw::MembwOptions& options) {
  Span span("obs.measure_membw", nullptr);
  return real_measure_membw(options);
}
