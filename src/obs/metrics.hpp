// Process-wide metrics registry (the counters/gauges/histograms half of
// ordo::obs).
//
// Three instrument kinds, all addressed by hierarchical dotted names:
//  * Counter   — monotonically increasing int64 (model evaluations, FM
//                passes, coarsening levels);
//  * Gauge     — last-written double (observed imbalance of the most recent
//                kernel launch);
//  * Histogram — fixed-layout log-linear buckets over doubles plus count,
//                sum, min and max: reordering wall time per algorithm,
//                per-task and per-phase seconds, ratios, per-thread nnz.
//
// Instruments live for the whole process once created; lookups take the
// registry mutex, so hot sites cache the returned reference (the recording
// macros below do). Every record is a handful of lock-free atomics.
//
// Histogram design (DESIGN.md §15): a value v in [2^-32, 2^48) lands in the
// bucket named by its IEEE exponent and top 3 mantissa bits, so every
// bucket is at most 1/8 of its lower bound wide and a percentile read from
// bucket lower bounds is within 12.5 % of the true sample. Bucket 0 takes
// v <= 0, NaN and underflow; values >= 2^48 clamp into the last bucket.
// The layout is a compile-time constant shared by every process, so two
// snapshots merge exactly by summing buckets — the parent of a sharded
// study folds its workers' heartbeat histograms into fleet-wide ones.
//
// Dumps: the JSON document the benches write to ordo_metrics.json, and the
// histogram wire form the /stats snapshot, heartbeat and BENCH report share.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ordo::obs {

struct JsonValue;

class Counter {
 public:
  // Relaxed throughout: counters are monotone tallies sampled for reports;
  // no reader infers ordering between a counter and other memory.
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  // Relaxed: a gauge is a last-writer-wins sample; see Counter above.
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket 0 plus 8 sub-buckets for each octave of [2^-32, 2^48).
inline constexpr int kHistogramBuckets = 1 + 8 * (32 + 48);

/// Bucket index of `value` (see the header comment for the layout).
int histogram_bucket_index(double value);

/// Inclusive lower bound of bucket `index` (0 for bucket 0).
double histogram_bucket_lower(int index);

class Histogram {
 public:
  /// A point-in-time copy: plain numbers, safe to merge, serialize and
  /// ship across processes. `count` is the bucket total by construction.
  struct Snapshot {
    std::array<std::int64_t, kHistogramBuckets> buckets{};
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;  ///< 0 when empty

    bool empty() const { return count == 0; }
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Exact merge: bucket and count sums, min of mins, max of maxes.
    /// Associative and commutative (and so is `sum` while the summed
    /// values are exactly representable).
    void merge(const Snapshot& other);
    /// Value at quantile `q` in [0, 1]: the lower bound of the bucket
    /// holding the ⌈q·count⌉-th sample, clamped into [min, max]. 0 when
    /// empty.
    double percentile(double q) const;
  };

  void record(double value);
  /// Folds a foreign snapshot (a shard worker's heartbeat) into this
  /// histogram — the parent-side half of the exact cross-process merge.
  void merge(const Snapshot& snapshot);
  Snapshot snapshot() const;
  void reset();

 private:
  void widen(double lo, double hi);

  // Buckets are bumped with release after sum/min/max are updated, and
  // snapshots load them with acquire, so a snapshot that counts a sample
  // also sees its min/max. Sum, min and max themselves are relaxed tallies.
  std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Finds or creates the named instrument. A name is bound to one kind for
/// the process lifetime; re-requesting it as another kind throws.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// True when `name` exists as any instrument kind.
bool has_metric(const std::string& name);

/// All registered names, sorted.
std::vector<std::string> metric_names();

/// Zeroes every instrument (counters to 0, gauges to 0, histograms empty)
/// without invalidating references. For tests and repeated harness runs.
void reset_metrics();

/// One counter or gauge value as sample_metrics() read it.
struct MetricSample {
  enum class Kind { kCounter, kGauge };
  std::string name;
  Kind kind = Kind::kCounter;
  std::int64_t counter_value = 0;
  double gauge_value = 0.0;
};

/// Reads every registered counter and gauge, sorted by name. Each
/// instrument is sampled atomically but the set is not a global cut — a
/// counter bumped between two samples shows its new value while an
/// earlier-sampled one shows its old. The live-status snapshot path is the
/// consumer.
std::vector<MetricSample> sample_metrics();

using NamedHistogram = std::pair<std::string, Histogram::Snapshot>;

/// Every non-empty histogram's snapshot, sorted by name (absent, never
/// zero: a registered-but-empty histogram is skipped).
std::vector<NamedHistogram> sample_histograms();

/// Appends one histogram as {"count","sum","min","max","mean","p50","p90",
/// "p99","p999"} plus, when `include_buckets`, a sparse
/// "buckets":[[index,count],...] array — the form a heartbeat carries so a
/// parent can merge exactly.
void append_histogram_json(std::string& out,
                           const Histogram::Snapshot& snapshot,
                           bool include_buckets);

/// Appends {"<name>":<append_histogram_json>,...} ("{}" when empty).
void append_histograms_json(std::string& out,
                            const std::vector<NamedHistogram>& histograms,
                            bool include_buckets);

/// Parses append_histogram_json's object back. Without "buckets" only
/// count/sum/min/max are filled and the snapshot must not be merged
/// (has_buckets false). Throws invalid_argument_error on malformed input,
/// including buckets that do not sum to count.
struct ParsedHistogram {
  Histogram::Snapshot snapshot;
  bool has_buckets = false;
};
ParsedHistogram parse_histogram_json(const JsonValue& value);

/// Layout version of the metrics JSON document; bumped whenever a field
/// changes meaning so downstream consumers can detect drift. v2: one
/// "histograms" group in the bucketed wire form; the "latency" group is
/// gone.
inline constexpr int kMetricsSchemaVersion = 2;

/// JSON document {"schema_version":2,"counters":{...},"gauges":{...},
/// "histograms":{...}}.
void write_metrics_json(std::ostream& out);
void write_metrics_json_file(const std::string& path);

}  // namespace ordo::obs

// Compile-out-able recording macros for instrumentation sites inside the
// library. The counter and histogram macros cache the instrument lookup
// after the first hit at that site (the name must be constant at the site
// for the cache to be valid).
#if defined(ORDO_OBS_ENABLED)
#define ORDO_COUNTER_ADD(name, delta)                    \
  do {                                                   \
    static ::ordo::obs::Counter& ordo_obs_counter_ =     \
        ::ordo::obs::counter(name);                      \
    ordo_obs_counter_.add(delta);                        \
  } while (0)
#define ORDO_GAUGE_SET(name, value) ::ordo::obs::gauge(name).set(value)
#define ORDO_HISTOGRAM_RECORD(name, value)               \
  do {                                                   \
    static ::ordo::obs::Histogram& ordo_obs_histogram_ = \
        ::ordo::obs::histogram(name);                    \
    ordo_obs_histogram_.record(value);                   \
  } while (0)
#else
#define ORDO_COUNTER_ADD(name, delta) ((void)0)
#define ORDO_GAUGE_SET(name, value) ((void)0)
#define ORDO_HISTOGRAM_RECORD(name, value) ((void)0)
#endif
