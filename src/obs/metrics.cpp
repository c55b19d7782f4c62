#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "core/thread_safety.hpp"
#include "obs/json.hpp"
#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

// Bucket 1 starts at 2^-32: biased exponent 1023 - 32, shifted past the 3
// sub-bucket bits that sit right above bit 49 of the IEEE-754 layout.
constexpr std::uint64_t kFirstBucketKey = std::uint64_t{1023 - 32} << 3;
constexpr int kSubBucketShift = 52 - 3;

// One registry entry: exactly one instrument kind per name. unique_ptr keeps
// instrument addresses stable across map growth, so returned references
// never dangle.
struct Entry {
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry {
  Mutex mutex;
  std::map<std::string, Entry> entries ORDO_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: instruments outlive statics
  return *r;
}

const double kQuantiles[] = {0.50, 0.90, 0.99, 0.999};
const char* const kQuantileKeys[] = {"p50", "p90", "p99", "p999"};

void write_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out << buf;
}

void append_key(std::string& out, const char* key) {
  out += ",\"";
  out += key;
  out += "\":";
}

}  // namespace

int histogram_bucket_index(double value) {
  if (!(value >= 0x1p-32)) return 0;  // v <= 0, NaN and underflow
  const std::uint64_t key =
      (std::bit_cast<std::uint64_t>(value) >> kSubBucketShift) -
      kFirstBucketKey + 1;
  return static_cast<int>(
      std::min<std::uint64_t>(key, kHistogramBuckets - 1));
}

double histogram_bucket_lower(int index) {
  require(index >= 0 && index < kHistogramBuckets,
          "histogram_bucket_lower: index out of range");
  if (index == 0) return 0.0;
  return std::bit_cast<double>(
      (static_cast<std::uint64_t>(index - 1) + kFirstBucketKey)
      << kSubBucketShift);
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  if (other.empty()) return;
  min = empty() ? other.min : std::min(min, other.min);
  max = empty() ? other.max : std::max(max, other.max);
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double Histogram::Snapshot::percentile(double q) const {
  if (empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based): the smallest bucket whose cumulative
  // count reaches it. ceil keeps p100 at the last occupied bucket and p0 at
  // the first. The clamp keeps min <= p50 <= ... <= max even when the
  // extreme samples sit inside their buckets.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  int index = kHistogramBuckets - 1;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      index = i;
      break;
    }
  }
  return std::min(std::max(histogram_bucket_lower(index), min), max);
}

void Histogram::widen(double lo, double hi) {
  // Relaxed: min/max are monotone tallies; the release on the bucket bump
  // that follows publishes them to snapshots (class comment).
  double seen = min_.load(std::memory_order_relaxed);
  while (lo < seen &&
         !min_.compare_exchange_weak(seen, lo, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (hi > seen &&
         !max_.compare_exchange_weak(seen, hi, std::memory_order_relaxed)) {
  }
}

void Histogram::record(double value) {
  widen(value, value);
  // Relaxed: an independent tally, published by the release below.
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(histogram_bucket_index(value))].fetch_add(
      1, std::memory_order_release);
}

void Histogram::merge(const Snapshot& snapshot) {
  if (snapshot.empty()) return;
  widen(snapshot.min, snapshot.max);
  // Relaxed: same tally reasoning as record().
  sum_.fetch_add(snapshot.sum, std::memory_order_relaxed);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (snapshot.buckets[i] != 0) {
      buckets_[static_cast<std::size_t>(i)].fetch_add(
          snapshot.buckets[i], std::memory_order_release);
    }
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  // A snapshot is per-field coherent, not a cut: a concurrent record may be
  // missing from the buckets but already in sum/min/max. count is the
  // bucket total, so buckets always sum to count.
  for (int i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    s.count += s.buckets[i];
  }
  if (s.empty()) return s;
  // Relaxed: the acquire loads above already ordered these after every
  // counted sample's updates.
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  // Relaxed: reset is a test/harness convenience, not a synchronization
  // point; racing records land in either the old or the new epoch.
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.counter) {
    require(!entry.gauge && !entry.histogram,
            "obs::counter: metric '" + name +
                "' already registered as another kind");
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.gauge) {
    require(!entry.counter && !entry.histogram,
            "obs::gauge: metric '" + name +
                "' already registered as another kind");
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  Entry& entry = r.entries[name];
  if (!entry.histogram) {
    require(!entry.counter && !entry.gauge,
            "obs::histogram: metric '" + name +
                "' already registered as another kind");
    entry.histogram = std::make_unique<Histogram>();
  }
  return *entry.histogram;
}

bool has_metric(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  return r.entries.count(name) > 0;
}

std::vector<std::string> metric_names() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.entries.size());
  for (const auto& [name, entry] : r.entries) names.push_back(name);
  return names;
}

void reset_metrics() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (auto& [name, entry] : r.entries) {
    if (entry.counter) entry.counter->add(-entry.counter->value());
    if (entry.gauge) entry.gauge->set(0.0);
    if (entry.histogram) entry.histogram->reset();
  }
}

std::vector<MetricSample> sample_metrics() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<MetricSample> samples;
  samples.reserve(r.entries.size());
  for (const auto& [name, entry] : r.entries) {
    MetricSample sample;
    sample.name = name;
    if (entry.counter) {
      sample.kind = MetricSample::Kind::kCounter;
      sample.counter_value = entry.counter->value();
    } else if (entry.gauge) {
      sample.kind = MetricSample::Kind::kGauge;
      sample.gauge_value = entry.gauge->value();
    } else {
      continue;
    }
    samples.push_back(std::move(sample));
  }
  return samples;  // std::map iteration order is already sorted
}

std::vector<NamedHistogram> sample_histograms() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  std::vector<NamedHistogram> samples;
  for (const auto& [name, entry] : r.entries) {
    if (!entry.histogram) continue;
    Histogram::Snapshot snapshot = entry.histogram->snapshot();
    if (!snapshot.empty()) samples.emplace_back(name, std::move(snapshot));
  }
  return samples;
}

void append_histogram_json(std::string& out,
                           const Histogram::Snapshot& snapshot,
                           bool include_buckets) {
  out += "{\"count\":";
  out += std::to_string(snapshot.count);
  append_key(out, "sum");
  append_json_double(out, snapshot.sum);
  append_key(out, "min");
  append_json_double(out, snapshot.min);
  append_key(out, "max");
  append_json_double(out, snapshot.max);
  append_key(out, "mean");
  append_json_double(out, snapshot.mean());
  for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
    append_key(out, kQuantileKeys[i]);
    append_json_double(out, snapshot.percentile(kQuantiles[i]));
  }
  if (include_buckets) {
    // Sparse pairs: the bucket array is mostly zeros for any real
    // distribution, and the heartbeat carries this every interval.
    append_key(out, "buckets");
    out += '[';
    bool first = true;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      if (snapshot.buckets[i] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '[';
      out += std::to_string(i);
      out += ',';
      out += std::to_string(snapshot.buckets[i]);
      out += ']';
    }
    out += ']';
  }
  out += '}';
}

void append_histograms_json(std::string& out,
                            const std::vector<NamedHistogram>& histograms,
                            bool include_buckets) {
  out += '{';
  bool first = true;
  for (const auto& [name, snapshot] : histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_histogram_json(out, snapshot, include_buckets);
  }
  out += '}';
}

ParsedHistogram parse_histogram_json(const JsonValue& value) {
  require(value.kind == JsonValue::Kind::kObject,
          "histogram: expected an object");
  ParsedHistogram parsed;
  Histogram::Snapshot& s = parsed.snapshot;
  s.count = value.at("count").as_int();
  s.sum = value.at("sum").as_double();
  s.min = value.at("min").as_double();
  s.max = value.at("max").as_double();
  if (const JsonValue* buckets = value.find("buckets")) {
    require(buckets->kind == JsonValue::Kind::kArray,
            "histogram: buckets must be an array");
    parsed.has_buckets = true;
    std::int64_t total = 0;
    for (const JsonValue& pair : buckets->items) {
      require(pair.kind == JsonValue::Kind::kArray && pair.items.size() == 2,
              "histogram: bucket entries are [index,count] pairs");
      const std::int64_t index = pair.items[0].as_int();
      require(index >= 0 && index < kHistogramBuckets,
              "histogram: bucket index out of range");
      s.buckets[static_cast<std::size_t>(index)] = pair.items[1].as_int();
      total += pair.items[1].as_int();
    }
    require(total == s.count, "histogram: buckets do not sum to count");
  }
  return parsed;
}

void write_metrics_json(std::ostream& out) {
  // Histograms are sampled first: sample_histograms() takes the registry
  // mutex itself.
  std::string histograms;
  append_histograms_json(histograms, sample_histograms(),
                         /*include_buckets=*/true);
  Registry& r = registry();
  MutexLock lock(r.mutex);
  out << "{\"schema_version\":" << kMetricsSchemaVersion
      << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, entry] : r.entries) {
    if (!entry.counter) continue;
    if (!first) out << ',';
    first = false;
    std::string key;
    append_json_string(key, name);
    out << key << ':' << entry.counter->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, entry] : r.entries) {
    if (!entry.gauge) continue;
    if (!first) out << ',';
    first = false;
    std::string key;
    append_json_string(key, name);
    out << key << ':';
    write_double(out, entry.gauge->value());
  }
  out << "},\"histograms\":" << histograms << "}\n";
}

void write_metrics_json_file(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_metrics_json_file: cannot open " + path);
  write_metrics_json(out);
}

}  // namespace ordo::obs
