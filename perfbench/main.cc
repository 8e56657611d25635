// Seeded benchmark program for Maxson: three workloads through the public
// API (MaxsonSession, MaxsonServer/ClientSession), every answer checked
// against a fingerprint computed with ExecuteWithoutCache, end-to-end
// metrics from the untraced run and per-layer metrics from the traced one.
// README.md in this directory explains the workloads and the layer map.
//
// Usage: maxbench --workload raw_scan|cached_day|served_mix --seed N
//                 --seconds S --trace 0|1 --workdir DIR [--spans FILE]
// The last line of stdout is one JSON object (metrics, counts, facts).

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "obs/metrics_registry.h"
#include "probes.h"
#include "serve/server.h"
#include "simd/isa.h"
#include "storage/corc_format.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"
#include "workload/query_templates.h"

namespace perfbench {

SpanRecorder& Tracer() {
  static SpanRecorder recorder;
  return recorder;
}

namespace {

using maxson::DateId;
using maxson::Status;
using maxson::core::CachingStats;
using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::core::ScoredMpjp;
using maxson::engine::QueryMetrics;
using maxson::engine::QueryResult;
using maxson::workload::BenchmarkQuery;

// ---- Workload shape. Every count below is fixed; --seconds only scales
// the number of work units, so a given (seed, seconds) repeats exactly.

/// JSON bytes per generated table; row counts derive from each Table II
/// row's average record size, clamped so the huge-document tables still
/// span several row groups.
constexpr uint64_t kTableJsonBytes = 320 << 10;
constexpr uint64_t kMinRows = 120;
constexpr uint64_t kMaxRows = 2000;
constexpr uint64_t kRowsPerFile = 250;  // several splits on the small tables
constexpr uint32_t kRowsPerGroup = 50;
constexpr int kDateDays = 3;
constexpr int kHistoryDays = 14;
constexpr int kRunsPerHistoryDay = 2;
constexpr DateId kFirstTrainDay = 8;
constexpr DateId kLastTrainDay = 13;
constexpr DateId kFirstTimedDay = 14;
/// Session set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// A daily load is one part file of about this many JSON bytes, whichever
/// table it lands on; kTablesLoadedPerDay tables are loaded per day.
constexpr uint64_t kLoadJsonBytes = 80 << 10;
constexpr size_t kTablesLoadedPerDay = 3;
/// served_mix traffic shape: the paper's recurring share, and the share of
/// recurring requests respelled (whitespace, keyword case, AND order,
/// mirrored comparisons) so they reach the result cache only through the
/// canonicalizer. Neither the paper nor the trace generator gives a
/// respelled share; 0.35 is an assumption, stated as such in README.md.
constexpr double kRecurringShare = 0.82;
constexpr double kRespelledShare = 0.35;
constexpr size_t kServeClients = 2;
/// Completions per served_mix throughput window.
constexpr size_t kServeWindow = 100;
/// Re-sends of one served request that admission rejected.
constexpr size_t kMaxAdmissionRetries = 1000;

struct Shape {
  size_t units = 0;             // passes / days / phases
  size_t rounds_per_unit = 1;   // RoundQueries() per unit (single client)
  size_t requests_per_client = 0;
  size_t pool_threads = 0;      // EngineConfig::num_threads
  size_t client_threads = 1;
  uint64_t budget = 0;
};

Shape ShapeFor(const std::string& workload, int seconds) {
  Shape s;
  const double sec = std::max(1, seconds);
  if (workload == "raw_scan") {
    // One pass = two rounds of Q1..Q10, then a predict+score midnight.
    // p90 falls on the edge of Q6, the slowest template, so it needs
    // many Q6 samples: 26 at --seconds 25.
    s.units = std::max<size_t>(3, static_cast<size_t>(sec * 0.5 + 0.5));
    s.rounds_per_unit = 2;
    s.pool_threads = 1;  // inline: see README, "The host"
    s.budget = 0;
  } else if (workload == "cached_day") {
    s.units = std::max<size_t>(3, static_cast<size_t>(sec * 0.25 + 0.5));
    s.rounds_per_unit = 60;
    s.pool_threads = 1;  // inline: see README, "The host"
    s.budget = MaxsonConfig{}.cache_budget_bytes;
  } else {
    s.units = std::max<size_t>(3, static_cast<size_t>(sec * 0.2 + 0.5));
    s.requests_per_client = 600;
    s.client_threads = kServeClients;
    s.pool_threads = 1;  // each client executes inline: 2 threads in all
    s.budget = MaxsonConfig{}.cache_budget_bytes;
  }
  return s;
}

// ---- Small deterministic RNG (splitmix64), so inputs do not depend on the
// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void ReplaceFirst(std::string* text, const std::string& from,
                  const std::string& to) {
  const size_t pos = text->find(from);
  if (pos != std::string::npos) text->replace(pos, from.size(), to);
}

// ---- CPU rotation. Each core of the reference host drifts in speed on
// its own, by up to 2x over seconds (README.md, "The host"). A
// single-threaded run that stays on one core measures that core's stretch
// of luck; moving the measured threads together over every allowed core
// lets one run sample all of them. Threads a registered thread starts
// inherit its one-core mask; every workload runs its engine inline
// (num_threads 1), so the pool starts none.

constexpr auto kRotatePeriod = std::chrono::milliseconds(100);

class CpuRotator {
 public:
  CpuRotator() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotator() { Stop(); }

  size_t cores() const { return cpus_.size(); }
  uint64_t failures() const { return failures_.load(); }

  /// Starts rotating; the calling thread is registered first.
  void Start() {
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] { Loop(); });
    Add(pthread_self());
  }

  /// Stops rotating and gives every registered thread all allowed cores.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : threads_) Pin(entry.first, allowed_);
    threads_.clear();
  }

  /// Moves `t` to the current core plus `offset` now and with every later
  /// turn; threads with distinct offsets never share a core.
  void Add(pthread_t t, size_t offset = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || !thread_.joinable()) return;
    threads_.push_back({t, offset});
    Pin(t, Current(offset));
  }

  /// Stops moving `t` and gives it all allowed cores; `t` must still run.
  void Remove(pthread_t t) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(
        threads_.begin(), threads_.end(),
        [t](const auto& x) { return pthread_equal(x.first, t); });
    if (it == threads_.end()) return;
    threads_.erase(it);
    Pin(t, allowed_);
  }

 private:
  cpu_set_t Current(size_t offset) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(turn_ + offset) % cpus_.size()], &one);
    return one;
  }
  void Pin(pthread_t t, const cpu_set_t& set) {
    if (pthread_setaffinity_np(t, sizeof(set), &set) != 0) ++failures_;
  }
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      const auto next = std::chrono::steady_clock::now() + kRotatePeriod;
      while (!stop_ && wake_.wait_until(lock, next) != std::cv_status::timeout) {
      }
      if (stop_) break;
      ++turn_;
      for (const auto& [t, offset] : threads_) Pin(t, Current(offset));
    }
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::pair<pthread_t, size_t>> threads_;  // thread, core offset
  size_t turn_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> failures_{0};
  std::thread thread_;
};

// ---- Data.

struct Dataset {
  std::string warehouse;
  maxson::catalog::Catalog catalog;
  std::vector<BenchmarkQuery> queries;
  std::vector<uint64_t> rows;   // per query table, grows with loads
  std::vector<uint64_t> generated_rows;  // before any load
  std::vector<size_t> files;    // part files per query table
};

/// Q2 and Q9 filter on `f0 > threshold`, a literal derived from the row
/// count; the benchmark rescales it to the generated row count. Ad-hoc
/// requests are Q2 with a new threshold: its raw execution is cheap, and
/// each distinct ad-hoc query needs its own reference answer.
std::string ThresholdLiteral(const BenchmarkQuery& q, uint64_t rows) {
  if (q.name == "Q2") return "> " + std::to_string(rows * 3 / 4);
  if (q.name == "Q9") return "> " + std::to_string(rows * 9 / 10);
  return "";
}

constexpr const char* kAdhocTemplate = "Q2";

Status Generate(uint64_t seed, const std::string& warehouse, Dataset* data) {
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.rows_per_file = kRowsPerFile;
  suite.rows_per_group = kRowsPerGroup;
  suite.date_days = kDateDays;
  suite.seed = 1000 + seed;
  data->warehouse = warehouse;
  data->queries = maxson::workload::MakeTableIIQueries(suite);
  for (BenchmarkQuery& q : data->queries) {
    const uint64_t old_rows = q.table_spec.rows;
    const uint64_t rows = std::clamp<uint64_t>(
        kTableJsonBytes / static_cast<uint64_t>(q.table_spec.avg_json_bytes),
        kMinRows, kMaxRows);
    q.table_spec.rows = rows;
    const std::string old_literal = ThresholdLiteral(q, old_rows);
    if (!old_literal.empty()) {
      ReplaceFirst(&q.sql, old_literal, ThresholdLiteral(q, rows));
    }
    data->rows.push_back(rows);
    data->generated_rows.push_back(rows);
    data->files.push_back((rows + kRowsPerFile - 1) / kRowsPerFile);
  }
  return maxson::workload::GenerateBenchmarkTables(data->queries, warehouse,
                                                   suite, &data->catalog);
}

/// The daily load: one more part file of fresh records for query table
/// `index`, then the table's modification clock moves to `day`.
Status AppendPartFile(Dataset* data, size_t index, DateId day) {
  const BenchmarkQuery& q = data->queries[index];
  maxson::storage::Schema schema;
  schema.AddField("id", maxson::storage::TypeKind::kInt64);
  schema.AddField("date", maxson::storage::TypeKind::kInt64);
  schema.AddField("payload", maxson::storage::TypeKind::kString);
  maxson::storage::CorcWriterOptions options;
  options.rows_per_group = kRowsPerGroup;
  const std::string dir = data->warehouse + "/" + q.table_spec.database +
                          "/" + q.table_spec.table;
  maxson::storage::CorcWriter writer(
      dir + "/" +
          maxson::storage::FileSystem::PartFileName(data->files[index]),
      schema, options);
  MAXSON_RETURN_NOT_OK(writer.Open());
  const uint64_t load_rows = std::max<uint64_t>(
      1, kLoadJsonBytes / static_cast<uint64_t>(q.table_spec.avg_json_bytes));
  for (uint64_t i = 0; i < load_rows; ++i) {
    const uint64_t row = data->rows[index] + i;
    MAXSON_RETURN_NOT_OK(writer.AppendRow(
        {maxson::storage::Value::Int64(static_cast<int64_t>(row)),
         maxson::storage::Value::Int64(20190101 +
                                       static_cast<int64_t>(row % kDateDays)),
         maxson::storage::Value::String(
             maxson::workload::GenerateJsonRecord(q.table_spec, row))}));
  }
  MAXSON_RETURN_NOT_OK(writer.Close());
  data->rows[index] += load_rows;
  data->files[index] += 1;
  return data->catalog.TouchTable(q.table_spec.database, q.table_spec.table,
                                  day);
}

// ---- Session set-up and the midnight cycle.

struct MidnightOutcome {
  double seconds = 0;
  size_t predicted = 0;
  size_t selected = 0;
  CachingStats caching;
  std::vector<std::string> cached_keys;  // sorted
  double predict_s = 0, score_s = 0, build_s = 0;  // traced runs only
};

/// Untraced: one RunMidnightCycle call. Traced: the same steps called one
/// by one (PredictMpjps, ScoreCandidates, SelectWithinBudget,
/// CacheSelected) so each gets a span.
bool RunMidnight(MaxsonSession* session, DateId day, Report* report,
                 MidnightOutcome* out) {
  const bool traced = Tracer().enabled();
  ScopedSpan root("bench", "midnight");
  const int64_t t0 = NowNs();
  std::vector<ScoredMpjp> selected;
  if (!traced) {
    auto r = session->RunMidnightCycle(day);
    if (!r.ok()) {
      report->Fail("midnight cycle failed: " + r.status().ToString());
      return false;
    }
    out->predicted = r->predicted_mpjps.size();
    selected = r->selected;
    out->caching = r->caching;
  } else {
    std::vector<std::string> predicted;
    int64_t t = NowNs();
    {
      ScopedSpan span("core", "PredictMpjps");
      predicted = session->PredictMpjps(day);
    }
    out->predict_s = static_cast<double>(NowNs() - t) * 1e-9;
    t = NowNs();
    std::vector<ScoredMpjp> scored;
    {
      ScopedSpan span("core", "ScoreCandidates");
      auto r = session->ScoreCandidates(predicted, day);
      if (!r.ok()) {
        report->Fail("scoring failed: " + r.status().ToString());
        return false;
      }
      scored = std::move(*r);
    }
    out->score_s = static_cast<double>(NowNs() - t) * 1e-9;
    {
      ScopedSpan span("core", "SelectWithinBudget");
      selected = maxson::core::SelectWithinBudget(
          std::move(scored), session->config().cache_budget_bytes);
    }
    t = NowNs();
    {
      ScopedSpan span("core", "CacheSelected");
      auto r = session->CacheSelected(selected, day);
      if (!r.ok()) {
        report->Fail("cache build failed: " + r.status().ToString());
        return false;
      }
      out->caching = *r;
    }
    out->build_s = static_cast<double>(NowNs() - t) * 1e-9;
    out->predicted = predicted.size();
  }
  out->seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  out->selected = selected.size();
  out->cached_keys.clear();
  for (const ScoredMpjp& s : selected) {
    out->cached_keys.push_back(s.candidate.location.Key());
  }
  std::sort(out->cached_keys.begin(), out->cached_keys.end());
  return true;
}

void RecordDay(MaxsonSession* session, const BenchmarkQuery& q, DateId day) {
  maxson::workload::QueryRecord record;
  record.date = day;
  record.paths = q.paths;
  session->RecordQuery(record);
}

// ---- Answers.

using References = std::map<std::string, uint64_t>;  // SQL -> fingerprint

bool ComputeReferences(MaxsonSession* session,
                       const std::vector<std::string>& sqls, References* refs,
                       Report* report) {
  for (const std::string& sql : sqls) {
    ScopedSpan span("engine", "ExecuteWithoutCache");
    auto r = session->ExecuteWithoutCache(sql);
    if (!r.ok()) {
      report->Fail("reference query failed: " + r.status().ToString() +
                   " for " + sql);
      return false;
    }
    (*refs)[sql] = maxson::engine::FingerprintHash(r->batch);
  }
  return true;
}

/// Timed results of one workload run, turned into metrics at the end.
struct Samples {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> template_ms;
  /// queries_per_s samples: completions per second over fixed-size
  /// windows of work (a round of one client, or kServeWindow consecutive
  /// completions across the served clients).
  std::vector<double> window_qps;
  std::vector<double> midnight_s;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> predict_s, score_s, build_s;
  std::vector<double> traced_unit_s, untraced_unit_s;
  QueryMetrics first_unit;  // summed over the first unit's queries
  uint64_t first_unit_queries = 0;
  MidnightOutcome last_midnight;
  // serve layer
  uint64_t served = 0, hits = 0, rejected = 0;
  std::vector<double> hit_ms, miss_ms;
};

void AddCounts(QueryMetrics* total, const QueryMetrics& m) {
  total->read.Add(m.read);
  total->parse.Add(m.parse);
  total->shared_skips += m.shared_skips;
  total->cache_columns_read += m.cache_columns_read;
}

/// Runs one checked query through the session. Returns false on a failed
/// or wrong answer (already counted).
bool TimedExecute(MaxsonSession* session, const BenchmarkQuery& q,
                  uint64_t expected, Samples* samples, Report* report,
                  QueryMetrics* counts) {
  ++report->attempted;
  std::optional<maxson::Result<QueryResult>> r;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span("engine", "MaxsonSession::Execute " + q.name);
    r.emplace(session->Execute(q.sql));
  }
  const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (!r->ok()) {
    ++report->failed;
    report->Fail(q.name + " failed: " + r->status().ToString());
    return false;
  }
  if (maxson::engine::FingerprintHash((*r)->batch) != expected) {
    ++report->failed;
    report->Fail(q.name + " returned a wrong answer");
    return false;
  }
  samples->latency_ms.push_back(ms);
  samples->template_ms[q.name].push_back(ms);
  if (counts != nullptr) AddCounts(counts, (*r)->metrics);
  return true;
}

// ---- The workload runs.

struct Run {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string workdir;
  Shape shape;
  Dataset data;
  maxson::obs::MetricsRegistry metrics;
  std::unique_ptr<MaxsonSession> session;
  Samples samples;
  Report report;
  CpuRotator rotator;

  std::string cache_root() const { return workdir + "/cache"; }

  MaxsonConfig Config() {
    MaxsonConfig config;
    config.cache_root = cache_root();
    config.cache_budget_bytes = shape.budget;
    config.engine.default_database = "bench";
    config.engine.num_threads = shape.pool_threads;
    config.metrics = &metrics;
    return config;
  }

  /// The budget never binds on the cached workloads: every predicted MPJP
  /// must be selected and cached, or the run measures different work.
  void CheckCachedSet(const MidnightOutcome& m) {
    if (shape.budget == 0) return;
    if (m.predicted == 0 || m.selected != m.predicted ||
        m.caching.paths_cached != m.predicted) {
      report.Fail("cached path set is not the full predicted set: predicted " +
                  std::to_string(m.predicted) + ", selected " +
                  std::to_string(m.selected) + ", cached " +
                  std::to_string(m.caching.paths_cached));
    }
  }

  /// setup_s: session construction, history, TrainPredictor and the first
  /// midnight cycle; repeated kSetupRepeats times, the last session kept.
  bool Setup() {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      session.reset();
      std::error_code ec;
      std::filesystem::remove_all(cache_root(), ec);
      ScopedSpan root("bench", "setup");
      const int64_t t0 = NowNs();
      {
        ScopedSpan span("core", "MaxsonSession");
        session = std::make_unique<MaxsonSession>(&data.catalog, Config());
      }
      {
        ScopedSpan span("core", "RecordQuery");
        for (DateId day = 0; day < kHistoryDays; ++day) {
          for (const BenchmarkQuery& q : data.queries) {
            for (int run = 0; run < kRunsPerHistoryDay; ++run) {
              RecordDay(session.get(), q, day);
            }
          }
        }
      }
      const int64_t t_train = NowNs();
      {
        ScopedSpan span("core", "TrainPredictor");
        Status st = session->TrainPredictor(kFirstTrainDay, kLastTrainDay);
        if (!st.ok()) {
          report.Fail("training failed: " + st.ToString());
          return false;
        }
      }
      samples.train_s.push_back(static_cast<double>(NowNs() - t_train) * 1e-9);
      MidnightOutcome m;
      if (!RunMidnight(session.get(), kFirstTimedDay, &report, &m)) {
        return false;
      }
      samples.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      CheckCachedSet(m);
      samples.last_midnight = m;
    }
    return report.errors.empty();
  }

  /// One timed midnight after unit `unit` (target day = next day).
  bool TimedMidnight(size_t unit) {
    MidnightOutcome m;
    if (!RunMidnight(session.get(),
                     kFirstTimedDay + static_cast<DateId>(unit) + 1, &report,
                     &m)) {
      return false;
    }
    samples.midnight_s.push_back(m.seconds);
    if (Tracer().enabled()) {
      samples.predict_s.push_back(m.predict_s);
      samples.score_s.push_back(m.score_s);
      samples.build_s.push_back(m.build_s);
    }
    CheckCachedSet(m);
    samples.last_midnight = m;
    return true;
  }

  /// Traced runs alternate recording on and off per unit, so the unit
  /// times of each kind give the tracing overhead.
  void BeginUnit(size_t unit) {
    if (trace) Tracer().set_enabled(unit % 2 == 0);
  }
  void EndUnit(double seconds) {
    if (!trace) return;
    (Tracer().enabled() ? samples.traced_unit_s : samples.untraced_unit_s)
        .push_back(seconds);
    Tracer().set_enabled(true);
  }

  std::vector<std::string> AllSql() const {
    std::vector<std::string> sqls;
    for (const BenchmarkQuery& q : data.queries) sqls.push_back(q.sql);
    return sqls;
  }

  /// Daily load, dated `day`, on tables chosen by a fixed rotation: which
  /// tables grow shapes each later day's work, so it must not vary by seed.
  bool Load(size_t unit, DateId day, std::vector<size_t>* loaded) {
    loaded->clear();
    const size_t n = data.queries.size();
    for (size_t k = 0; k < kTablesLoadedPerDay; ++k) {
      const size_t index = (unit + k * (n / kTablesLoadedPerDay)) % n;
      Status st = AppendPartFile(&data, index, day);
      if (!st.ok()) {
        report.Fail("daily load failed: " + st.ToString());
        return false;
      }
      loaded->push_back(index);
    }
    return true;
  }

  /// Template indexes of one round: Q1..Q10 once each. Table II gives no
  /// per-query frequencies, so every template weighs the same.
  std::vector<size_t> RoundQueries() const {
    std::vector<size_t> round(data.queries.size());
    for (size_t i = 0; i < round.size(); ++i) round[i] = i;
    return round;
  }

  /// raw_scan and cached_day: one closed-loop client replays RoundQueries()
  /// in a seeded order, `rounds_per_unit` times per unit; cached_day loads
  /// and re-caches between units, raw_scan only re-predicts and re-scores.
  bool RunSingleClient() {
    Rng rng(seed * 7919 + 17);
    References refs;
    if (!ComputeReferences(session.get(), AllSql(), &refs, &report)) {
      return false;
    }
    const bool loads = workload == "cached_day";
    for (size_t unit = 0; unit < shape.units; ++unit) {
      const DateId day = kFirstTimedDay + static_cast<DateId>(unit);
      BeginUnit(unit);
      double unit_s = 0;
      for (size_t round = 0; round < shape.rounds_per_unit; ++round) {
        std::vector<size_t> order = RoundQueries();
        rng.Shuffle(&order);
        double round_s = 0;
        size_t done = 0;
        for (size_t i : order) {
          const BenchmarkQuery& q = data.queries[i];
          if (TimedExecute(session.get(), q, refs[q.sql], &samples, &report,
                           unit == 0 ? &samples.first_unit : nullptr)) {
            round_s += samples.latency_ms.back() * 1e-3;
            ++done;
          }
          if (unit == 0) ++samples.first_unit_queries;
        }
        if (done > 0 && round_s > 0) {
          samples.window_qps.push_back(static_cast<double>(done) / round_s);
        }
        unit_s += round_s;
      }
      EndUnit(unit_s);
      for (size_t round = 0; round < shape.rounds_per_unit; ++round) {
        for (size_t i : RoundQueries()) RecordDay(session.get(), data.queries[i], day);
      }
      std::vector<size_t> loaded;
      if (loads && !Load(unit, day + 1, &loaded)) return false;
      if (!TimedMidnight(unit)) return false;
      std::vector<std::string> stale;
      for (size_t index : loaded) stale.push_back(data.queries[index].sql);
      if (!ComputeReferences(session.get(), stale, &refs, &report)) {
        return false;
      }
    }
    return true;
  }

  // ---- served_mix

  struct Request {
    size_t query = 0;      // template index
    std::string sql;       // text sent
    std::string ref_key;   // reference SQL whose answer it must match
  };

  /// A recurring request respelled so only the canonicalizer can match it:
  /// lower-case keywords, doubled spaces, BETWEEN as two conjuncts in
  /// reverse order, `x > n` mirrored to `n < x`.
  static std::string Respell(const std::string& sql, Rng* rng) {
    std::string out = sql;
    for (const char* kw : {"SELECT ", " FROM ", " WHERE ", " GROUP BY ",
                           " ORDER BY ", " LIMIT ", " DESC", " AS "}) {
      std::string lower = kw;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      size_t pos = 0;
      while ((pos = out.find(kw, pos)) != std::string::npos) {
        out.replace(pos, std::string(kw).size(), lower);
        pos += lower.size();
      }
    }
    const std::string between = "date BETWEEN 20190101 AND 20190102";
    if (out.find(between) != std::string::npos) {
      ReplaceFirst(&out, between,
                   "date <= 20190102   AND  date >= 20190101");
    }
    const size_t gt = out.find("')) > ");
    if (gt != std::string::npos) {
      // to_int(get_json_object(payload, '$.fK')) > N  ->  N < to_int(...)
      const size_t expr_start = out.rfind("to_int(", gt);
      size_t num_end = gt + 6;
      while (num_end < out.size() && std::isdigit(out[num_end])) ++num_end;
      if (expr_start != std::string::npos) {
        const std::string expr = out.substr(expr_start, gt + 3 - expr_start);
        const std::string num = out.substr(gt + 6, num_end - gt - 6);
        out.replace(expr_start, num_end - expr_start, num + " < " + expr);
      }
    }
    if (rng->Below(2) == 0) out = "  " + out + " ";
    return out;
  }

  /// One phase of dashboard traffic per client, with exact shares: each
  /// client sends every Table II query equally often among its recurring
  /// requests, respells kRespelledShare of those, and sends
  /// 1 - kRecurringShare ad-hoc requests, shuffled. Ad-hoc thresholds are
  /// unique within the phase; the midnight between phases makes every
  /// cached result stale, so each phase starts the result cache over.
  std::vector<std::vector<Request>> MakePhase(Rng* rng) {
    size_t adhoc_query = 0;
    while (data.queries[adhoc_query].name != kAdhocTemplate) ++adhoc_query;
    const BenchmarkQuery& adhoc_q = data.queries[adhoc_query];
    const uint64_t rows = data.rows[adhoc_query];
    const std::string baked =
        ThresholdLiteral(adhoc_q, data.generated_rows[adhoc_query]);
    std::set<std::string> adhoc;
    const size_t n = shape.requests_per_client;
    const size_t n_recurring =
        static_cast<size_t>(static_cast<double>(n) * kRecurringShare + 0.5);
    const size_t n_respelled = static_cast<size_t>(
        static_cast<double>(n_recurring) * kRespelledShare + 0.5);
    std::vector<std::vector<Request>> clients(shape.client_threads);
    for (auto& list : clients) {
      std::vector<char> respell(n_recurring, 0);
      std::fill(respell.begin(), respell.begin() + n_respelled, 1);
      rng->Shuffle(&respell);
      for (size_t i = 0; i < n; ++i) {
        Request req;
        if (i < n_recurring) {
          req.query = i % data.queries.size();
          req.ref_key = data.queries[req.query].sql;
          req.sql = respell[i] ? Respell(req.ref_key, rng) : req.ref_key;
        } else {
          req.query = adhoc_query;
          do {
            req.sql = adhoc_q.sql;
            ReplaceFirst(&req.sql, baked,
                         "> " + std::to_string(rng->Below(rows)));
          } while (req.sql == adhoc_q.sql || !adhoc.insert(req.sql).second);
          req.ref_key = req.sql;
        }
        list.push_back(std::move(req));
      }
      rng->Shuffle(&list);
    }
    return clients;
  }

  struct ClientResult {
    std::vector<double> ms;
    std::vector<size_t> query;
    std::vector<bool> hit;
    uint64_t failed = 0, rejected = 0;
    std::vector<int64_t> done_ns;  // completion times from phase start
    std::vector<std::string> errors;
    QueryMetrics counts;
  };

  bool RunServed() {
    Rng rng(seed * 104729 + 3);
    maxson::serve::MaxsonServer server(session.get(), &data.catalog,
                                       maxson::serve::ServeOptions{});
    // Reference answers stay valid until a load touches their table.
    References refs;
    std::map<std::string, size_t> ref_template;
    for (size_t unit = 0; unit < shape.units; ++unit) {
      const DateId day = kFirstTimedDay + static_cast<DateId>(unit);
      auto phase = MakePhase(&rng);
      std::vector<std::string> missing;
      for (const auto& list : phase) {
        for (const Request& r : list) {
          if (ref_template.emplace(r.ref_key, r.query).second) {
            missing.push_back(r.ref_key);
          }
        }
      }
      if (!ComputeReferences(session.get(), missing, &refs, &report)) {
        return false;
      }
      BeginUnit(unit);
      std::vector<ClientResult> results(phase.size());
      std::atomic<size_t> ready{0};
      // Each client owns one core, and the rotator moves both together
      // (client c on the current core + c). Unpinned, the scheduler
      // sometimes stacked both on one core, and queries_per_s read
      // whether a second core happened to be free (2300 vs 5000 for one
      // seed). Sharing one core instead time-sliced the clients, so about
      // one request in ten waited out the other client's slice and p90
      // sat on the edge of that 5-ms cluster.
      const int64_t t0 = NowNs();
      {
        std::vector<std::thread> clients;
        for (size_t c = 0; c < phase.size(); ++c) {
          clients.emplace_back([&, c] {
            rotator.Add(pthread_self(), c);
            maxson::serve::ClientSession client =
                server.Connect("dashboard" + std::to_string(c));
            ClientResult& out = results[c];
            ready.fetch_add(1);
            while (ready.load() < phase.size()) std::this_thread::yield();
            for (const Request& req : phase[c]) {
              std::optional<maxson::Result<
                  maxson::serve::ClientSession::Outcome>> r;
              const int64_t s0 = NowNs();
              // An admission rejection is not a failed query: the client
              // counts it and sends the request again, as a dashboard
              // would. Only a request still rejected after
              // kMaxAdmissionRetries fails.
              for (size_t attempt = 0;; ++attempt) {
                {
                  ScopedSpan span("serve", "ClientSession::Execute " +
                                               data.queries[req.query].name);
                  r.emplace(client.Execute(req.sql));
                }
                if (r->ok() || r->status().code() !=
                                   maxson::StatusCode::kResourceExhausted ||
                    attempt == kMaxAdmissionRetries) {
                  break;
                }
                ++out.rejected;
                std::this_thread::yield();
              }
              const double ms = static_cast<double>(NowNs() - s0) * 1e-6;
              if (!r->ok()) {
                ++out.failed;
                out.errors.push_back(r->status().ToString());
                continue;
              }
              if (maxson::engine::FingerprintHash((*r)->result.batch) !=
                  refs.at(req.ref_key)) {
                ++out.failed;
                out.errors.push_back("wrong answer for " + req.sql);
                continue;
              }
              out.done_ns.push_back(NowNs() - t0);
              out.ms.push_back(ms);
              out.query.push_back(req.query);
              out.hit.push_back((*r)->result_cache_hit);
              if (unit == 0) AddCounts(&out.counts, (*r)->result.metrics);
            }
            rotator.Remove(pthread_self());
          });
        }
        for (std::thread& t : clients) t.join();
      }
      const double phase_s = static_cast<double>(NowNs() - t0) * 1e-9;
      EndUnit(phase_s);
      std::vector<int64_t> done_ns;
      for (size_t c = 0; c < results.size(); ++c) {
        const ClientResult& res = results[c];
        report.attempted += phase[c].size();
        report.failed += res.failed;
        samples.rejected += res.rejected;
        for (const std::string& e : res.errors) report.Fail(e);
        for (size_t i = 0; i < res.ms.size(); ++i) {
          samples.latency_ms.push_back(res.ms[i]);
          samples.template_ms[data.queries[res.query[i]].name].push_back(
              res.ms[i]);
          ++samples.served;
          if (res.hit[i]) {
            ++samples.hits;
            samples.hit_ms.push_back(res.ms[i]);
          } else {
            samples.miss_ms.push_back(res.ms[i]);
          }
        }
        done_ns.insert(done_ns.end(), res.done_ns.begin(), res.done_ns.end());
        if (unit == 0) {
          AddCounts(&samples.first_unit, res.counts);
          samples.first_unit_queries += res.ms.size();
        }
        for (size_t q : res.query) RecordDay(session.get(), data.queries[q], day);
      }
      std::sort(done_ns.begin(), done_ns.end());
      int64_t window_start = 0;
      for (size_t end = kServeWindow; end <= done_ns.size();
           end += kServeWindow) {
        const int64_t window_end = done_ns[end - 1];
        if (window_end > window_start) {
          samples.window_qps.push_back(
              static_cast<double>(kServeWindow) /
              (static_cast<double>(window_end - window_start) * 1e-9));
        }
        window_start = window_end;
      }
      if (unit + 1 == shape.units) break;
      // The day ends: load, then midnight, with no client running.
      std::vector<size_t> loaded;
      if (!Load(unit, day + 1, &loaded)) return false;
      if (!TimedMidnight(unit)) return false;
      for (auto it = ref_template.begin(); it != ref_template.end();) {
        if (std::find(loaded.begin(), loaded.end(), it->second) !=
            loaded.end()) {
          refs.erase(it->first);
          it = ref_template.erase(it);
        } else {
          ++it;
        }
      }
    }
    return true;
  }

  /// Traced runs of the single-client workloads also push each query twice
  /// through a MaxsonServer (miss, then result-cache hit), so the serve
  /// layer has numbers on every workload.
  void ServeProbe() {
    References refs;
    if (!ComputeReferences(session.get(), AllSql(), &refs, &report)) return;
    maxson::serve::MaxsonServer server(session.get(), &data.catalog,
                                       maxson::serve::ServeOptions{});
    maxson::serve::ClientSession client = server.Connect("probe");
    for (int pass = 0; pass < 2; ++pass) {
      for (const BenchmarkQuery& q : data.queries) {
        ++report.attempted;
        const int64_t t0 = NowNs();
        std::optional<maxson::Result<maxson::serve::ClientSession::Outcome>> r;
        {
          ScopedSpan span("serve", "ClientSession::Execute " + q.name);
          r.emplace(client.Execute(q.sql));
        }
        const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
        if (!r->ok() ||
            maxson::engine::FingerprintHash((*r)->result.batch) !=
                refs[q.sql]) {
          ++report.failed;
          report.Fail("serve probe: wrong or failed answer for " + q.name);
          continue;
        }
        ++samples.served;
        if ((*r)->result_cache_hit) {
          ++samples.hits;
          samples.hit_ms.push_back(ms);
        } else {
          samples.miss_ms.push_back(ms);
        }
      }
    }
  }

  std::vector<std::string> RawDirs() const {
    std::vector<std::string> dirs;
    for (const BenchmarkQuery& q : data.queries) {
      dirs.push_back(data.warehouse + "/" + q.table_spec.database + "/" +
                     q.table_spec.table);
    }
    return dirs;
  }

  std::vector<std::string> CacheDirs() const {
    std::set<std::string> dirs;
    for (const auto& entry : session->registry().Snapshot()) {
      dirs.insert(entry.cache_table_dir);
    }
    return std::vector<std::string>(dirs.begin(), dirs.end());
  }

  void LayerProbes() {
    Tracer().set_enabled(true);
    if (workload != "served_mix") ServeProbe();
    JsonProbeResult json = ProbeJson(data.catalog, data.queries, 40, 5);
    if (json.mismatches != 0) {
      report.Fail("json probe: " + std::to_string(json.mismatches) +
                  " extractions disagreed with the DOM tier");
    }
    report.Metric("json.dom_ns_per_path", json.dom_ns_per_path, "ns");
    report.Metric("json.mison_ns_per_path", json.mison_ns_per_path, "ns");
    report.Metric("json.ondemand_ns_per_path", json.ondemand_ns_per_path,
                  "ns");
    report.Metric("simd.classify_gbps", json.classify_gbps, "GB/s");
    report.FactNumber("json_probe_extractions",
                      static_cast<double>(json.extractions));

    uint64_t failures = 0;
    report.Metric("storage.raw_decode_mib_s",
                  ProbeDecodeMibPerSecond(RawDirs(), 5, &failures), "MiB/s");
    report.Metric("storage.cache_decode_mib_s",
                  ProbeDecodeMibPerSecond(CacheDirs(), 5, &failures), "MiB/s");
    std::vector<std::string> sqls = AllSql();
    PlanProbeResult plan = ProbePlan(session.get(), sqls, 5);
    failures += plan.failures;
    report.Metric("engine.plan_ms", plan.plan_ms, "ms");
    report.Metric("engine.plan_raw_ms", plan.plan_raw_ms, "ms");
    Rng rng(seed);
    for (const BenchmarkQuery& q : data.queries) {
      sqls.push_back(Respell(q.sql, &rng));
    }
    report.Metric("serve.canonicalize_us",
                  ProbeCanonicalizeMicros(sqls, 20, &failures), "us");
    if (failures != 0) {
      report.Fail("layer probes: " + std::to_string(failures) +
                  " calls failed");
    }
  }
};

double PeakRssMib() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Finish(Run* run) {
  Samples& s = run->samples;
  Report& report = run->report;
  const MidnightOutcome& m = s.last_midnight;

  // ---- End-to-end metrics (every workload, same names).
  report.Metric("setup_s", Median(s.setup_s), "s");
  report.Metric("queries_per_s", Median(s.window_qps), "1/s");
  report.Metric("latency_p50_ms", HdQuantile(s.latency_ms, 0.5), "ms");
  report.Metric("latency_p90_ms", HdQuantile(s.latency_ms, 0.9), "ms");
  report.Metric("midnight_s", Median(s.midnight_s), "s");
  const uint64_t raw_bytes = DirectoryBytes(run->data.warehouse);
  const uint64_t cache_bytes = DirectoryBytes(run->cache_root());
  report.Metric("stored_mib",
                static_cast<double>(raw_bytes + cache_bytes) / (1 << 20),
                "MiB");
  report.Metric("peak_rss_mib", PeakRssMib(), "MiB");

  // ---- Deterministic counts: identical for every run of one seed.
  std::string key_list;
  for (const std::string& k : m.cached_keys) key_list += k + "\n";
  report.counts["core.predicted_paths"] = m.predicted;
  report.counts["core.cached_paths"] = m.caching.paths_cached;
  report.counts["core.cached_set_hash"] = Fnv1a(key_list);
  report.counts["core.rows_preparsed"] = m.caching.rows_parsed;
  // On-disk cache bytes are not pinned: the footer is JSON with decimal
  // offsets, and column order follows the timed A_j (ROADMAP item 2), so
  // the file size can move by a byte between runs. Chunk bytes cannot.
  report.counts["storage.cache_chunk_bytes"] = m.caching.corc_encoded_bytes;
  report.counts["storage.cache_plain_bytes"] = m.caching.corc_raw_bytes;
  report.counts["storage.raw_bytes"] = raw_bytes;
  const char* chunk_names[] = {"plain", "rle", "dict", "block"};
  for (int e = 0; e < maxson::storage::kNumChunkEncodings; ++e) {
    report.counts[std::string("storage.chunks.") + chunk_names[e]] =
        m.caching.corc_chunks[e];
  }
  // Shared scans and concurrent clients make served_mix's per-query counts
  // depend on timing; only the single-client workloads pin them.
  if (run->workload != "served_mix") {
    report.counts["engine.records_parsed"] =
        s.first_unit.parse.records_parsed;
    report.counts["engine.rows_read"] = s.first_unit.read.rows_read;
    report.counts["engine.bytes_read"] = s.first_unit.read.bytes_read;
    report.counts["engine.shared_skips"] = s.first_unit.shared_skips;
    report.counts["engine.cache_columns_read"] =
        s.first_unit.cache_columns_read;
  }

  report.FactNumber("samples.latency", static_cast<double>(s.latency_ms.size()));
  report.FactNumber("samples.qps_windows",
                    static_cast<double>(s.window_qps.size()));
  report.FactNumber("samples.midnight", static_cast<double>(s.midnight_s.size()));
  report.FactNumber("samples.setup", static_cast<double>(s.setup_s.size()));
  report.FactNumber("cache_bytes", static_cast<double>(cache_bytes));

  if (!run->trace) return;

  // ---- Per-layer metrics (traced run).
  const double per_query =
      static_cast<double>(std::max<uint64_t>(1, s.first_unit_queries));
  report.Metric("engine.records_parsed",
                static_cast<double>(s.first_unit.parse.records_parsed) /
                    per_query, "count");
  report.Metric("engine.rows_read",
                static_cast<double>(s.first_unit.read.rows_read) / per_query,
                "count");
  report.Metric("engine.bytes_read",
                static_cast<double>(s.first_unit.read.bytes_read) / per_query,
                "count");
  report.Metric("engine.shared_skips",
                static_cast<double>(s.first_unit.shared_skips) / per_query,
                "count");
  report.Metric("engine.cache_columns_read",
                static_cast<double>(s.first_unit.cache_columns_read) /
                    per_query, "count");
  for (const BenchmarkQuery& q : run->data.queries) {
    report.Metric("engine." + q.name + "_ms", Median(s.template_ms[q.name]),
                  "ms");
  }
  report.Metric("core.train_s", Median(s.train_s), "s");
  report.Metric("core.predict_s", Median(s.predict_s), "s");
  report.Metric("core.score_s", Median(s.score_s), "s");
  report.Metric("core.build_s", Median(s.build_s), "s");
  report.Metric("core.predicted_paths", static_cast<double>(m.predicted),
                "count");
  report.Metric("core.cached_paths",
                static_cast<double>(m.caching.paths_cached), "count");
  report.Metric("core.rows_preparsed",
                static_cast<double>(m.caching.rows_parsed), "count");
  report.Metric("storage.cache_mib",
                static_cast<double>(cache_bytes) / (1 << 20), "MiB");
  report.Metric("storage.encoded_ratio",
                m.caching.corc_raw_bytes == 0
                    ? 0.0
                    : static_cast<double>(m.caching.corc_encoded_bytes) /
                          static_cast<double>(m.caching.corc_raw_bytes),
                "ratio");
  for (int e = 0; e < maxson::storage::kNumChunkEncodings; ++e) {
    report.Metric(std::string("storage.chunks.") + chunk_names[e],
                  static_cast<double>(m.caching.corc_chunks[e]), "count");
  }
  report.Metric("serve.hit_ratio",
                s.served == 0 ? 0.0
                              : static_cast<double>(s.hits) /
                                    static_cast<double>(s.served),
                "ratio");
  report.FactNumber("serve.served", static_cast<double>(s.served));
  report.Metric("serve.hit_p50_ms", Median(s.hit_ms), "ms");
  report.Metric("serve.miss_p50_ms", Median(s.miss_ms), "ms");
  // Every rejection is one more Execute call: rejections over all calls.
  report.Metric("serve.rejected",
                static_cast<double>(s.rejected) /
                    static_cast<double>(report.attempted + s.rejected),
                "ratio");
  const maxson::core::SessionStats stats = run->session->stats();
  report.Metric("exec.parse_passes",
                static_cast<double>(stats.sharedscan_parse_passes), "count");
  report.Metric("exec.coalesced_parses",
                static_cast<double>(stats.sharedscan_coalesced_parses),
                "count");
  const double traced = Median(s.traced_unit_s);
  const double untraced = Median(s.untraced_unit_s);
  report.Metric("trace.overhead_pct",
                untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%");
  for (const auto& [layer, ms] : Tracer().SelfTimesMs()) {
    if (layer == "bench") continue;
    report.Metric(layer + ".self_ms", ms, "ms");
  }
  report.FactNumber("trace.spans", static_cast<double>(Tracer().size()));
}

void RecordFacts(Run* run) {
  Report& r = run->report;
  const MaxsonConfig defaults;
  const maxson::serve::ServeOptions serve_defaults;
  r.FactText("workload", run->workload);
  r.FactNumber("seed", static_cast<double>(run->seed));
  r.FactNumber("seconds", run->seconds);
  r.FactNumber("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.FactNumber("engine.num_threads", static_cast<double>(run->shape.pool_threads));
  r.FactNumber("pool_worker_threads",
               static_cast<double>(run->shape.pool_threads - 1));
  r.FactNumber("client_threads", static_cast<double>(run->shape.client_threads));
  r.FactText("simd_isa", run->session->stats().simd_isa);
  r.FactText("build_type", PERFBENCH_BUILD_TYPE);
  r.FactText("filesystem", FilesystemType(run->workdir));
  r.FactText("flush_policy",
             "fsync on: every CORC file is staged, fsynced, renamed, and its "
             "directory synced");
  r.FactText("cpu_rotation",
             "set-up, queries and midnights move together over " +
                 std::to_string(run->rotator.cores()) +
                 " cores, one turn per 100 ms" +
                 (run->workload == "served_mix"
                      ? "; client c runs on the current core + c"
                      : ""));
  r.FactNumber("cpu_rotation_failures",
               static_cast<double>(run->rotator.failures()));
  r.FactNumber("effective_cores",
               SpinEffectiveCores(std::thread::hardware_concurrency(), 3));
  // Knobs: all at their defaults except num_threads and the budget.
  r.FactNumber("knob.cache_budget_bytes", static_cast<double>(run->shape.budget));
  r.FactText("knob.ondemand", defaults.engine.enable_ondemand ? "on" : "off");
  r.FactText("knob.raw_filter",
             defaults.engine.enable_raw_filter ? "on" : "off");
  r.FactText("knob.corc_encoding", defaults.corc_encoding ? "on" : "off");
  r.FactText("knob.json_backend",
             defaults.engine.json_backend == maxson::engine::JsonBackend::kDom
                 ? "dom"
                 : "mison");
  r.FactText("knob.shared_scan",
             run->workload == "served_mix"
                 ? (serve_defaults.enable_shared_scan ? "on" : "off")
                 : (defaults.engine.enable_shared_scan ? "on" : "off"));
  r.FactText("knob.result_cache",
             run->workload == "served_mix"
                 ? (serve_defaults.enable_result_cache ? "on" : "off")
                 : "n/a");
  r.FactNumber("knob.morsel_rows", static_cast<double>(defaults.engine.morsel_rows));
  r.FactText("knob.validate_plans",
             defaults.engine.validate_plans ? "on" : "off");
  r.FactNumber("knob.sample_rows", static_cast<double>(defaults.sample_rows));
  r.FactNumber("knob.predictor_epochs", defaults.predictor.epochs);
  r.FactNumber("knob.predictor_window_days", defaults.predictor.window_days);
  r.FactNumber("knob.max_in_flight",
               static_cast<double>(serve_defaults.default_limits.max_in_flight));
  r.FactNumber("shape.units", static_cast<double>(run->shape.units));
  r.FactNumber("shape.rounds_per_unit",
               static_cast<double>(run->shape.rounds_per_unit));
  r.FactNumber("shape.requests_per_client",
               static_cast<double>(run->shape.requests_per_client));
  std::string rows;
  for (size_t i = 0; i < run->data.queries.size(); ++i) {
    rows += (i ? "," : "") + run->data.queries[i].table_spec.table + "=" +
            std::to_string(run->data.rows[i]);
  }
  r.FactText("table_rows_at_end", rows);
}

int Main(int argc, char** argv) {
  Run run;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") run.workload = value;
    else if (flag == "--seed") run.seed = std::stoull(value);
    else if (flag == "--seconds") run.seconds = std::stoi(value);
    else if (flag == "--trace") run.trace = value == "1";
    else if (flag == "--workdir") run.workdir = value;
    else if (flag == "--spans") spans_path = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if ((run.workload != "raw_scan" && run.workload != "cached_day" &&
       run.workload != "served_mix") ||
      run.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: maxbench --workload raw_scan|cached_day|served_mix "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--spans FILE]\n");
    return 2;
  }
  run.shape = ShapeFor(run.workload, run.seconds);
  std::error_code ec;
  std::filesystem::remove_all(run.workdir, ec);
  std::filesystem::create_directories(run.workdir, ec);

  const int64_t g0 = NowNs();
  if (Status st = Generate(run.seed, run.workdir + "/warehouse", &run.data);
      !st.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  run.report.FactNumber("generate_s", static_cast<double>(NowNs() - g0) * 1e-9);

  Tracer().set_enabled(run.trace);
  run.rotator.Start();
  bool ok = run.Setup();
  if (ok) {
    ok = run.workload == "served_mix" ? run.RunServed() : run.RunSingleClient();
  }
  run.rotator.Stop();
  if (ok && run.trace) run.LayerProbes();
  if (ok) {
    RecordFacts(&run);
    Finish(&run);
  }
  if (run.trace && !spans_path.empty() &&
      !Tracer().WriteJsonLines(spans_path)) {
    run.report.Fail("cannot write spans to " + spans_path);
  }
  if (!ok && run.report.errors.empty()) run.report.Fail("run aborted");
  std::printf("%s\n", run.report.ToJson().c_str());
  std::fflush(stdout);
  return ok && run.report.errors.empty() && run.report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
