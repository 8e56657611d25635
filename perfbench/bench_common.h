#ifndef MAXSON_PERFBENCH_BENCH_COMMON_H_
#define MAXSON_PERFBENCH_BENCH_COMMON_H_

// Shared helpers of the seeded benchmark program: clocks, order statistics,
// a result sink that renders JSON, and the span recorder that gives the
// traced run its per-layer self times.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), evaluated on the side where it converges.
inline double RegularizedBeta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const bool flip = x > (a + 1.0) / (a + b + 2.0);
  if (flip) {
    std::swap(a, b);
    x = 1.0 - x;
  }
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double f = d;
  for (int m = 1; m <= 1000; ++m) {
    for (int half = 0; half < 2; ++half) {
      const double num =
          half == 0
              ? m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
              : -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
      d = 1.0 + num * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      f *= c * d;
    }
    if (std::fabs(c * d - 1.0) < 1e-14) break;
  }
  const double front_cf = std::exp(log_front) * f / a;
  return flip ? 1.0 - front_cf : front_cf;
}

/// Harrell-Davis estimate of the q-quantile (q in (0, 1)): every order
/// statistic weighted by the Beta((n+1)q, (n+1)(1-q)) mass of its rank
/// interval; 0 when empty. Latency mixes hold each query template an exact
/// number of times, so q often lands on the edge between two templates,
/// where any single order statistic is the extreme of one template and the
/// noisiest value in the run; this averages the ranks around q instead.
inline double HdQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto = RegularizedBeta(static_cast<double>(i + 1) / n, a, b);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything one run reports: named metrics with units, exact counts that
/// must repeat for a seed, descriptive facts, and the correctness tally.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, uint64_t> counts;
  std::map<std::string, std::string> facts;  // values are JSON literals
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void FactText(const std::string& name, const std::string& value) {
    facts[name] = "\"" + JsonEscape(value) + "\"";
  }
  void FactNumber(const std::string& name, double value) {
    facts[name] = JsonNumber(value);
  }
  void Fail(const std::string& message) {
    errors.push_back(message);
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  }

  std::string ToJson() const {
    std::string out = "{\"correct\": ";
    out += (failed == 0 && errors.empty()) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(name) + "\": {\"value\": " +
             JsonNumber(value.first) + ", \"unit\": \"" +
             JsonEscape(value.second) + "\"}";
    }
    out += "}, \"counts\": {";
    first = true;
    for (const auto& [name, value] : counts) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(name) + "\": " + std::to_string(value);
    }
    out += "}, \"facts\": {";
    first = true;
    for (const auto& [name, value] : facts) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(name) + "\": " + value;
    }
    out += "}, \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + JsonEscape(errors[i]) + "\"";
    }
    out += "]}";
    return out;
  }
};

/// In-memory span recorder. Spans wrap the benchmark's calls into one layer's
/// public functions; a span opened while another is open on the same
/// thread becomes its child, and spans of one request share its id.
/// Recording is off unless the run is traced; when off, a span costs one
/// relaxed flag check.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t request = 0;
    const char* layer = "";
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span; returns its id (0 when recording is off). A root span
  /// starts a new request; a child joins its parent's.
  uint64_t Open(const char* layer, std::string name) {
    if (!enabled_.load(std::memory_order_relaxed)) return 0;
    Span span;
    span.layer = layer;
    span.name = std::move(name);
    span.parent = current_;
    span.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    span.request =
        span.parent == 0 ? ++requests_ : spans_[span.parent - 1].request;
    spans_.push_back(std::move(span));
    current_ = spans_.back().id;
    return current_;
  }

  void Close(uint64_t id) {
    if (id == 0) return;
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[id - 1];
    span.end_ns = end;
    current_ = span.parent;
  }

  /// Sum over each layer's spans of (duration minus the union of its
  /// children's intervals), in milliseconds.
  std::map<std::string, double> SelfTimesMs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size() + 1);
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      auto& kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [start, end] : kids) {
        const int64_t lo = std::max(start, cursor);
        const int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      self[s.layer] +=
          static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
    }
    return self;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Writes one JSON object per span (chrome-trace-like fields).
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"layer\": \"%s\", \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.layer,
                   JsonEscape(s.name).c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t requests_ = 0;
  /// Innermost open span of the calling thread.
  static thread_local uint64_t current_;
};

inline thread_local uint64_t SpanRecorder::current_ = 0;

SpanRecorder& Tracer();

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name)
      : id_(Tracer().Open(layer, std::move(name))) {}
  ~ScopedSpan() { Tracer().Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // MAXSON_PERFBENCH_BENCH_COMMON_H_
