// Shared plumbing of the benchmark harness: clocks, order statistics, the
// metric sheet the run prints, and the in-memory span recorder of the traced
// run.  Everything here is harness-side; the library is only ever reached
// through its public headers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace pb {

/// Monotonic wall time in seconds.
inline double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Monotonic wall time in nanoseconds (span timestamps).
inline std::uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU seconds consumed by every thread of this process so far.
inline double process_cpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of this process, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Linear-interpolated quantile of an unsorted sample (copy sorted).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The metric sheet of one run, printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  /// {"name": {"value": v, "unit": "u"}, ...}; %.17g keeps every digit.
  std::string json() const {
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += "\"" + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// One traced interval.  `parent` is the id of the enclosing span (0 =
/// root); `req` is the request id shared by one request's spans (0 when the
/// span covers many requests).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store of the traced run, written out once at the end.
/// Bounded: past `cap` spans it keeps counting but stops storing, so a long
/// run cannot grow without limit (the count of lost spans is written too).
class Tracer {
 public:
  explicit Tracer(std::size_t cap = 1 << 18) : cap_(cap) {
    spans_.reserve(cap);
  }

  std::uint64_t next_id() { return ++last_id_; }

  void add(const Span& s) {
    if (spans_.size() < cap_) spans_.push_back(s);
    else ++lost_;
  }

  std::size_t size() const { return spans_.size(); }

  /// JSON-lines file: one header line, then one line per span.
  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"schema\": \"psd.perfbench.spans.v1\", %s, "
                 "\"spans\": %zu, \"lost\": %llu}\n",
                 header.c_str(), spans_.size(),
                 static_cast<unsigned long long>(lost_));
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"req\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
  std::uint64_t lost_ = 0;
};

/// What one workload run hands back to main().
struct RunOutcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness checks, one line each; empty = correct.
  std::vector<std::string> failures;
  /// FNV-1a over the deterministic phase's result bytes (the
  /// bit-identity probe of the harness's own tests).
  std::uint64_t det_digest = 0;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

RunOutcome run_serve(const RunArgs& args);
RunOutcome run_sim(const RunArgs& args);

}  // namespace pb
