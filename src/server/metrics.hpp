// Measurement pipeline for one simulation run.
//
// Collects, per class and after a warmup cutoff:
//   * whole-run slowdown / delay / service-time moments,
//   * per-window mean slowdowns (the paper measures every 1000 time units;
//     Figs. 5-6 build percentiles over these windows),
//   * optionally, individual request records inside a time range
//     (Figs. 7-8 plot single requests in [60000, 61000)).
// The "system slowdown" is the completed-request-weighted mean over classes.
#pragma once

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "stats/interval_series.hpp"
#include "stats/online.hpp"
#include "workload/request.hpp"

namespace psd {

struct MetricsConfig {
  std::size_t num_classes = 2;
  Time warmup_end = 0.0;     ///< Completions before this are ignored.
  Duration window = 1000.0;  ///< Per-window series length (raw time).
  bool record_requests = false;
  Time record_from = 0.0;
  Time record_to = 0.0;
};

/// Count + sum accumulator: the only statistic the run pipeline reads from
/// whole-run metrics is the mean, so the per-completion cost is one add
/// instead of a full Welford update (which pays a divide per sample).
struct MeanStat {
  std::uint64_t n = 0;
  double sum = 0.0;

  void add(double x) {
    ++n;
    sum += x;
  }
  std::uint64_t count() const { return n; }
  double mean() const { return n ? sum / static_cast<double>(n) : kNaN; }
};

class MetricsCollector {
 public:
  explicit MetricsCollector(const MetricsConfig& cfg);

  /// Inline: the rt shard's completion burst calls this per request.
  void on_complete(const Request& req) {
    PSD_REQUIRE(req.cls < slowdown_.size(), "class id out of range");
    PSD_CHECK(req.completed(), "on_complete with incomplete request");
    if (req.departure < cfg_.warmup_end) return;
    const double sd = req.slowdown();
    slowdown_[req.cls].add(sd);
    delay_[req.cls].add(req.delay());
    service_[req.cls].add(req.service_elapsed);
    series_[req.cls].add(req.departure, sd);
    if (cfg_.record_requests && req.departure >= cfg_.record_from &&
        req.departure < cfg_.record_to) {
      records_.push_back(req);
    }
  }

  /// Close open windows; call once when the run ends.
  void finalize();

  // --- whole-run statistics (post-warmup) ---
  const MeanStat& slowdown(ClassId cls) const { return slowdown_[cls]; }
  const MeanStat& delay(ClassId cls) const { return delay_[cls]; }
  const MeanStat& service(ClassId cls) const { return service_[cls]; }
  std::uint64_t completed(ClassId cls) const { return slowdown_[cls].count(); }
  std::uint64_t completed_total() const;

  /// Completed-weighted mean slowdown across classes.
  double system_slowdown() const;

  // --- per-window series ---
  const std::vector<IntervalStat>& windows(ClassId cls) const {
    return series_[cls].windows();
  }

  /// Mean slowdown of the most recent *closed* window per class (NaN where a
  /// class completed nothing); feeds adaptive allocators.
  std::vector<double> last_window_slowdowns() const;

  // --- per-request records (optional) ---
  const std::vector<Request>& records() const { return records_; }

  std::size_t num_classes() const { return slowdown_.size(); }

 private:
  MetricsConfig cfg_;
  std::vector<MeanStat> slowdown_;
  std::vector<MeanStat> delay_;
  std::vector<MeanStat> service_;
  std::vector<IntervalSeries> series_;
  std::vector<Request> records_;
};

}  // namespace psd
