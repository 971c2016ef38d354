// Per-interval aggregation of a time-stamped value stream.
//
// The paper measures class slowdown "for every thousand time units"; this
// class rolls observations into fixed-length windows and keeps one summary
// per window so percentile statistics over windows (Figs. 5, 6) and
// short-timescale traces (Figs. 7, 8) can be computed afterwards.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

struct IntervalStat {
  Time start = 0.0;       ///< Window start time.
  std::uint64_t count = 0;
  double mean = 0.0;      ///< Mean of observations in the window.
  double max = 0.0;
};

/// Count-weighted index-wise merge of one window series into an
/// accumulator rolling the same (origin, window) grid: start times are
/// taken from the source even for empty windows (downstream settle-time
/// classification files windows by start, and a defaulted 0 would read as
/// pre-onset), means combine by incremental count weighting, maxes by max.
/// Shared by the simulator's cross-node and the rt runtime's cross-shard
/// aggregation so their pairing rules cannot drift apart.
void merge_windows_into(std::vector<IntervalStat>& dst,
                        const std::vector<IntervalStat>& src);

/// Accumulates (time, value) observations into consecutive fixed windows.
/// Observations must arrive in non-decreasing time order.
class IntervalSeries {
 public:
  IntervalSeries(Time origin, Duration window);

  /// Inline: called per completion; only a window crossing leaves the
  /// fast path.
  void add(Time t, double value) {
    PSD_CHECK(!finalized_, "add() after finalize()");
    if (t < current_start_) t = current_start_;  // clamp clock jitter
    if (t >= current_start_ + window_) roll_to(t);
    ++current_count_;
    current_sum_ += value;
    current_max_ = std::max(current_max_, value);
  }

  /// Close the currently open window (call once at end of run).
  void finalize();

  /// All completed windows, including empty ones (count == 0, mean == NaN
  /// is avoided: empty windows carry mean 0 and count 0 — callers filter on
  /// count).
  const std::vector<IntervalStat>& windows() const { return windows_; }

  Duration window_length() const { return window_; }

 private:
  void roll_to(Time t);

  Time origin_;
  Duration window_;
  Time current_start_;
  std::uint64_t current_count_ = 0;
  double current_sum_ = 0.0;
  double current_max_ = 0.0;
  bool finalized_ = false;
  std::vector<IntervalStat> windows_;
};

}  // namespace psd
