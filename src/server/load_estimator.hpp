// Windowed per-class load estimation (paper §4.1):
//   "The load estimator measured the arrival rate and the incurred load for
//    every class. ... the load for next thousand time units was the average
//    load in past five thousand time units."
//
// Windows have fixed length; at each roll the counters of the closing window
// are archived and the estimate becomes the mean over the last `history`
// archived windows.  Both count-based (arrivals/time) and work-based
// (arrived work/time) estimates are exposed; eq. 17 consumes the count-based
// lambda estimate together with the known E[X].
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd {

class LoadEstimator {
 public:
  LoadEstimator(std::size_t num_classes, Duration window,
                std::size_t history = 5);

  void on_arrival(ClassId cls, Work size) { on_arrivals(cls, 1, size); }

  /// `count` arrivals of `work` units in total (a burst at once).
  void on_arrivals(ClassId cls, std::uint64_t count, Work work) {
    PSD_REQUIRE(cls < n_, "class id out of range");
    cur_arrivals_[cls] += count;
    cur_work_[cls] += work;
  }

  /// Close the current window at time `now` (its start is tracked
  /// internally); call at every window boundary.
  void roll(Time now);

  /// Estimated arrival rate per class: mean of the last `history` closed
  /// windows.  Zero for classes with no observed arrivals; empty history
  /// (cold start) yields all-zeros.
  std::vector<double> lambda_estimate() const;

  /// Estimated work arrival rate per class (utilization demand given
  /// capacity 1).
  std::vector<double> work_rate_estimate() const;

  bool warm() const { return !closed_.empty(); }
  std::size_t windows_closed() const { return total_closed_; }
  Duration window_length() const { return window_; }

 private:
  struct WindowCounters {
    std::vector<std::uint64_t> arrivals;
    std::vector<double> work;
    Duration length = 0.0;
  };

  std::size_t n_;
  Duration window_;
  std::size_t history_;
  Time window_start_ = 0.0;
  std::vector<std::uint64_t> cur_arrivals_;
  std::vector<double> cur_work_;
  std::deque<WindowCounters> closed_;
  std::size_t total_closed_ = 0;
};

}  // namespace psd
