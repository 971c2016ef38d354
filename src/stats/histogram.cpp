#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/types.hpp"

namespace psd {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins_per_decade)
    : lo_(lo), min_seen_(kInf), max_seen_(-kInf) {
  PSD_REQUIRE(lo > 0.0 && hi > lo, "LogHistogram needs 0 < lo < hi");
  PSD_REQUIRE(bins_per_decade > 0, "bins_per_decade must be positive");
  log_lo_ = std::log10(lo);
  const double decades = std::log10(hi) - log_lo_;
  const auto bins = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(bins_per_decade)));
  log_step_ = decades / static_cast<double>(std::max<std::size_t>(bins, 1));
  constexpr double kLog10Of2 = 0.30102999566398119521;
  fast_scale_ = kLog10Of2 / log_step_;
  fast_offset_ = log_lo_ / log_step_;
  counts_.assign(std::max<std::size_t>(bins, 1), 0);
}

void LogHistogram::add(double x) {
  ++total_;
  min_seen_ = std::min(min_seen_, x);
  max_seen_ = std::max(max_seen_, x);
  if (!(x >= lo_)) {  // also catches NaN -> underflow
    ++underflow_;
    return;
  }
  const double pos = (std::log10(x) - log_lo_) / log_step_;
  if (pos >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(pos)];
}

void LogHistogram::add_fast(double x) {
  ++total_;
  min_seen_ = std::min(min_seen_, x);
  max_seen_ = std::max(max_seen_, x);
  if (!(x >= lo_)) {  // also catches NaN -> underflow
    ++underflow_;
    return;
  }
  // log10(x) = log2(x) * log10(2); fast_log2's error is far below any bin
  // width (see the header note on add_fast).  The scale/offset pair bakes
  // the log10(2) factor and the division by log_step_ into the constructor.
  const double pos = fast_log2(x) * fast_scale_ - fast_offset_;
  if (pos >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  // x >= lo_ held above, but the approximation can put a boundary sample an
  // epsilon below bin 0 — clamp instead of casting a negative double.
  ++counts_[pos > 0.0 ? static_cast<std::size_t>(pos) : 0];
}

void LogHistogram::merge(const LogHistogram& other) {
  PSD_REQUIRE(lo_ == other.lo_ && log_step_ == other.log_step_ &&
                  counts_.size() == other.counts_.size(),
              "LogHistogram::merge requires an identical bin layout");
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  min_seen_ = std::min(min_seen_, other.min_seen_);
  max_seen_ = std::max(max_seen_, other.max_seen_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

double LogHistogram::bin_lower(std::size_t i) const {
  return std::pow(10.0, log_lo_ + log_step_ * static_cast<double>(i));
}

double LogHistogram::quantile(double q) const {
  PSD_REQUIRE(q >= 0.0 && q <= 1.0, "quantile in [0,1]");
  if (total_ == 0) return kNaN;
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return min_seen_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      const double lo_log = log_lo_ + log_step_ * static_cast<double>(i);
      return std::pow(10.0, lo_log + frac * log_step_);
    }
    cum = next;
  }
  return max_seen_;
}

}  // namespace psd
