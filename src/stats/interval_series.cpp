#include "stats/interval_series.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psd {

IntervalSeries::IntervalSeries(Time origin, Duration window)
    : origin_(origin), window_(window), current_start_(origin) {
  PSD_REQUIRE(window > 0.0, "window length must be positive");
}

void IntervalSeries::roll_to(Time t) {
  while (t >= current_start_ + window_) {
    IntervalStat s;
    s.start = current_start_;
    s.count = current_count_;
    s.mean = current_count_ ? current_sum_ / static_cast<double>(current_count_)
                            : 0.0;
    s.max = current_count_ ? current_max_ : 0.0;
    windows_.push_back(s);
    current_start_ += window_;
    current_count_ = 0;
    current_sum_ = 0.0;
    current_max_ = 0.0;
  }
}

void merge_windows_into(std::vector<IntervalStat>& dst,
                        const std::vector<IntervalStat>& src) {
  if (dst.size() < src.size()) dst.resize(src.size());
  for (std::size_t w = 0; w < src.size(); ++w) {
    IntervalStat& d = dst[w];
    d.start = src[w].start;
    if (src[w].count == 0) continue;
    const std::uint64_t total = d.count + src[w].count;
    d.mean += (src[w].mean - d.mean) *
              (static_cast<double>(src[w].count) / static_cast<double>(total));
    d.max = std::max(d.max, src[w].max);
    d.count = total;
  }
}

void IntervalSeries::finalize() {
  if (finalized_) return;
  if (current_count_ > 0) {
    IntervalStat s;
    s.start = current_start_;
    s.count = current_count_;
    s.mean = current_sum_ / static_cast<double>(current_count_);
    s.max = current_max_;
    windows_.push_back(s);
  }
  finalized_ = true;
}

}  // namespace psd
