#include "server/load_estimator.hpp"

#include "common/error.hpp"

namespace psd {

LoadEstimator::LoadEstimator(std::size_t num_classes, Duration window,
                             std::size_t history)
    : n_(num_classes), window_(window), history_(history) {
  PSD_REQUIRE(num_classes > 0, "need at least one class");
  PSD_REQUIRE(window > 0.0, "window length must be positive");
  PSD_REQUIRE(history > 0, "history must be at least one window");
  cur_arrivals_.assign(n_, 0);
  cur_work_.assign(n_, 0.0);
}

void LoadEstimator::roll(Time now) {
  const Duration len = now - window_start_;
  PSD_REQUIRE(len > 0.0, "roll() before any time elapsed");
  WindowCounters w;
  w.arrivals = cur_arrivals_;
  w.work = cur_work_;
  w.length = len;
  closed_.push_back(std::move(w));
  ++total_closed_;
  while (closed_.size() > history_) closed_.pop_front();
  cur_arrivals_.assign(n_, 0);
  cur_work_.assign(n_, 0.0);
  window_start_ = now;
}

std::vector<double> LoadEstimator::lambda_estimate() const {
  std::vector<double> est(n_, 0.0);
  if (closed_.empty()) return est;
  Duration total_time = 0.0;
  std::vector<double> counts(n_, 0.0);
  for (const auto& w : closed_) {
    total_time += w.length;
    for (std::size_t i = 0; i < n_; ++i) {
      counts[i] += static_cast<double>(w.arrivals[i]);
    }
  }
  for (std::size_t i = 0; i < n_; ++i) est[i] = counts[i] / total_time;
  return est;
}

std::vector<double> LoadEstimator::work_rate_estimate() const {
  std::vector<double> est(n_, 0.0);
  if (closed_.empty()) return est;
  Duration total_time = 0.0;
  std::vector<double> work(n_, 0.0);
  for (const auto& w : closed_) {
    total_time += w.length;
    for (std::size_t i = 0; i < n_; ++i) work[i] += w.work[i];
  }
  for (std::size_t i = 0; i < n_; ++i) est[i] = work[i] / total_time;
  return est;
}

}  // namespace psd
