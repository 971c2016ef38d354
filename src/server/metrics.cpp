#include "server/metrics.hpp"

#include "common/error.hpp"

namespace psd {

MetricsCollector::MetricsCollector(const MetricsConfig& cfg) : cfg_(cfg) {
  PSD_REQUIRE(cfg.num_classes > 0, "need at least one class");
  slowdown_.resize(cfg.num_classes);
  delay_.resize(cfg.num_classes);
  service_.resize(cfg.num_classes);
  series_.reserve(cfg.num_classes);
  for (std::size_t i = 0; i < cfg.num_classes; ++i) {
    series_.emplace_back(cfg.warmup_end, cfg.window);
  }
}

void MetricsCollector::finalize() {
  for (auto& s : series_) s.finalize();
}

std::uint64_t MetricsCollector::completed_total() const {
  std::uint64_t n = 0;
  for (const auto& m : slowdown_) n += m.count();
  return n;
}

double MetricsCollector::system_slowdown() const {
  WeightedMean wm;
  for (const auto& m : slowdown_) {
    if (m.count() > 0) wm.add(m.mean(), static_cast<double>(m.count()));
  }
  return wm.mean();
}

std::vector<double> MetricsCollector::last_window_slowdowns() const {
  std::vector<double> out(slowdown_.size(), kNaN);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const auto& w = series_[i].windows();
    if (!w.empty() && w.back().count > 0) out[i] = w.back().mean;
  }
  return out;
}

}  // namespace psd
