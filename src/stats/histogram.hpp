// Fixed-layout histogram with quantile queries.
//
// LogHistogram matches the dynamic range of slowdown data (the paper plots
// slowdowns on log axes spanning 1..1000).
#pragma once

#include <cstdint>
#include <vector>

namespace psd {

/// Histogram with logarithmically spaced bins between lo and hi, plus
/// underflow/overflow bins.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bins_per_decade = 20);

  void add(double x);

  /// Hot-path add for the rt telemetry fill: identical semantics to add()
  /// except the bin index comes from fast_log2 (common/math.hpp) instead
  /// of std::log10 — roughly 5x cheaper per sample.  The approximation
  /// error (~3e-6 decades) is orders of magnitude below any bin width, so
  /// only a sample within a hair of a boundary can land one bin over
  /// relative to add(); still a deterministic pure function of x.
  void add_fast(double x);

  std::uint64_t count() const { return total_; }

  /// Fold `other` into this histogram.  Both must have the identical bin
  /// layout (same lo/hi/bins_per_decade construction) — the per-shard ->
  /// per-class report fold in src/rt relies on element-wise addition being
  /// exact, so a layout mismatch is a programming error, not a resample.
  void merge(const LogHistogram& other);

  /// Linear-in-log interpolated quantile; NaN when empty.
  double quantile(double q) const;

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  double bin_lower(std::size_t i) const;

 private:
  double lo_, log_lo_, log_step_;
  /// add_fast's bin map precomputed as one multiply-subtract:
  /// pos = log2(x) * fast_scale_ - fast_offset_ (division-free).
  double fast_scale_ = 0.0, fast_offset_ = 0.0;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
  double min_seen_, max_seen_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace psd
