// The composed Internet-server model of paper Fig. 1: waiting queues + task
// servers (a scheduling backend) + load estimator + rate allocator + metrics.
//
// Control loop: every `realloc_period` the estimator window closes, the
// allocator maps the lambda estimates to fresh per-class rates, and the
// backend re-scales in-flight service accordingly — exactly the paper's
// "the processing rate was reallocated for every thousand time units".
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "admission/admission.hpp"
#include "server/allocator.hpp"
#include "server/load_estimator.hpp"
#include "server/metrics.hpp"
#include "sched/backend.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "workload/sink.hpp"

namespace psd {

struct ServerConfig {
  std::size_t num_classes = 2;
  double capacity = 1.0;
  Duration realloc_period = 0.0;   ///< 0 disables periodic reallocation.
  std::size_t estimator_history = 5;
  MetricsConfig metrics;
  /// Initial rates before the first reallocation; empty = equal split.
  std::vector<double> initial_rates;
};

class Server final : public RequestSink {
 public:
  /// Takes ownership of the backend and allocator.  `allocator` may be null
  /// when realloc_period == 0 (fixed initial rates forever).
  Server(Simulator& sim, const ServerConfig& cfg,
         std::unique_ptr<SchedulerBackend> backend,
         std::unique_ptr<RateAllocator> allocator, Rng rng);

  /// Optional pre-queue admission gate; decisions latch per estimation
  /// window.  Null (default) admits everything.
  void set_admission(std::unique_ptr<AdmissionController> admission);

  /// Optional observer invoked after metrics for every completion (e.g. a
  /// cluster dispatcher tracking outstanding work per node).
  void set_completion_observer(std::function<void(const Request&)> observer);

  /// Begin the reallocation loop (first tick one period after `origin`).
  void start(Time origin);

  /// Externally install absolute per-class rates (sum <= capacity): the
  /// transition realloc_tick performs internally, for callers that decide
  /// rates outside the simulation.
  void set_rates(const std::vector<double>& rates);

  // RequestSink: entry point for generators / trace players.
  void submit(const Request& req) override;

  /// Flush window series at end of run.
  void finalize();

  const MetricsCollector& metrics() const { return metrics_; }
  MetricsCollector& metrics() { return metrics_; }
  const std::vector<double>& current_rates() const { return rates_; }
  /// Estimator over ADMITTED load (feeds the rate allocator).  Only
  /// populated while periodic reallocation is enabled (realloc_period > 0);
  /// otherwise nothing rolls it, so the per-arrival update is skipped.
  const LoadEstimator& estimator() const { return estimator_; }
  /// Estimator over OFFERED load including rejected requests (feeds the
  /// admission gate, so shedding decisions see true demand).  Only populated
  /// while an admission controller is installed; without one it would just
  /// duplicate estimator(), so the per-arrival update is skipped.
  const LoadEstimator& offered_estimator() const { return offered_; }
  const SchedulerBackend& backend() const { return *backend_; }
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t reallocations() const { return reallocs_; }
  std::uint64_t rejected(ClassId cls) const { return rejected_[cls]; }
  std::uint64_t rejected_total() const;
  /// Per-class offered arrivals (admitted + rejected).  Counted only while
  /// an admission controller is installed (0 otherwise) — shed-rate
  /// denominators, same gating as offered_estimator().
  std::uint64_t offered(ClassId cls) const { return offered_count_[cls]; }

 private:
  void realloc_tick(Time now);

  Simulator& sim_;
  ServerConfig cfg_;
  std::vector<WaitingQueue> queues_;
  std::unique_ptr<SchedulerBackend> backend_;
  std::unique_ptr<RateAllocator> allocator_;
  std::unique_ptr<AdmissionController> admission_;
  std::function<void(const Request&)> observer_;
  std::vector<std::uint64_t> rejected_;
  std::vector<std::uint64_t> offered_count_;
  LoadEstimator estimator_;
  LoadEstimator offered_;
  MetricsCollector metrics_;
  std::unique_ptr<PeriodicProcess> realloc_;
  std::vector<double> rates_;
  std::uint64_t submitted_ = 0;
  std::uint64_t reallocs_ = 0;
};

}  // namespace psd
