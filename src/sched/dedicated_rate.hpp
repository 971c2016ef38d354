// The paper's task-server model: each class owns a private fluid server of
// rate r_i.  Strict partition — idle capacity of one class is NOT lent to
// another (non-work-conserving), exactly matching the M/G_B/1-per-class
// analysis of Theorem 1.
//
// Rate changes take effect immediately: the in-service request's remaining
// work is settled at the old rate and its completion is rescheduled at the
// new rate (RateChangePolicy::kRescaleRemaining, default).  The alternative
// kFinishAtOldRate lets the current request finish untouched, applying the
// new rate from the next request on.
#pragma once

#include "sched/backend.hpp"

namespace psd {

enum class RateChangePolicy { kRescaleRemaining, kFinishAtOldRate };

class DedicatedRateBackend final : public SchedulerBackend {
 public:
  explicit DedicatedRateBackend(
      RateChangePolicy policy = RateChangePolicy::kRescaleRemaining);

  void attach(Simulator& sim, std::vector<WaitingQueue>& queues,
              double capacity, Rng rng, CompletionFn on_complete) override;
  void set_rates(const std::vector<double>& rates) override;
  void notify_arrival(ClassId cls) override;
  std::string name() const override { return "dedicated-rate"; }
  std::size_t in_service() const override;

 private:
  struct Slot {
    bool busy = false;
    Request current;
    Work remaining = 0.0;     ///< Work left at full capacity units.
    Time last_settle = 0.0;   ///< Last time `remaining` was updated.
    Time completion_at = kInf;  ///< Scheduled completion time of `current`.
    /// Per-class completion timeline.  A class has at most one pending
    /// completion, so it rides a simulator stream: rate changes move the
    /// stream's fire time in O(1) instead of cancelling and rescheduling
    /// through the event heap.
    Simulator::StreamId stream = Simulator::kNoStream;
  };

  void start_service(ClassId cls);
  void settle(ClassId cls);
  void schedule_completion(ClassId cls);
  /// Stream callback: completes the in-service request and returns the next
  /// completion time for the class (kInf when it goes idle).
  Time complete(ClassId cls);

  RateChangePolicy policy_;
  Simulator* sim_ = nullptr;
  std::vector<WaitingQueue>* queues_ = nullptr;
  CompletionFn on_complete_;
  std::vector<double> rates_;
  std::vector<double> pending_rates_;  ///< kFinishAtOldRate: rates to adopt.
  std::vector<Slot> slots_;
};

}  // namespace psd
