#include "sched/dedicated_rate.hpp"

#include "common/error.hpp"
#include "sched/dedicated_class.hpp"

namespace psd {

DedicatedRateBackend::DedicatedRateBackend(RateChangePolicy policy)
    : policy_(policy) {}

void DedicatedRateBackend::attach(Simulator& sim,
                                  std::vector<WaitingQueue>& queues,
                                  double capacity, Rng /*rng*/,
                                  CompletionFn on_complete) {
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  sim_ = &sim;
  queues_ = &queues;
  on_complete_ = std::move(on_complete);
  const std::size_t n = queues.size();
  slots_.resize(n);
  // Until the allocator runs, split capacity evenly.
  rates_.assign(n, capacity / static_cast<double>(n));
  // One completion stream per class, idle until service starts.  Rank 1:
  // at equal times, generator arrival streams (rank 0) fire first, matching
  // the legacy schedule order of arrival-before-completion.
  for (ClassId cls = 0; cls < n; ++cls) {
    slots_[cls].stream = sim.add_stream(
        kInf, [this, cls](Time) { return complete(cls); }, /*tie_rank=*/1);
  }
}

std::size_t DedicatedRateBackend::in_service() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.busy ? 1 : 0;
  return n;
}

void DedicatedRateBackend::settle(ClassId cls) {
  Slot& s = slots_[cls];
  if (!s.busy) return;
  settle_remaining(s.remaining, s.last_settle, rates_[cls], sim_->now());
}

void DedicatedRateBackend::schedule_completion(ClassId cls) {
  Slot& s = slots_[cls];
  s.completion_at = completion_time(sim_->now(), s.remaining, rates_[cls]);
  sim_->set_stream_time(s.stream, s.completion_at);
}

void DedicatedRateBackend::set_rates(const std::vector<double>& rates) {
  PSD_REQUIRE(rates.size() == rates_.size(), "rate vector size mismatch");
  if (policy_ == RateChangePolicy::kFinishAtOldRate) {
    // Idle classes adopt the new rate now; busy classes keep their current
    // completion event and pick up the new rate at their next completion.
    pending_rates_ = rates;
    for (ClassId cls = 0; cls < rates.size(); ++cls) {
      if (!slots_[cls].busy) rates_[cls] = rates[cls];
    }
    return;
  }
  for (ClassId cls = 0; cls < rates.size(); ++cls) {
    settle(cls);
    rates_[cls] = rates[cls];
    if (slots_[cls].busy) schedule_completion(cls);  // moves the stream, O(1)
  }
}

void DedicatedRateBackend::notify_arrival(ClassId cls) {
  if (!slots_[cls].busy) start_service(cls);
}

void DedicatedRateBackend::start_service(ClassId cls) {
  auto& q = (*queues_)[cls];
  if (q.empty()) return;
  Slot& s = slots_[cls];
  PSD_CHECK(!s.busy, "start_service on busy task server");
  const Time now = sim_->now();
  s.current = q.pop(now);
  s.current.service_start = now;
  s.remaining = s.current.size;
  s.last_settle = now;
  s.busy = true;
  schedule_completion(cls);
}

Time DedicatedRateBackend::complete(ClassId cls) {
  Slot& s = slots_[cls];
  PSD_CHECK(s.busy, "completion for idle task server");
  const Time now = sim_->now();
  Request done = std::move(s.current);
  done.departure = now;
  done.service_elapsed = now - done.service_start;
  s.busy = false;
  s.remaining = 0.0;
  s.completion_at = kInf;
  if (policy_ == RateChangePolicy::kFinishAtOldRate && !pending_rates_.empty()) {
    rates_[cls] = pending_rates_[cls];
  }
  on_complete_(std::move(done));
  start_service(cls);  // refreshes completion_at when the queue is non-empty
  return s.completion_at;
}

}  // namespace psd
