// The threaded drive shared by Runtime::run() and ClusterRuntime::run().
//
// A ThreadGroup owns threads that share one stop flag, each running one
// loop: a shard drain spin, a load-source spin or a paced tick.  stop() and
// the destructor join them, so no exit path leaves a joinable std::thread
// behind.  A step that throws stops its group, and stop() rethrows the
// exception to its caller.  The loops only decide WHEN drain/step_until/
// tick run; the ManualClock drive calls the same code on one thread
// (src/rt/README.md).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rt/clock.hpp"

namespace psd::rt {

class LoadSource;
class Shard;

class ThreadGroup {
 public:
  /// `clock` must outlive the group.
  explicit ThreadGroup(const ClockVariant& clock) : clock_(&clock) {}
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  /// Joins; a thread's exception not yet collected by stop() is dropped,
  /// which only happens while another exception unwinds the run.
  ~ThreadGroup() { join(); }

  // Each spawner starts one thread, affinity-pinned to `cpu` when it is
  // non-negative.

  /// Drain `shard` to the clock, yielding 100 us when nothing arrived.
  void drain(Shard& shard, int cpu = -1);
  /// Step `source` along the clock, sleeping toward its next arrival.
  void spin(LoadSource& source, int cpu = -1);
  /// Call fn(now) each time `period` has passed since the previous call
  /// (the first call at t = period).
  void every(Duration period, std::function<void(Time)> fn, int cpu = -1);

  /// Raise the stop flag and join every thread; idempotent.  Rethrows the
  /// first exception a thread's step threw.
  void stop();

 private:
  template <typename Step>
  void spawn(int cpu, Step step);
  void join();

  const ClockVariant* clock_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::mutex error_m_;
  std::exception_ptr error_;  ///< First exception a step threw.
};

/// Sleep until `clock` reads at least `t`.
void wait_until(const ClockVariant& clock, Time t);

/// The grace period after load stops: sleep while `busy()` (some
/// accepted request is outstanding) holds, for at most 2 s.  Bounded: a
/// near-zero-rate class paying off a token deficit may never finish.
void drain_grace(const ClockVariant& clock, const std::function<bool()>& busy);

}  // namespace psd::rt
