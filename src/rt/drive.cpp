#include "rt/drive.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "rt/loadgen.hpp"
#include "rt/shard.hpp"

#ifdef __linux__
#include <pthread.h>
#endif

namespace psd::rt {

namespace {

/// Sleep toward `dt` seconds ahead, at most 1 ms so a stop is seen soon.
void nap(double dt) {
  if (dt > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(dt, 1e-3)));
  }
}

/// Best-effort affinity pin of the calling thread (Linux only).
void pin_current_thread(unsigned cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

template <typename Step>
void ThreadGroup::spawn(int cpu, Step step) {
  threads_.emplace_back([this, cpu, step = std::move(step)]() mutable {
    if (cpu >= 0) pin_current_thread(static_cast<unsigned>(cpu));
    try {
      while (!stop_.load(std::memory_order_acquire)) step();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_m_);
      if (error_ == nullptr) error_ = std::current_exception();
      stop_.store(true, std::memory_order_release);
    }
  });
}

void ThreadGroup::drain(Shard& shard, int cpu) {
  spawn(cpu, [&shard, clock = clock_] {
    if (shard.drain(clock->now()) == 0) {
      // Nothing arrived: yield the core instead of spinning.  Latency this
      // adds lands in mean_ingress_wait, never in slowdowns (the embedded
      // simulator timestamps are exact).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
}

void ThreadGroup::spin(LoadSource& source, int cpu) {
  spawn(cpu, [&source, clock = clock_] {
    source.step_until(clock->now());
    nap(source.next_time() - clock->now());
  });
}

void ThreadGroup::every(Duration period, std::function<void(Time)> fn,
                        int cpu) {
  spawn(cpu, [clock = clock_, next = period, period,
              fn = std::move(fn)]() mutable {
    const Time now = clock->now();
    if (now >= next) {
      fn(now);
      next = now + period;
    }
    nap(next - clock->now());
  });
}

void ThreadGroup::join() {
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ThreadGroup::stop() {
  join();
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

void wait_until(const ClockVariant& clock, Time t) {
  for (Time now = clock.now(); now < t; now = clock.now()) nap(t - now);
}

void drain_grace(const ClockVariant& clock,
                 const std::function<bool()>& busy) {
  const Time end = clock.now() + 2.0;
  while (clock.now() < end && busy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace psd::rt
