// Wall-clock abstraction for the real-time serving runtime.
//
// Everything in src/rt asks "what time is it" through a ClockVariant so the
// same shard/load-generator/controller code runs in two modes:
//
//   * SteadyClock — std::chrono::steady_clock mapped to double seconds since
//     construction.  Production mode: threads poll it concurrently.
//   * ManualClock — an atomic double advanced explicitly by a test (or by a
//     single-threaded driver).  Deterministic mode: no sleeps, no jitter;
//     Runtime::step_to drives every component on the calling thread.
//
// Sealed-variant idiom as in ArrivalVariant/SamplerVariant: no virtual
// dispatch on the now() hot path, value semantics, closed set.
//
// Time values are double seconds (Time/Duration aliases); the shards' task
// servers run on the SAME axis, which is what makes rt metrics immune to
// thread-scheduling noise — see src/rt/README.md.
#pragma once

#include <atomic>
#include <chrono>
#include <variant>

#include "common/error.hpp"
#include "common/types.hpp"

namespace psd::rt {

/// Monotone wall clock; seconds since construction.
class SteadyClock {
 public:
  SteadyClock() : origin_(std::chrono::steady_clock::now()) {}

  Time now() const {
    const auto d = std::chrono::steady_clock::now() - origin_;
    return std::chrono::duration<double>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
};

/// Explicitly advanced clock.  now() is safe from any thread; advancing is
/// the test driver's job (normally exactly one thread).
class ManualClock {
 public:
  ManualClock() = default;
  explicit ManualClock(Time start) : t_(start) {}

  // std::atomic is not copyable; the variant needs copies for value
  // semantics, so copy the observed value.
  ManualClock(const ManualClock& other)
      : t_(other.t_.load(std::memory_order_acquire)) {}
  ManualClock& operator=(const ManualClock& other) {
    t_.store(other.t_.load(std::memory_order_acquire),
             std::memory_order_release);
    return *this;
  }

  Time now() const { return t_.load(std::memory_order_acquire); }

  /// Move the clock forward to absolute time `t` (must not go backwards).
  void advance_to(Time t) {
    PSD_REQUIRE(t >= now(), "manual clock cannot go backwards");
    t_.store(t, std::memory_order_release);
  }

  void advance(Duration d) { advance_to(now() + d); }

 private:
  std::atomic<double> t_{0.0};
};

/// The sealed clock set.
class ClockVariant {
 public:
  using Alternatives = std::variant<SteadyClock, ManualClock>;

  template <typename C,
            typename = std::enable_if_t<
                std::is_constructible_v<Alternatives, C&&> &&
                !std::is_same_v<std::decay_t<C>, ClockVariant>>>
  ClockVariant(C&& clock) : alt_(std::forward<C>(clock)) {}

  Time now() const {
    return std::visit([](const auto& c) { return c.now(); }, alt_);
  }

  /// Non-null iff this is a ManualClock (the deterministic driver needs to
  /// advance it).
  ManualClock* manual() { return std::get_if<ManualClock>(&alt_); }
  const ManualClock* manual() const {
    return std::get_if<ManualClock>(&alt_);
  }

  bool is_manual() const { return manual() != nullptr; }

 private:
  Alternatives alt_;
};

}  // namespace psd::rt
