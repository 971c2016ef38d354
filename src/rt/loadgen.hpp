// Open-loop load sources for the serving runtime.
//
// A LoadSource produces every arrival with timestamp <= t when asked to
// step_until(t) — the threaded drive calls it with the advancing wall
// clock (sleeping toward next_time() between calls), the deterministic
// drive calls it with a ManualClock time.  Every arrival goes to the
// source's Sink; a full shard ring counts a drop and the source moves on
// (open loop: overload never throttles the arrival process).
//
//   * SyntheticLoadGen — per-class ArrivalVariant + SamplerVariant streams,
//     the same sealed value types the simulator's RequestGenerator uses.
//     When several generator threads carry one class, each runs the class's
//     Poisson process at rate/num_gens (superposition of independent
//     Poisson streams is Poisson at the summed rate).
//   * TraceLoadGen — replays a recorded arrival trace (workload/trace) at a
//     configurable time scale, so a trace captured from the simulator can
//     drive the rt stack bit-for-bit (same classes, same sizes, same
//     relative spacing).
//
// The sink decides where a request lands.  A Runtime gives each source its
// own RuntimeHandle::submit spray — round-robin per class across the shard
// set, which keeps per-shard class mixes aligned with the global mix (the
// controller's equal-slice assumption).  The cluster gives its sources the
// dispatcher, which interposes the assignment policy between the generators
// and the nodes without the sources knowing about clusters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "dist/sampler.hpp"
#include "workload/arrival.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace psd::rt {

class LoadSource {
 public:
  /// Arrival consumer, called on the source's thread for every produced
  /// request.
  using Sink = std::function<void(const Request&)>;

  explicit LoadSource(Sink sink) : sink_(std::move(sink)) {
    PSD_REQUIRE(sink_ != nullptr, "load source needs a sink");
  }
  virtual ~LoadSource() = default;

  /// Produce (and route) every arrival with timestamp <= t.
  virtual void step_until(Time t) = 0;

  /// Timestamp of the next pending arrival; kInf when exhausted.
  virtual Time next_time() const = 0;

  std::uint64_t produced() const {
    return produced_.load(std::memory_order_relaxed);
  }

 protected:
  /// Drops are counted where they happen (Shard::submit), not here.
  void route(const Request& req) {
    // Single writer (the source's thread): a plain load + store, no RMW.
    produced_.store(produced_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    sink_(req);
  }

 private:
  std::atomic<std::uint64_t> produced_{0};
  Sink sink_;
};

class SyntheticLoadGen final : public LoadSource {
 public:
  struct ClassLoad {
    ClassId cls = 0;
    ArrivalVariant arrivals;
    SamplerVariant sizes;
  };

  /// `gen_id` namespaces request ids across generator threads.
  SyntheticLoadGen(std::uint32_t gen_id, Rng rng,
                   std::vector<ClassLoad> classes, Sink sink, Time start);

  void step_until(Time t) override;
  Time next_time() const override;

 private:
  struct Stream : ClassLoad {
    Time next = 0.0;
  };

  Rng rng_;
  std::vector<Stream> streams_;
  std::uint64_t count_ = 0;
  std::uint64_t id_base_;
};

class TraceLoadGen final : public LoadSource {
 public:
  /// Entry times are multiplied by `time_scale` (a simulator trace recorded
  /// in raw model time replays at mean_service_seconds / E[X]); entries must
  /// be time-ordered with classes < num_classes.
  TraceLoadGen(Trace trace, double time_scale, std::size_t num_classes,
               Sink sink);

  void step_until(Time t) override;
  Time next_time() const override;

 private:
  Trace trace_;
  double scale_;
  std::size_t idx_ = 0;
  Time base_ = 0.0;  ///< First entry's recorded time (replay is relative).
};

}  // namespace psd::rt
