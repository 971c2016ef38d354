// The runtime's reallocation loop, lifted out of the simulated server and
// onto its own (wall-clock) cadence — the one rate controller of both the
// single-node Runtime and the multi-node ClusterRuntime.
//
// The controller steers a list of shard GROUPS, each with a weight: a
// Runtime is one group of weight 1.0; a cluster is one group per node,
// weighted by the router's work share.  Every tick it reads each live
// shard's seqlock snapshot — live LoadEstimator arrival rates plus
// last-window slowdowns — aggregates them into one view, re-runs the PSD
// rate allocator (eq. 17, or its adaptive feedback extension) against the
// live capacity, and hands group g's shards the slice rate * w[g] / shards.
// Slices within a group are equal because classes are sprayed round-robin
// across its shards, so per-shard class mixes converge to the group's mix.
// A group of weight 0 is dead: it neither feeds the estimates nor receives
// rates.
//
// tick() is plain and synchronous: the threaded drivers call it from a
// periodic thread, deterministic tests call it directly under a ManualClock.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/adaptive_psd.hpp"
#include "experiment/scenario.hpp"
#include "rt/shard.hpp"

namespace psd::rt {

struct ControllerConfig {
  AllocatorKind allocator = AllocatorKind::kAdaptivePsd;
  /// Allocator parameters; `capacity` is ONE group's summed shard capacity
  /// (work/sec) — the allocator runs at capacity x live groups.
  PsdAllocatorConfig psd;
  AdaptiveConfig adaptive;
  /// Shards carry admission gates: aggregate their OFFERED-load estimates
  /// each tick and stage a per-shard slice of them (shards call
  /// gate->update() on their own threads) once per estimation window.
  bool admission = false;
  /// Record a per-tick decision trace (obs layer); bounded ring below.
  bool trace = false;
  std::size_t trace_capacity = 512;
  /// Arm the tick/allocate self-profiling timers.
  bool profile = false;
};

/// One reallocation decision: everything the allocator saw and produced.
/// With these, convergence and rebalance transients replay offline — the
/// exporter streams the ring into the stats JSONL.
struct ControllerTraceEntry {
  double time = 0.0;
  std::uint64_t tick = 0;       ///< Monotone; doubles as the trace cursor.
  bool reallocated = false;     ///< False on cold-start ticks (no lambda).
  bool fresh_window = false;    ///< Slowdown feedback was integrated.
  std::uint32_t num_classes = 0;
  double lambda[kMaxRtClasses] = {};           ///< Aggregated arrivals/sec.
  double window_slowdown[kMaxRtClasses] = {};  ///< Cross-shard window mean.
  double rate_in[kMaxRtClasses] = {};          ///< Rates before allocate().
  double rate_out[kMaxRtClasses] = {};         ///< Rates after (== in when
                                               ///< not reallocated).
};

struct ControllerSnapshot {
  double time = 0.0;
  std::uint32_t num_classes = 0;
  std::uint32_t pad = 0;
  std::uint64_t ticks = 0;
  std::uint64_t allocations = 0;  ///< Ticks that produced new rates.
  double lambda[kMaxRtClasses] = {};  ///< Aggregated arrivals/sec estimate.
  double rate[kMaxRtClasses] = {};    ///< Current GLOBAL rates (all shards).
  double window_slowdown[kMaxRtClasses] = {};  ///< Cross-shard mean.
};

class Controller {
 public:
  /// `groups` of shards are borrowed and must outlive the controller;
  /// `weights` holds one weight per group (see set_weights).
  Controller(ControllerConfig cfg, std::vector<std::vector<Shard*>> groups,
             std::vector<double> weights);

  /// Aggregate estimates, reallocate, push rates to every live shard.
  /// Called from exactly one thread at a time.
  void tick(Time now);

  /// Re-weight the groups (weight 0 = dead) and rebuild the allocator at
  /// the live capacity: the adaptive integrator restarts from the
  /// stationary eq.-17 point.  Same thread as tick().
  void set_weights(std::vector<double> weights);

  /// Any thread.
  ControllerSnapshot snapshot() const { return snap_.read(); }

  /// Drain trace entries with tick > `*cursor` (any thread; the ring is
  /// mutex-guarded — tick() appends at ~20 Hz, readers poll slower).
  /// Advances `*cursor` to the newest tick returned.  Empty unless
  /// cfg.trace.
  std::vector<ControllerTraceEntry> trace_since(std::uint64_t* cursor) const;

  std::string allocator_name() const;

  obs::ProfTable& prof() { return prof_; }

 private:
  /// Per-shard slice of a global per-class vector for group `g`.
  std::vector<double> slice(const std::vector<double>& global,
                            std::size_t g) const;

  ControllerConfig cfg_;
  std::vector<std::vector<Shard*>> groups_;
  std::vector<double> weights_;
  std::unique_ptr<RateAllocator> allocator_;  ///< Null for kNone.
  /// Last window_seq seen, per group and (shard, class) — feedback from a
  /// class is integrated only when its metrics window genuinely advanced.
  std::vector<std::vector<std::uint64_t>> windows_seen_;
  /// Sum of live shards' estimator windows_closed at the last staged
  /// admission update — gate decisions latch per estimation window, not per
  /// tick.
  std::uint64_t admission_windows_seen_ = 0;
  std::vector<double> rates_;  ///< Global rates (all groups together).
  std::uint64_t ticks_ = 0;
  std::uint64_t allocations_ = 0;
  Seqlock<ControllerSnapshot> snap_;

  // Decision trace: bounded ring, oldest entries evicted.  A mutex (not a
  // seqlock) because the payload is a variable-length backlog and the
  // exchange is off every hot path.
  mutable std::mutex trace_m_;
  std::deque<ControllerTraceEntry> trace_;
  obs::ProfTable prof_;
};

}  // namespace psd::rt
