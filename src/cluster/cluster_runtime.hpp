// Cluster-scale serving: N in-process rt::Runtime "nodes" behind the shared
// assignment dispatcher, steered by one cluster-wide rt::Controller.
//
// This is the rt counterpart of the simulation Cluster (cluster/
// dispatcher.hpp), composed from the same parts the single-node runtime
// uses:
//
//   * each node is an EMBEDDED Runtime (rt/handle.hpp): its own shards,
//     seqlock snapshots, and a node controller pinned to AllocatorKind::
//     kNone — node ticks publish snapshots and stage admission updates but
//     never write rates, so the cluster controller is the single rate
//     writer;
//   * arrivals come from the runtime's own SyntheticLoadGen sources in sink
//     mode: every produced request lands in dispatch(), which runs the
//     AssignmentRouter (cluster/router.hpp — the identical policy
//     implementation the simulation validates) and submits to the chosen
//     node's handle;
//   * the cluster controller is the single-node rt::Controller (rt/
//     controller.hpp) over every node's shards, one shard group per node
//     weighted by the router's work weights (uniform for the symmetric
//     policies, band shares under SITA-E): it aggregates lambda estimates
//     and exactly-once window-slowdown feedback across every alive node,
//     allocates against the ALIVE cluster capacity, and hands each node
//     its weighted slice — holding per-class slowdown ratios cluster-wide,
//     not merely per node.
//
// Node failure is first-class: a kill (cfg.kill_at, either drive mode)
// flips the router's alive mask (dispatch skips the corpse), freezes the
// node's metrics, and re-weights the controller's groups — the dead node's
// weight drops to 0, so it leaves the estimates and the rate hand-out, and
// the allocator is rebuilt at the alive capacity — after which the cluster
// re-converges; the report measures how fast (settle time,
// stats/convergence.hpp).
//
// Like Runtime, the whole thing drives two ways: run() spawns shard/
// generator/controller threads on the wall clock (psdcluster) through the
// single-node runtime's thread groups (rt/drive.hpp), one group per node;
// step_to() advances everything deterministically under a ManualClock
// (tests; bitwise-identical reports at a fixed seed).  The report folds
// windows with the single-node fold (fold_windows) over every node's
// shards.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/router.hpp"
#include "obs/cluster_stats.hpp"
#include "rt/handle.hpp"

namespace psd::rt {

struct ClusterRtConfig {
  /// Per-node topology/workload template: shards, deltas, size dist, LOAD
  /// (per-shard utilization — total arrival rate scales with the node
  /// count), warmup/duration, admission, seed.  The node-level allocator
  /// field selects the cluster controller's allocator; node controllers
  /// themselves run rate-less (see file header).  controller_period is the
  /// one cadence: node ticks, cluster-controller ticks and the stats
  /// sampling grid (it is also the estimator window the controller reads).
  /// Exporter outputs (obs stream, metrics port, trace, SLO watchdog) and
  /// pin_threads are rejected: the cluster drive has no use for them.
  RtConfig node;
  std::size_t nodes = 2;
  AssignmentSpec assignment{AssignmentPolicy::kRoundRobin};
  /// Node-failure injection: at `kill_at` seconds, `kill_node` is removed
  /// (dispatch stops, shards stop draining, metrics freeze).  Negative =
  /// never.
  double kill_at = -1.0;
  std::size_t kill_node = 0;
  /// psd.cluster.stats.v1 JSONL path; empty = no stream.
  std::string stats_path;

  std::size_t num_classes() const { return node.num_classes(); }
  void validate() const;
};

struct ClusterClassReport {
  double delta = 0.0;
  std::uint64_t completed = 0;  ///< Post-warmup, all nodes.
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  double mean_slowdown = kNaN;   ///< Completion-weighted over nodes.
  /// Median per-window slowdown ratio vs class 0, pooled across every
  /// shard of every node (stats/convergence.hpp).
  double window_ratio_p50 = kNaN;
  double target_ratio = kNaN;
  /// Seconds past the disturbance onset (node kill, else profile step)
  /// until the cluster-merged windowed ratio re-entered and held the
  /// tolerance band; NaN without an onset or when it never settled.
  double settle_seconds = kNaN;
};

struct ClusterNodeReport {
  bool alive = true;
  std::uint64_t dispatched = 0;  ///< Requests routed to this node.
  RtReport rt;                   ///< The node's own (per-node) report.
};

struct ClusterReport {
  std::vector<ClusterClassReport> cls;
  /// Worst |pooled window ratio / target - 1| over classes, cluster-wide.
  double max_window_ratio_error = kNaN;
  /// Worst PER-NODE windowed ratio error over nodes alive at the end: the
  /// differentiation must hold on every node, not just in aggregate.
  double cross_node_ratio_error = kNaN;
  /// Max over classes of settle_seconds; NaN poisons (a class that never
  /// re-converged must fail a bounded check).  NaN without an onset.
  double max_settle_seconds = kNaN;
  double settle_onset = kNaN;  ///< The onset used (kill time/profile step).
  std::uint64_t produced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t completed_total = 0;  ///< Post-warmup, all nodes.
  std::uint64_t outstanding = 0;      ///< Alive nodes only.
  /// Requests stranded on killed nodes (accepted, never completed).
  std::uint64_t lost_to_kill = 0;
  double elapsed = 0.0;
  std::uint64_t rebalances = 0;   ///< Controller ticks with new rates.
  std::uint64_t global_ticks = 0;
  /// Mean dispatcher cost (route + submit) in nanoseconds.  NaN under a
  /// ManualClock: timing reads would break bitwise determinism.
  double mean_dispatch_ns = kNaN;
  std::vector<ClusterNodeReport> node;
};

class ClusterRuntime {
 public:
  ClusterRuntime(ClusterRtConfig cfg, ClockVariant clock);

  // --- threaded drive (SteadyClock) ---

  /// Spawn per-node shard threads, generator threads, and one controller
  /// thread (node ticks + cluster rebalances); honor cfg.kill_at; run for
  /// cfg.node.duration, drain, report.  One-shot.
  ClusterReport run();

  // --- deterministic drive (ManualClock) ---

  /// Advance generators, every alive node (its shards + rate-less node
  /// controller), and the cluster controller to `t` on the calling thread.
  /// Crossing cfg.kill_at performs the kill at exactly that time.
  void step_to(Time t);

  /// Keep stepping past end-of-load until alive nodes drained (or
  /// `max_extra` model seconds pass).
  void quiesce(Duration max_extra = 10.0, Duration step = 0.01);

  /// Finalize every alive node's metrics; idempotent.  run() does this.
  void finish();

  ClusterReport report() const;

  RuntimeHandle& node(std::size_t i) { return handles_[i]; }
  /// The cluster's one rate controller (one shard group per node).
  const Controller& controller() const { return *controller_; }

 private:
  /// Sink for every generated arrival: route via the AssignmentRouter and
  /// submit to the chosen node.  Serialized by dispatch_m_ (the cluster has
  /// one logical dispatcher; the mutex is uncontended under a single
  /// generator thread and is part of the measured dispatch cost otherwise).
  void dispatch(const Request& req);
  void step_to_internal(Time t);
  /// One cluster-controller tick, then a stats sample.
  void rebalance(Time now);
  /// Router flip (under the dispatch mutex) -> stop the node's shard
  /// threads (`drains`, threaded mode only) -> metrics freeze -> controller
  /// re-weight -> stats event.  Threaded mode calls it under tick_m_.
  void do_kill(std::size_t node, ThreadGroup* drains = nullptr);
  void sample_stats(Time now);
  std::uint64_t alive_outstanding() const;

  ClusterRtConfig cfg_;
  ClockVariant clock_;
  std::vector<std::unique_ptr<Runtime>> nodes_;
  std::vector<RuntimeHandle> handles_;
  std::optional<AssignmentRouter> router_;
  std::unique_ptr<Controller> controller_;
  std::vector<std::unique_ptr<LoadSource>> gens_;
  std::unique_ptr<obs::ClusterStatsLog> stats_;

  mutable std::mutex dispatch_m_;
  /// Threaded mode: serializes ticks (node + cluster) with the kill.
  std::mutex tick_m_;
  std::vector<double> load_signal_;  ///< Per-node outstanding, reused.
  std::vector<std::uint64_t> dispatched_;
  std::uint64_t dispatch_ns_ = 0;     ///< Threaded mode only (see report).
  std::uint64_t dispatch_timed_ = 0;  ///< Requests with a timed dispatch.

  Time next_rebalance_ = cfg_.node.controller_period;
  double kill_time_ = kNaN;    ///< When a kill ran (the settle onset).
  double run_elapsed_ = -1.0;  ///< Set once a threaded run completes.
  bool ran_ = false;
  bool finalized_ = false;
};

}  // namespace psd::rt
