#include "cluster/cluster_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

#include "cluster/dispatcher.hpp"
#include "dist/sampler.hpp"

namespace psd::rt {

void ClusterRtConfig::validate() const {
  node.validate();
  PSD_REQUIRE(nodes >= 1 && nodes <= 64, "cluster needs 1..64 nodes");
  assignment.validate();
  // The cluster's threaded drive runs no per-node exporter thread and
  // pins nothing; refuse the flags instead of silently ignoring them.
  // Telemetry alone (report percentiles) needs neither.
  PSD_REQUIRE(!node.obs.wants_exporter(),
              "cluster nodes run no stats exporter (no metrics port, stats "
              "stream, trace or SLO watchdog)");
  PSD_REQUIRE(!node.pin_threads, "cluster runs do not pin threads");
  // Likewise the exporter's and tracer's knobs, and the self-profiling
  // timers, which only an exporter reads.
  const obs::ObsConfig defaults;
  PSD_REQUIRE(!node.obs.profile,
              "cluster nodes run no stats exporter to read profile timers");
  PSD_REQUIRE(node.obs.stats_interval == defaults.stats_interval,
              "cluster stats sample every controller period; a stats "
              "interval has no effect");
  PSD_REQUIRE(node.obs.trace_sample_period == defaults.trace_sample_period,
              "cluster nodes record no request traces; a trace sample "
              "period has no effect");
  // Negative = never; NaN would read as "never" too, silently.
  PSD_REQUIRE(std::isfinite(kill_at), "kill time must be finite");
  if (assignment.policy == AssignmentPolicy::kSizeInterval) {
    // SITA-E cutoffs partition the size distribution's support into
    // equal-work bands, which the closed form below only knows how to do
    // for the paper's bounded-Pareto workload.
    PSD_REQUIRE(node.size_dist.kind == DistSpec::Kind::kBoundedPareto,
                "SITA-E cutoffs require a bounded-pareto size distribution");
  }
  if (kill_at >= 0.0) {
    PSD_REQUIRE(nodes >= 2, "cannot kill a node of a 1-node cluster");
    // Under SITA-E a dead node's band reroutes to a survivor, whose work
    // weight then exceeds its capacity share: its weighted rate slice would
    // overrun the node's servers.
    PSD_REQUIRE(assignment.policy != AssignmentPolicy::kSizeInterval,
                "node kill is not supported under SITA-E assignment");
    PSD_REQUIRE(kill_node < nodes, "kill node out of range");
    PSD_REQUIRE(kill_at > 0.0 && kill_at < node.duration,
                "kill time must fall inside the run");
  }
}

ClusterRuntime::ClusterRuntime(ClusterRtConfig cfg, ClockVariant clock)
    : cfg_(std::move(cfg)), clock_(std::move(clock)) {
  cfg_.validate();

  // Nodes: embedded runtimes with RATE-LESS controllers — node ticks still
  // publish controller snapshots and stage admission updates, but the
  // cluster controller is the single rate writer.  The node template's
  // allocator field selects the cluster controller's allocator instead.
  RtConfig nc = cfg_.node;
  nc.allocator = AllocatorKind::kNone;
  nodes_.reserve(cfg_.nodes);
  handles_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    nodes_.push_back(std::make_unique<Runtime>(nc, clock_, EmbeddedTag{}));
    handles_.emplace_back(*nodes_.back());
  }

  // Router: the same assignment implementation the simulation validates.
  // SITA-E cutoffs are precomputed once from the size distribution.
  Rng master(cfg_.node.seed);
  std::vector<double> cutoffs;
  if (cfg_.assignment.policy == AssignmentPolicy::kSizeInterval) {
    const BoundedParetoSampler bp(cfg_.node.size_dist.a,
                                  cfg_.node.size_dist.b,
                                  cfg_.node.size_dist.c);
    cutoffs = sita_equal_load_cutoffs(bp, cfg_.nodes);
  }
  router_.emplace(cfg_.assignment, cfg_.nodes, master.fork(8000),
                  std::move(cutoffs));

  // The cluster's rate controller: one shard group per node, weighted by
  // the router's work share (uniform for the symmetric policies, band
  // shares under SITA-E), so each node's slice matches the work the
  // dispatcher actually sends there.
  ControllerConfig cc;
  cc.allocator = cfg_.node.allocator;
  cc.psd = cfg_.node.psd_allocator_config();
  cc.adaptive = cfg_.node.adaptive;
  std::vector<std::vector<Shard*>> groups;
  groups.reserve(nodes_.size());
  for (auto& node : nodes_) groups.push_back(node->shard_ptrs());
  controller_ = std::make_unique<Controller>(
      std::move(cc), std::move(groups), router_->work_weights());

  // Load sources: the single-node Runtime's, except that per-class rates
  // scale with the node count (cfg.node.load is per-SHARD utilization,
  // cluster-wide) and every produced request lands in dispatch() via the
  // sink instead of being sprayed over local shards.
  const double scale = static_cast<double>(cfg_.nodes) /
                       static_cast<double>(cfg_.node.loadgens);
  const SamplerVariant sampler = make_sampler(cfg_.node.size_dist);
  for (std::size_t g = 0; g < cfg_.node.loadgens; ++g) {
    gens_.push_back(std::make_unique<SyntheticLoadGen>(
        static_cast<std::uint32_t>(g), master.fork(100 + g),
        class_loads(cfg_.node, scale, sampler),
        [this](const Request& req) { dispatch(req); }, 0.0));
  }

  load_signal_.assign(cfg_.nodes, 0.0);
  dispatched_.assign(cfg_.nodes, 0);

  if (!cfg_.stats_path.empty()) {
    stats_ = std::make_unique<obs::ClusterStatsLog>(
        cfg_.stats_path, cfg_.nodes, cfg_.num_classes(),
        cfg_.assignment.name());
  }
}

void ClusterRuntime::dispatch(const Request& req) {
  std::lock_guard<std::mutex> lock(dispatch_m_);
  // Timing only on the wall clock: steady_clock reads under a ManualClock
  // would cost nothing semantically but break bitwise determinism of the
  // report, which the tests rely on.
  const bool timed = !clock_.is_manual();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const AssignmentPolicy policy = cfg_.assignment.policy;
  if (policy == AssignmentPolicy::kLeastWorkLeft ||
      policy == AssignmentPolicy::kJsq) {
    // The rt load signal is outstanding REQUESTS per node (accepted, not
    // yet completed) — the queue-length analogue of the simulator's
    // work-left signal, and what JSQ classically samples.
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      load_signal_[i] =
          router_->alive(i)
              ? static_cast<double>(handles_[i].outstanding())
              : 0.0;
    }
  }
  const std::size_t n = router_->route(req.size, load_signal_);
  ++dispatched_[n];
  handles_[n].submit(req);
  if (timed) {
    dispatch_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++dispatch_timed_;
  }
}

void ClusterRuntime::rebalance(Time now) {
  controller_->tick(now);
  if (stats_ != nullptr) sample_stats(now);
}

void ClusterRuntime::sample_stats(Time now) {
  const std::size_t n = cfg_.num_classes();
  std::vector<std::uint64_t> dispatched;
  {
    std::lock_guard<std::mutex> lock(dispatch_m_);
    dispatched = dispatched_;
  }
  std::vector<obs::ClusterNodeStats> per_node(handles_.size());
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    per_node[i].alive = router_->alive(i);
    per_node[i].dispatched = dispatched[i];
    per_node[i].outstanding = handles_[i].outstanding();
    per_node[i].lambda.assign(n, 0.0);
    for (const ShardSnapshot& snap : handles_[i].shard_snapshots()) {
      for (std::size_t c = 0; c < n; ++c) {
        per_node[i].lambda[c] += snap.lambda_hat[c];
      }
    }
  }
  const ControllerSnapshot cs = controller_->snapshot();
  stats_->sample(now, per_node, std::vector<double>(cs.rate, cs.rate + n),
                 cs.allocations);
}

void ClusterRuntime::do_kill(std::size_t node, ThreadGroup* drains) {
  {
    // Flip under the dispatch mutex: no arrival routes to the corpse after
    // this point, and the in-flight dispatch (if any) completed first.
    std::lock_guard<std::mutex> lock(dispatch_m_);
    router_->set_alive(node, false);
  }
  if (drains != nullptr) drains->stop();
  // Freeze the node's metrics at the kill instant: its windows end here,
  // its outstanding requests are stranded (counted as lost_to_kill).
  nodes_[node]->finish();
  // Re-weight the groups: the dead node's weight drops to 0 and the
  // allocator is rebuilt at the alive capacity (the adaptive integrator
  // restarts; re-tightening the ratios is exactly the settle metric).
  controller_->set_weights(router_->work_weights());
  kill_time_ = clock_.now();
  if (stats_ != nullptr) stats_->kill(kill_time_, node);
}

void ClusterRuntime::step_to(Time t) {
  PSD_REQUIRE(clock_.manual() != nullptr, "step_to requires a ManualClock");
  PSD_REQUIRE(!ran_, "step_to cannot mix with a threaded run()");
  if (std::isnan(kill_time_) && cfg_.kill_at >= 0.0 && t >= cfg_.kill_at) {
    // Split the step at the kill instant so the kill lands at exactly
    // cfg.kill_at regardless of the caller's step granularity.
    step_to_internal(cfg_.kill_at);
    do_kill(cfg_.kill_node);
  }
  step_to_internal(t);
}

void ClusterRuntime::step_to_internal(Time t) {
  clock_.manual()->advance_to(t);
  // Load stops at cfg.node.duration in both drive modes; quiesce steps
  // beyond it to drain.
  const Time gen_horizon = std::min(t, cfg_.node.duration);
  for (auto& g : gens_) g->step_until(gen_horizon);
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    // Each alive node advances its own clock copy to t, drains its shards
    // and runs its (rate-less) controller ticks.
    if (router_->alive(i)) handles_[i].step_to(t);
  }
  while (next_rebalance_ <= t) {
    rebalance(next_rebalance_);
    next_rebalance_ += cfg_.node.controller_period;
  }
}

void ClusterRuntime::quiesce(Duration max_extra, Duration step) {
  PSD_REQUIRE(clock_.is_manual(), "quiesce requires a ManualClock");
  Time t = clock_.now();
  const Time limit = t + max_extra;
  while (alive_outstanding() > 0 && t < limit) {
    t = std::min(t + step, limit);
    step_to(t);
  }
}

std::uint64_t ClusterRuntime::alive_outstanding() const {
  std::lock_guard<std::mutex> lock(dispatch_m_);
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (router_->alive(i)) n += handles_[i].outstanding();
  }
  return n;
}

void ClusterRuntime::finish() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& node : nodes_) node->finish();  // A killed node's is a no-op.
}

ClusterReport ClusterRuntime::run() {
  PSD_REQUIRE(!ran_ && !finalized_, "run() is one-shot");
  PSD_REQUIRE(!clock_.is_manual(),
              "run() spins wall-clock threads; use step_to with ManualClock");
  ran_ = true;

  // One thread group per node: a kill stops exactly that node's shards.
  std::deque<ThreadGroup> drains;
  for (auto& node : nodes_) {
    ThreadGroup& group = drains.emplace_back(clock_);
    for (Shard* shard : node->shard_ptrs()) group.drain(*shard);
  }
  // Node ticks and cluster ticks share one thread and one cadence.  The
  // kill takes the same tick lock, so the router's alive mask, the
  // controller weights and the stats log change only between ticks.
  ThreadGroup control(clock_);
  control.every(cfg_.node.controller_period, [this](Time now) {
    std::lock_guard<std::mutex> lock(tick_m_);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (router_->alive(i)) nodes_[i]->controller_mut().tick(now);
    }
    rebalance(now);
  });
  ThreadGroup load(clock_);
  for (auto& gen : gens_) load.spin(*gen);

  if (cfg_.kill_at >= 0.0) {
    wait_until(clock_, cfg_.kill_at);
    std::lock_guard<std::mutex> lock(tick_m_);
    do_kill(cfg_.kill_node, &drains[cfg_.kill_node]);
  }
  wait_until(clock_, cfg_.node.duration);
  load.stop();
  // Alive shards keep draining until the accepted backlog clears.
  drain_grace(clock_, [this] { return alive_outstanding() > 0; });
  control.stop();
  for (auto& group : drains) group.stop();

  run_elapsed_ = clock_.now();
  finish();
  return report();
}

ClusterReport ClusterRuntime::report() const {
  const std::size_t n = cfg_.num_classes();
  ClusterReport r;
  r.cls.resize(n);
  r.node.resize(handles_.size());
  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint64_t> sd_n(n, 0);
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    ClusterNodeReport& nd = r.node[i];
    nd.alive = router_->alive(i);
    nd.dispatched = dispatched_[i];
    nd.rt = nodes_[i]->report();
    for (std::size_t c = 0; c < n; ++c) {
      const RtClassReport& ncls = nd.rt.cls[c];
      r.cls[c].completed += ncls.completed;
      r.cls[c].dropped += ncls.dropped;
      r.cls[c].shed += ncls.shed;
      if (ncls.completed > 0 && std::isfinite(ncls.mean_slowdown)) {
        sd_sum[c] +=
            ncls.mean_slowdown * static_cast<double>(ncls.completed);
        sd_n[c] += ncls.completed;
      }
    }
    // A dead node's unfinished requests are stranded, not outstanding.
    (nd.alive ? r.outstanding : r.lost_to_kill) += nd.rt.outstanding;
  }
  for (std::size_t c = 0; c < n; ++c) {
    r.cls[c].delta = cfg_.node.delta[c];
    r.cls[c].target_ratio = cfg_.node.delta[c] / cfg_.node.delta[0];
    if (sd_n[c] > 0) {
      r.cls[c].mean_slowdown = sd_sum[c] / static_cast<double>(sd_n[c]);
    }
    r.completed_total += r.cls[c].completed;
    r.dropped += r.cls[c].dropped;
    r.shed_total += r.cls[c].shed;
  }
  for (const auto& g : gens_) r.produced += g->produced();
  const ControllerSnapshot cs = controller_->snapshot();
  r.global_ticks = cs.ticks;
  r.rebalances = cs.allocations;
  r.mean_dispatch_ns =
      dispatch_timed_ > 0
          ? static_cast<double>(dispatch_ns_) /
                static_cast<double>(dispatch_timed_)
          : kNaN;
  r.elapsed = run_elapsed_ >= 0.0 ? run_elapsed_ : clock_.now();

  // Window statistics read the servers' closed series, so finalized only.
  if (finalized_) {
    // Re-convergence after the disturbance: a node kill if one happened,
    // else the load profile's settling point.
    double onset = kNaN;
    if (std::isfinite(kill_time_)) {
      onset = std::max(kill_time_, cfg_.node.warmup);
    } else if (std::isfinite(cfg_.node.profile.step_time())) {
      onset = std::max(cfg_.node.profile.step_time(), cfg_.node.warmup);
    }
    r.settle_onset = onset;
    // The single-node fold with every node's shards in the pool, node-major
    // (killed nodes contribute their pre-kill windows).
    std::vector<Shard*> shards;
    for (const auto& node : nodes_) {
      const std::vector<Shard*> own = node->shard_ptrs();
      shards.insert(shards.end(), own.begin(), own.end());
    }
    const WindowFold f =
        fold_windows(shards, cfg_.node.delta, cfg_.node.converge_tol, onset,
                     cfg_.node.controller_period);
    for (std::size_t c = 0; c < n; ++c) {
      r.cls[c].window_ratio_p50 = f.ratio_p50[c];
      r.cls[c].settle_seconds = f.settle[c];
    }
    r.max_window_ratio_error = f.max_error;
    r.max_settle_seconds = f.max_settle;

    // Cross-node check: the differentiation must hold on every surviving
    // node individually, not just in the pooled aggregate.  Strict: an
    // alive node with no windowed data poisons the statistic.
    if (n >= 2) {
      double cross = kNaN;
      bool poisoned = false;
      for (std::size_t i = 0; i < handles_.size(); ++i) {
        if (!r.node[i].alive) continue;
        const double err = r.node[i].rt.max_window_ratio_error;
        if (!std::isfinite(err)) {
          poisoned = true;
        } else {
          cross = std::isfinite(cross) ? std::max(cross, err) : err;
        }
      }
      r.cross_node_ratio_error = poisoned ? kNaN : cross;
    }
  }
  return r;
}

}  // namespace psd::rt
