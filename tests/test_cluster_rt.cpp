// ClusterRuntime (src/cluster/cluster_runtime.*): the multi-node serving
// tier under a ManualClock — bitwise determinism, dispatch accounting, the
// cluster controller holding cluster-wide slowdown ratios, and node-kill
// re-convergence.
//
// One short SteadyClock run covers the threaded drive, kill included; it
// asserts only accounting identities, which hold however the threads
// interleave.
//
// Manual steps run at the inter-arrival timescale (0.2ms): coarser steps
// batch arrivals, and co-batched classes then share GPS capacity from equal
// start times, compressing the measured ratio toward 1 (a clock-granularity
// artifact, not controller error).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "cluster/cluster_runtime.hpp"

namespace psd {
namespace {

constexpr double kStep = 0.0002;

rt::ClusterRtConfig base_cfg(AssignmentSpec assignment) {
  rt::ClusterRtConfig cfg;
  cfg.nodes = 4;
  cfg.assignment = assignment;
  cfg.node.delta = {1.0, 2.0};
  cfg.node.load = 0.6;
  cfg.node.warmup = 0.5;
  cfg.node.duration = 3.0;
  cfg.node.seed = 0x5EEDu;
  if (assignment.policy != AssignmentPolicy::kSizeInterval) {
    cfg.node.size_dist = DistSpec::uniform(0.5, 1.5);
  }
  return cfg;
}

rt::ClusterReport run_manual(const rt::ClusterRtConfig& cfg) {
  rt::ClusterRuntime cluster(cfg, rt::ManualClock());
  for (double t = 0.0; t < cfg.node.duration; t += kStep) {
    cluster.step_to(t);
  }
  cluster.step_to(cfg.node.duration);
  cluster.quiesce();
  cluster.finish();
  return cluster.report();
}

/// Bitwise double equality (NaN == NaN; no epsilon — determinism means
/// identical bits, not close values).
::testing::AssertionResult same_bits(double x, double y) {
  if (std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << x << " and " << y << " differ in bits";
}

TEST(ClusterRt, ManualClockRunsAreBitwiseIdentical) {
  const auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  const rt::ClusterReport a = run_manual(cfg);
  const rt::ClusterReport b = run_manual(cfg);

  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.completed_total, b.completed_total);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.global_ticks, b.global_ticks);
  EXPECT_TRUE(same_bits(a.max_window_ratio_error, b.max_window_ratio_error));
  EXPECT_TRUE(same_bits(a.cross_node_ratio_error, b.cross_node_ratio_error));
  EXPECT_TRUE(same_bits(a.max_settle_seconds, b.max_settle_seconds));
  ASSERT_EQ(a.cls.size(), b.cls.size());
  for (std::size_t c = 0; c < a.cls.size(); ++c) {
    EXPECT_EQ(a.cls[c].completed, b.cls[c].completed);
    EXPECT_TRUE(same_bits(a.cls[c].mean_slowdown, b.cls[c].mean_slowdown));
    EXPECT_TRUE(
        same_bits(a.cls[c].window_ratio_p50, b.cls[c].window_ratio_p50));
  }
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].dispatched, b.node[i].dispatched);
    EXPECT_EQ(a.node[i].rt.completed_total, b.node[i].rt.completed_total);
  }
  // Timing is deliberately off under a ManualClock (reading steady_clock
  // would break the determinism this test pins down).
  EXPECT_TRUE(std::isnan(a.mean_dispatch_ns));
}

TEST(ClusterRt, SeedChangesTheRun) {
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  const rt::ClusterReport a = run_manual(cfg);
  cfg.node.seed = 0x5EEEu;
  const rt::ClusterReport b = run_manual(cfg);
  EXPECT_NE(a.produced, b.produced);
}

TEST(ClusterRt, DispatchAccountingIsConserved) {
  const auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  const rt::ClusterReport r = run_manual(cfg);
  std::uint64_t dispatched = 0;
  for (const auto& nd : r.node) dispatched += nd.dispatched;
  EXPECT_EQ(dispatched, r.produced);
  EXPECT_EQ(r.outstanding, 0u);
  EXPECT_EQ(r.lost_to_kill, 0u);
  // Round-robin with no failures splits arrivals evenly (within one cycle).
  for (const auto& nd : r.node) {
    EXPECT_NEAR(static_cast<double>(nd.dispatched),
                static_cast<double>(r.produced) / 4.0, 1.0);
  }
}

TEST(ClusterRt, HoldsClusterWideRatioUnderJsq2) {
  const rt::ClusterReport r = run_manual(base_cfg({AssignmentPolicy::kJsq, 2}));
  ASSERT_EQ(r.cls.size(), 2u);
  EXPECT_NEAR(r.cls[1].window_ratio_p50, 2.0, 0.3);
  EXPECT_LE(r.max_window_ratio_error, 0.15);
}

TEST(ClusterRt, HoldsClusterWideRatioUnderSitaE) {
  // SITA-E keeps the heavy-tailed default dist (cutoffs need its CDF).
  auto cfg = base_cfg({AssignmentPolicy::kSizeInterval});
  cfg.node.warmup = 1.0;
  cfg.node.duration = 6.0;
  const rt::ClusterReport r = run_manual(cfg);
  EXPECT_LE(r.max_window_ratio_error, 0.15);
  // SITA-E concentrates the giants on the last band's node; dispatch counts
  // must be monotonically decreasing in band index (smallest sizes are the
  // most frequent under bounded-pareto).
  for (std::size_t i = 1; i < r.node.size(); ++i) {
    EXPECT_LT(r.node[i].dispatched, r.node[i - 1].dispatched);
  }
}

TEST(ClusterRt, NodeKillReconvergesWithinSettleBound) {
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  cfg.node.duration = 5.0;
  cfg.kill_node = 3;
  cfg.kill_at = 2.0;
  const rt::ClusterReport r = run_manual(cfg);

  EXPECT_FALSE(r.node[3].alive);
  EXPECT_TRUE(r.node[0].alive);
  // Dispatch to the dead node stops at the kill: its share is well under
  // the ~1/4 it would carry alive for the full run.
  EXPECT_LT(r.node[3].dispatched, r.produced / 5);
  // The ratio held cluster-wide across the failure, and re-settled into the
  // tolerance band within the remaining run (settle is measured from the
  // kill instant).
  EXPECT_LE(r.max_window_ratio_error, 0.15);
  EXPECT_NEAR(r.settle_onset, 2.0, 1e-9);
  ASSERT_TRUE(std::isfinite(r.max_settle_seconds));
  EXPECT_LE(r.max_settle_seconds, 3.0);
}

TEST(ClusterRt, ThreadedRunWithKillBalancesItsBooks) {
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  cfg.nodes = 3;
  cfg.node.mean_service_seconds = 1e-3;  // 600 req/s per node at load 0.6
  cfg.node.warmup = 0.3;
  cfg.node.duration = 1.2;
  cfg.kill_node = 2;
  cfg.kill_at = 0.6;
  rt::ClusterRuntime cluster(cfg, rt::SteadyClock());
  const rt::ClusterReport r = cluster.run();

  EXPECT_GT(r.produced, 0u);
  EXPECT_FALSE(r.node[2].alive);
  EXPECT_TRUE(r.node[0].alive);
  std::uint64_t dispatched = 0;
  std::uint64_t completed_all = 0;
  for (const auto& nd : r.node) {
    dispatched += nd.dispatched;
    completed_all += nd.rt.completed_all;
    EXPECT_EQ(nd.dispatched, nd.rt.completed_all + nd.rt.dropped +
                                 nd.rt.shed_total + nd.rt.outstanding);
  }
  EXPECT_EQ(dispatched, r.produced);
  EXPECT_EQ(r.produced, completed_all + r.dropped + r.shed_total +
                            r.outstanding + r.lost_to_kill);
  EXPECT_GT(r.global_ticks, 0u);
  EXPECT_GE(r.settle_onset, cfg.kill_at);
  EXPECT_LT(r.settle_onset, cfg.node.duration);
  EXPECT_TRUE(std::isfinite(r.cls[1].window_ratio_p50));
  EXPECT_TRUE(std::isfinite(r.max_window_ratio_error));
}

TEST(ClusterRt, KillRejectsBadSchedules) {
  auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  cfg.kill_at = 1.0;
  cfg.kill_node = 7;  // out of range
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.kill_node = 0;
  cfg.kill_at = 99.0;  // past the end of the run
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Negative means "never", but NaN must not silently mean the same.
  cfg.kill_at = kNaN;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.kill_at = -1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.node.duration = kInf;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A dead SITA-E node's band lands on a survivor beyond its capacity.
  auto sita = base_cfg({AssignmentPolicy::kSizeInterval});
  sita.kill_at = 1.0;
  EXPECT_THROW(sita.validate(), std::invalid_argument);
}

TEST(ClusterRt, RejectsFlagsTheClusterDriveIgnores) {
  // No node exporter runs in a cluster: a metrics port would never bind and
  // SLO rules would only dump at shutdown.  Nor does the drive pin threads.
  auto cfg = base_cfg({AssignmentPolicy::kJsq, 2});
  cfg.node.obs.enabled = true;  // Telemetry alone feeds report percentiles.
  EXPECT_NO_THROW(cfg.validate());
  cfg.node.obs.slo_rules = "ratio_err>0.0001";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.slo_rules.clear();
  cfg.node.obs.metrics_port = 9464;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.metrics_port = 0;
  cfg.node.obs.stats_path = "node_stats.jsonl";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.stats_path.clear();
  cfg.node.pin_threads = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterRt, RejectsExporterKnobsWithoutAnExporter) {
  // --obs-profile would arm timers in every node shard that nothing reads;
  // --stats-interval and --trace-sample tune an exporter and a tracer the
  // cluster never builds.
  auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  cfg.node.obs.enabled = true;
  EXPECT_NO_THROW(cfg.validate());
  cfg.node.obs.profile = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.profile = false;
  cfg.node.obs.stats_interval = 0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.stats_interval = obs::ObsConfig{}.stats_interval;
  cfg.node.obs.trace_sample_period = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.node.obs.trace_sample_period = obs::ObsConfig{}.trace_sample_period;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterRt, SingleNodeClusterMatchesConfigValidation) {
  auto cfg = base_cfg({AssignmentPolicy::kRoundRobin});
  cfg.nodes = 1;
  cfg.node.duration = 1.0;
  const rt::ClusterReport r = run_manual(cfg);
  EXPECT_EQ(r.node.size(), 1u);
  EXPECT_EQ(r.node[0].dispatched, r.produced);
}

}  // namespace
}  // namespace psd
