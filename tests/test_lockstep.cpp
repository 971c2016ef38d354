// Lockstep batch kernel: per-lane results must be BITWISE identical to the
// per-task path at the same derived seeds — across allocators, rate-change
// policies, arrival shapes, profiles, class counts and recording — plus the
// ragged-tail group split and campaign JSONL byte-identity in both modes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "experiment/lockstep.hpp"
#include "experiment/runner.hpp"
#include "sweep/campaign.hpp"

namespace psd {
namespace {

ScenarioConfig base_cfg() {
  ScenarioConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.6;
  cfg.warmup_tu = 400.0;
  cfg.measure_tu = 2500.0;
  cfg.seed = 1234;
  return cfg;
}

// Exact-bit double comparison that treats NaN == NaN as equal (settle times
// and empty-class means are NaN by contract).
void expect_bits(double a, double b, const char* what) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  const bool both_nan = std::isnan(a) && std::isnan(b);
  EXPECT_TRUE(ba == bb || both_nan) << what << ": " << a << " vs " << b;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.reallocations, b.reallocations);
  expect_bits(a.system_slowdown, b.system_slowdown, "system_slowdown");
  expect_bits(a.time_unit, b.time_unit, "time_unit");
  ASSERT_EQ(a.cls.size(), b.cls.size());
  for (std::size_t i = 0; i < a.cls.size(); ++i) {
    EXPECT_EQ(a.cls[i].completed, b.cls[i].completed) << "class " << i;
    expect_bits(a.cls[i].mean_slowdown, b.cls[i].mean_slowdown, "slowdown");
    expect_bits(a.cls[i].mean_delay, b.cls[i].mean_delay, "delay");
    ASSERT_EQ(a.cls[i].windows.size(), b.cls[i].windows.size());
    for (std::size_t w = 0; w < a.cls[i].windows.size(); ++w) {
      const IntervalStat& wa = a.cls[i].windows[w];
      const IntervalStat& wb = b.cls[i].windows[w];
      expect_bits(wa.start, wb.start, "window start");
      EXPECT_EQ(wa.count, wb.count);
      expect_bits(wa.mean, wb.mean, "window mean");
      expect_bits(wa.max, wb.max, "window max");
    }
  }
  ASSERT_EQ(a.settle_tu.size(), b.settle_tu.size());
  for (std::size_t j = 0; j < a.settle_tu.size(); ++j) {
    expect_bits(a.settle_tu[j], b.settle_tu[j], "settle_tu");
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].id, b.records[r].id);
    expect_bits(a.records[r].arrival, b.records[r].arrival, "rec arrival");
    expect_bits(a.records[r].size, b.records[r].size, "rec size");
    expect_bits(a.records[r].service_start, b.records[r].service_start,
                "rec service_start");
    expect_bits(a.records[r].departure, b.records[r].departure,
                "rec departure");
    expect_bits(a.records[r].service_elapsed, b.records[r].service_elapsed,
                "rec service_elapsed");
  }
}

void check_lanes_match_per_task(const ScenarioConfig& cfg,
                                std::uint64_t first, std::size_t lanes) {
  const auto batch = run_scenario_lanes(cfg, first, lanes);
  ASSERT_EQ(batch.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    expect_bitwise_equal(batch[l], run_scenario(cfg, first + l));
  }
}

TEST(Lockstep, DefaultScenarioBitwiseEqual) {
  check_lanes_match_per_task(base_cfg(), 0, 4);
}

TEST(Lockstep, NonzeroFirstRunIndex) {
  check_lanes_match_per_task(base_cfg(), 7, 3);
}

TEST(Lockstep, HighLoadThreeClasses) {
  ScenarioConfig cfg = base_cfg();
  cfg.delta = {1.0, 2.0, 8.0};
  cfg.load = 0.9;
  check_lanes_match_per_task(cfg, 0, 3);
}

TEST(Lockstep, AdaptiveAllocatorAndFinishAtOldRate) {
  ScenarioConfig cfg = base_cfg();
  cfg.allocator = AllocatorKind::kAdaptivePsd;
  cfg.rate_change = RateChangePolicy::kFinishAtOldRate;
  check_lanes_match_per_task(cfg, 0, 3);
}

TEST(Lockstep, EqualShareAndNoAllocator) {
  ScenarioConfig cfg = base_cfg();
  cfg.allocator = AllocatorKind::kEqualShare;
  check_lanes_match_per_task(cfg, 0, 2);
  cfg.allocator = AllocatorKind::kNone;  // realloc loop disabled entirely
  check_lanes_match_per_task(cfg, 0, 2);
}

// Deterministic arrivals and sizes on a dyadic lattice, so every event time
// is exact in binary and ties are the rule, not a measure-zero accident.
// Per-class rates 1/2, 1/4, 1/8, 1/32 give gaps 2, 4, 8, 32; load 0.90625 is
// the nearest such sum to 0.9.  Under the equal split (rate 1/4, service
// time 4) class 0 is overloaded and class 1 runs at utilization one, so
// arrivals tie completions, class 0's queue carries over every tick, and
// with a tick period of 18 class 0 arrives on every tick while class 0
// (times 2 mod 4) and class 1 (0 mod 4) complete on alternate ticks.
// kEqualShare keeps that split, and the ties, for the whole run; kPsd
// turns a tie seen on the wrong side of a tick into different rates.
TEST(Lockstep, DyadicTiesOnCompletionsAndTicks) {
  ScenarioConfig cfg = base_cfg();
  cfg.delta = {1.0, 2.0, 4.0, 8.0};
  cfg.load = 0.90625;
  cfg.load_share = {16.0 / 29.0, 8.0 / 29.0, 4.0 / 29.0, 1.0 / 29.0};
  cfg.arrivals = ArrivalKind::kDeterministic;
  cfg.size_dist = DistSpec::deterministic(1.0);
  cfg.realloc_tu = 18.0;
  cfg.window_tu = 18.0;
  cfg.warmup_tu = 36.0;
  cfg.measure_tu = 540.0;
  const std::vector<double> lambdas = cfg.true_lambdas();
  ASSERT_EQ(lambdas, (std::vector<double>{0.5, 0.25, 0.125, 0.03125}));
  for (const AllocatorKind alloc :
       {AllocatorKind::kPsd, AllocatorKind::kEqualShare}) {
    for (const RateChangePolicy policy :
         {RateChangePolicy::kRescaleRemaining,
          RateChangePolicy::kFinishAtOldRate}) {
      SCOPED_TRACE(std::string(alloc == AllocatorKind::kPsd ? "psd"
                                                            : "equal") +
                   (policy == RateChangePolicy::kRescaleRemaining
                        ? " rescale"
                        : " finish-at-old"));
      cfg.allocator = alloc;
      cfg.rate_change = policy;
      check_lanes_match_per_task(cfg, 0, 2);
    }
  }
}

TEST(Lockstep, BurstyArrivalsAndLognormalSizes) {
  ScenarioConfig cfg = base_cfg();
  cfg.arrivals = ArrivalKind::kBursty;
  cfg.burstiness = 4.0;
  cfg.size_dist = DistSpec::lognormal(1.0, 2.0);
  check_lanes_match_per_task(cfg, 0, 3);
}

TEST(Lockstep, NonstationaryProfileWithSettleMetric) {
  ScenarioConfig cfg = base_cfg();
  cfg.load = 0.4;
  cfg.profile = LoadProfile::spike(1200.0, 600.0, 2.0);
  check_lanes_match_per_task(cfg, 0, 3);
}

TEST(Lockstep, RequestRecordingWindow) {
  ScenarioConfig cfg = base_cfg();
  cfg.record_requests = true;
  cfg.record_from_tu = 1000.0;
  cfg.record_to_tu = 1400.0;
  check_lanes_match_per_task(cfg, 0, 2);
}

TEST(Lockstep, IneligibleBackendFallsBackToPerTask) {
  ScenarioConfig cfg = base_cfg();
  cfg.backend = BackendKind::kSfq;
  EXPECT_FALSE(lockstep_eligible(cfg));
  check_lanes_match_per_task(cfg, 0, 2);
}

TEST(Lockstep, RaggedTailAggregatesIdentically) {
  const ScenarioConfig cfg = base_cfg();
  const std::size_t runs = 10;  // K=4 -> groups of 4, 4, 2
  ReplicationPlan plan;
  plan.mode = ReplicationMode::kLockstep;
  plan.lanes = 4;
  const auto lockstep =
      run_replications(cfg, runs, /*parallel=*/false, plan);
  const auto per_task = run_replications(cfg, runs, /*parallel=*/false);
  ASSERT_EQ(lockstep.runs, per_task.runs);
  ASSERT_EQ(lockstep.slowdown.size(), per_task.slowdown.size());
  for (std::size_t i = 0; i < lockstep.slowdown.size(); ++i) {
    expect_bits(lockstep.slowdown[i].mean, per_task.slowdown[i].mean,
                "agg slowdown mean");
    expect_bits(lockstep.slowdown[i].half_width,
                per_task.slowdown[i].half_width, "agg half width");
  }
  expect_bits(lockstep.system_slowdown, per_task.system_slowdown,
              "agg system");
  EXPECT_EQ(lockstep.completed_total, per_task.completed_total);
}

GridSpec small_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 300.0;
  grid.base.measure_tu = 1500.0;
  grid.loads = {0.4, 0.8};
  grid.deltas = {{1.0, 2.0}};
  // One lockstep-eligible and one fallback backend in the same campaign.
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  return grid;
}

std::vector<std::string> campaign_records(const CampaignOptions& opt) {
  std::vector<std::string> records;
  const auto result = run_campaign(small_grid(), opt);
  for (const auto& p : result.points) records.push_back(p.record);
  return records;
}

TEST(Lockstep, CampaignRecordsByteIdenticalAcrossModes) {
  CampaignOptions per_task;
  per_task.runs = 5;
  per_task.threads = 2;

  CampaignOptions lockstep = per_task;
  lockstep.replication_mode = ReplicationMode::kLockstep;
  lockstep.lockstep_lanes = 2;  // 5 runs -> groups of 2, 2, 1 (ragged tail)

  const auto a = campaign_records(per_task);
  const auto b = campaign_records(lockstep);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].empty());
    EXPECT_EQ(a[i], b[i]) << "point " << i;
  }
}

}  // namespace
}  // namespace psd
