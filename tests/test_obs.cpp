// Observability layer (src/obs) and its wiring through the rt stack.
//
// The two contracts that matter most here:
//   1. Telemetry OFF is free and invisible — a ManualClock run with
//      cfg.obs.enabled=false produces a report bitwise-identical to one
//      that never knew the obs layer existed.
//   2. Telemetry ON under a ManualClock is deterministic — the streamed
//      JSONL is byte-identical across repeats, and every snapshot is
//      internally consistent (histogram counts match the counters they
//      shadow).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/counters.hpp"
#include "obs/prof.hpp"
#include "rt/clock.hpp"
#include "rt/runtime.hpp"
#include "rt/shard.hpp"

namespace psd {
namespace {

using rt::ManualClock;
using rt::RtConfig;
using rt::RtReport;
using rt::Runtime;
using rt::Shard;
using rt::ShardConfig;

// ---------------------------------------------------------------- counters

static_assert(alignof(obs::Counter) == 64,
              "Counter must own its cache line");

TEST(ObsCounter, AddsFromDefaultAndExplicitIncrements) {
  obs::Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42u);
}

TEST(ObsLog2Hist, CountEqualsAddCallsIncludingExtremes) {
  obs::Log2Hist h;
  h.add(0.0);                 // underflow (non-positive)
  h.add(std::nan(""));        // underflow (NaN)
  h.add(1e-12);               // below 2^-27
  h.add(1e12);                // above 2^27
  h.add(1.5);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.underflow, 3u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.count, h.underflow + h.overflow + 1u);
}

TEST(ObsLog2Hist, MergeMatchesSingleCollectorExactly) {
  obs::Log2Hist ground, a, b;
  for (int i = 1; i <= 2000; ++i) {
    const double x = 1e-4 * static_cast<double>(i * i);
    ground.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  obs::Log2Hist merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count, ground.count);
  EXPECT_DOUBLE_EQ(merged.sum, ground.sum);
  for (int i = 0; i < obs::Log2Hist::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket[i], ground.bucket[i]) << "bucket " << i;
  }
  for (double q : {0.05, 0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), ground.quantile(q)) << "q=" << q;
  }
}

TEST(ObsLog2Hist, QuantileIsMonotoneAndBracketsTheData) {
  obs::Log2Hist h;
  for (int i = 1; i <= 1000; ++i) h.add(0.01 * static_cast<double>(i));
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Bucket bounds bracket: all data in [0.01, 10].
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 16.0);  // next power of two above 10
}

// -------------------------------------------------------------- profiling

TEST(ObsProf, DisabledTableRecordsNothing) {
  obs::ProfTable t;
  { obs::ScopedProfTimer timer(&t, obs::kProfDrain); }
  { obs::ScopedProfTimer timer(nullptr, obs::kProfDrain); }  // null-safe
  const obs::ProfSnap s = t.snap();
  EXPECT_EQ(s.count[obs::kProfDrain], 0u);
}

TEST(ObsProf, EnabledTableCountsScopes) {
  obs::ProfTable t;
  t.set_enabled(true);
  for (int i = 0; i < 8; ++i) {
    obs::ScopedProfTimer timer(&t, obs::kProfAllocate);
  }
  const obs::ProfSnap s = t.snap();
  EXPECT_EQ(s.count[obs::kProfAllocate], 8u);
  EXPECT_GT(obs::ticks_per_second(), 0.0);
}

TEST(ObsProf, EverySlotHasAName) {
  for (int i = 0; i < static_cast<int>(obs::kProfSlotCount); ++i) {
    const char* name = obs::prof_slot_name(static_cast<obs::ProfSlot>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

// -------------------------------------------------- shard-level telemetry

Request make_request(ClassId cls, Time arrival, double size) {
  Request r;
  r.cls = cls;
  r.arrival = arrival;
  r.size = size;
  return r;
}

ShardConfig telemetry_shard_config() {
  ShardConfig cfg;
  cfg.num_classes = 2;
  cfg.capacity = 1.0;
  cfg.window = 1.0;
  cfg.bucket_burst_seconds = 10.0;
  cfg.telemetry = true;
  cfg.telemetry_sample_period = 1;  // exact fills: every event recorded
  return cfg;
}

TEST(ShardTelemetry, HistogramCountsShadowTheCounters) {
  Shard shard(telemetry_shard_config());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(shard.submit(make_request(i % 2, i * 0.05, 0.01)));
  }
  shard.drain(1.0);   // pop arrivals, schedule service
  shard.drain(5.0);   // fire completions (well past every model finish time)
  shard.finalize(5.0);
  const rt::ShardTelemetry t = shard.telemetry();
  ASSERT_EQ(t.num_classes, 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(t.accepted[c], 6u);
    EXPECT_EQ(t.completions[c], 6u);
    // Snapshot coherence: one ingress-wait sample per accepted request, one
    // queue-delay and one slowdown sample per completion.
    EXPECT_EQ(t.ingress_wait[c].count, t.accepted[c]);
    EXPECT_EQ(t.queue_delay[c].count, t.completions[c]);
    EXPECT_EQ(t.slowdown[c].count, t.completions[c]);
  }
}

TEST(ShardTelemetry, SampledFillsKeepCountersExact) {
  ShardConfig cfg = telemetry_shard_config();
  cfg.telemetry_sample_period = 4;
  Shard shard(cfg);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(shard.submit(make_request(i % 2, i * 0.01, 0.01)));
  }
  shard.drain(1.0);
  shard.drain(5.0);
  shard.finalize(5.0);
  const rt::ShardTelemetry t = shard.telemetry();
  EXPECT_EQ(t.sample_period, 4u);
  for (std::size_t c = 0; c < 2; ++c) {
    // Counters are exact regardless of the sampling period...
    EXPECT_EQ(t.accepted[c], 12u);
    EXPECT_EQ(t.completions[c], 12u);
    // ...while the histograms hold the 1-in-4 subsample: per-class event
    // ordinals 4, 8, and 12 — exactly 12 / 4 = 3 samples.
    EXPECT_EQ(t.ingress_wait[c].count, 3u);
    EXPECT_EQ(t.queue_delay[c].count, 3u);
    EXPECT_EQ(t.slowdown[c].count, 3u);
    EXPECT_EQ(shard.slowdown_hists()[c].count(), 3u);
  }
}

TEST(ShardTelemetry, DropsAreCountedPerClass) {
  ShardConfig cfg = telemetry_shard_config();
  cfg.ingress_capacity = 2;
  Shard shard(cfg);
  EXPECT_TRUE(shard.submit(make_request(0, 0.0, 0.01)));
  EXPECT_TRUE(shard.submit(make_request(1, 0.0, 0.01)));
  EXPECT_FALSE(shard.submit(make_request(1, 0.0, 0.01)));
  EXPECT_FALSE(shard.submit(make_request(1, 0.0, 0.01)));
  EXPECT_FALSE(shard.submit(make_request(0, 0.0, 0.01)));
  EXPECT_EQ(shard.dropped(static_cast<ClassId>(0)), 1u);
  EXPECT_EQ(shard.dropped(static_cast<ClassId>(1)), 2u);
  EXPECT_EQ(shard.dropped(), 3u);  // aggregate = sum of classes
}

// ------------------------------------------------------- runtime wiring

RtConfig obs_runtime_config() {
  RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.5;
  cfg.size_dist = DistSpec::uniform(0.5, 1.5);
  cfg.mean_service_seconds = 1e-3;
  cfg.shards = 2;
  cfg.loadgens = 2;
  cfg.controller_period = 0.1;
  cfg.warmup = 0.5;
  cfg.duration = 3.0;
  cfg.seed = 71;
  return cfg;
}

RtReport drive_manual(const RtConfig& cfg) {
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  return runtime.report();
}

TEST(RuntimeObs, TelemetryOffReportIsUnchanged) {
  const RtConfig off = obs_runtime_config();
  RtConfig on = obs_runtime_config();
  on.obs.enabled = true;

  const RtReport a = drive_manual(off);
  const RtReport b = drive_manual(on);

  // Every pre-existing field is bitwise-identical: telemetry observes the
  // run, it does not perturb it.
  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.completed_all, b.completed_all);
  EXPECT_EQ(a.drains, b.drains);
  EXPECT_EQ(a.reallocations, b.reallocations);
  ASSERT_EQ(a.cls.size(), b.cls.size());
  for (std::size_t c = 0; c < a.cls.size(); ++c) {
    EXPECT_EQ(a.cls[c].completed, b.cls[c].completed);
    EXPECT_EQ(a.cls[c].dropped, b.cls[c].dropped);
    EXPECT_DOUBLE_EQ(a.cls[c].mean_slowdown, b.cls[c].mean_slowdown);
    // The new percentile fields are the one divergence: NaN when the
    // telemetry histograms never existed, populated when they did.
    EXPECT_TRUE(std::isnan(a.cls[c].slowdown_p50));
    EXPECT_TRUE(std::isfinite(b.cls[c].slowdown_p50));
    EXPECT_TRUE(std::isfinite(b.cls[c].slowdown_p95));
    EXPECT_LE(b.cls[c].slowdown_p50, b.cls[c].slowdown_p95);
    EXPECT_LE(b.cls[c].slowdown_p95, b.cls[c].slowdown_p99);
  }
}

// Drives a full ManualClock run with the exporter streaming to `path`.
void drive_with_stats(const RtConfig& cfg, const std::string& path) {
  RtConfig c = cfg;
  c.obs.enabled = true;
  c.obs.stats_path = path;
  c.obs.stats_interval = 0.25;
  Runtime runtime(c, ManualClock{});
  for (Time t = 0.02; t <= c.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  ASSERT_NE(runtime.exporter(), nullptr);
  EXPECT_GT(runtime.exporter()->samples(), 0u);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RuntimeObs, ManualClockStatsStreamIsBitIdentical) {
  const std::string pa = ::testing::TempDir() + "psd_obs_a.jsonl";
  const std::string pb = ::testing::TempDir() + "psd_obs_b.jsonl";
  const RtConfig cfg = obs_runtime_config();
  drive_with_stats(cfg, pa);
  drive_with_stats(cfg, pb);
  const std::string a = slurp(pa);
  const std::string b = slurp(pb);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical across repeats
  // Every line is a schema'd record on the fixed sample grid.
  std::istringstream lines(a);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"schema\":\"psd.rt.stats.v1\""), std::string::npos);
    ++n;
  }
  EXPECT_GE(n, 10u);  // 3s at 0.25s cadence
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(RuntimeObs, PrometheusTextRendersEveryFamily) {
  RtConfig cfg = obs_runtime_config();
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  cfg.obs.enabled = true;
  cfg.obs.stats_path = ::testing::TempDir() + "psd_obs_prom.jsonl";
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  ASSERT_NE(runtime.exporter(), nullptr);
  const std::string text = runtime.exporter()->prometheus_text();
  for (const char* family :
       {"psd_rt_produced_total", "psd_rt_dropped_total",
        "psd_rt_accepted_total", "psd_rt_completed_total",
        "psd_rt_lambda_hat", "psd_rt_rate", "psd_rt_shard_drains_total",
        "psd_rt_ingress_wait_seconds_bucket", "psd_rt_queue_delay_seconds_sum",
        "psd_rt_slowdown_count", "psd_rt_controller_ticks_total",
        "psd_rt_controller_rate"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  std::remove(cfg.obs.stats_path.c_str());
}

TEST(RuntimeObs, ControllerTraceAdvancesWithCursor) {
  RtConfig cfg = obs_runtime_config();
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  cfg.obs.enabled = true;
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  std::uint64_t cursor = 0;
  const auto first = runtime.controller_mut().trace_since(&cursor);
  ASSERT_FALSE(first.empty());
  EXPECT_GT(cursor, 0u);
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i].tick, first[i - 1].tick);  // monotone tick numbers
  }
  for (const auto& e : first) {
    ASSERT_EQ(e.num_classes, 2u);
    for (std::size_t c = 0; c < e.num_classes; ++c) {
      EXPECT_TRUE(std::isfinite(e.rate_out[c]));
      EXPECT_GE(e.lambda[c], 0.0);
    }
  }
  // Cursor consumed everything; no new ticks -> nothing new.
  EXPECT_TRUE(runtime.controller_mut().trace_since(&cursor).empty());
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
}

}  // namespace
}  // namespace psd
