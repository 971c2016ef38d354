// Real-time runtime (src/rt) under a ManualClock: every component steps on
// the test thread, so these tests are deterministic by construction — no
// sleeps, no timing-dependent assertions, bitwise-reproducible reports.
// Two short SteadyClock tests cover the threaded drive (ThreadGroup failure
// forwarding, one whole run()); they assert only what holds however the
// threads interleave.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>

#include "core/psd_allocation.hpp"
#include "rt/clock.hpp"
#include "rt/runtime.hpp"
#include "rt/seqlock.hpp"
#include "rt/token_bucket.hpp"
#include "sched/dedicated_rate.hpp"
#include "server/server.hpp"

namespace psd::rt {
namespace {

Request make_request(ClassId cls, Time arrival, Work size,
                     RequestId id = 0) {
  Request r;
  r.id = id;
  r.cls = cls;
  r.arrival = arrival;
  r.size = size;
  return r;
}

// ---------------------------------------------------------------- clocks

TEST(RtClock, ManualAdvancesAndRejectsBackwards) {
  ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_THROW(clock.advance_to(1.0), std::invalid_argument);
}

TEST(RtClock, VariantDispatchesAndExposesManual) {
  ClockVariant manual{ManualClock{3.0}};
  EXPECT_DOUBLE_EQ(manual.now(), 3.0);
  ASSERT_NE(manual.manual(), nullptr);
  manual.manual()->advance_to(4.0);
  EXPECT_DOUBLE_EQ(manual.now(), 4.0);

  ClockVariant steady{SteadyClock{}};
  EXPECT_EQ(steady.manual(), nullptr);
  EXPECT_GE(steady.now(), 0.0);
}

// ---------------------------------------------------------- token bucket

TEST(TokenBucket, AccruesAtRateUpToBurst) {
  TokenBucket b(2.0, 4.0, 0.0);  // rate 2/s, burst 4, starts full
  EXPECT_DOUBLE_EQ(b.level(0.0), 4.0);
  EXPECT_TRUE(b.try_consume(4.0, 0.0));
  EXPECT_DOUBLE_EQ(b.level(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b.level(1.0), 2.0);   // +2 after 1s
  EXPECT_DOUBLE_EQ(b.level(10.0), 4.0);  // capped at burst
}

TEST(TokenBucket, DeficitDelaysButNeverDeadlocks) {
  TokenBucket b(1.0, 2.0, 0.0);
  // A giant twice the burst still releases (level is non-negative)...
  EXPECT_TRUE(b.try_consume(4.0, 0.0));
  EXPECT_DOUBLE_EQ(b.level(0.0), -2.0);
  // ...but the class pays the deficit off before the next release.
  EXPECT_FALSE(b.try_consume(1.0, 1.0));  // level -1
  EXPECT_TRUE(b.try_consume(1.0, 2.0));   // level 0: ok
}

TEST(TokenBucket, SetRateSettlesAtOldRateFirst) {
  TokenBucket b(1.0, 10.0, 0.0);
  ASSERT_TRUE(b.try_consume(10.0, 0.0));  // empty it
  b.set_rate(4.0, 2.0);  // 2s at old rate 1/s accrued first
  EXPECT_DOUBLE_EQ(b.level(2.0), 2.0);
  EXPECT_DOUBLE_EQ(b.level(3.0), 6.0);  // then 4/s
}

// --------------------------------------------------------------- seqlock

TEST(Seqlock, SingleThreadRoundTrip) {
  struct Payload {
    double a = 0.0;
    std::uint64_t b = 0;
    double c[3] = {};
  };
  Seqlock<Payload> lock;
  Payload p;
  p.a = 1.5;
  p.b = 42;
  p.c[2] = -7.0;
  lock.publish(p);
  const Payload out = lock.read();
  EXPECT_DOUBLE_EQ(out.a, 1.5);
  EXPECT_EQ(out.b, 42u);
  EXPECT_DOUBLE_EQ(out.c[2], -7.0);
}

// ----------------------------------------------------------------- shard

ShardConfig two_class_config() {
  ShardConfig cfg;
  cfg.num_classes = 2;
  cfg.capacity = 1.0;
  cfg.window = 1.0;
  cfg.bucket_burst_seconds = 10.0;  // buckets out of the way by default
  return cfg;
}

TEST(Shard, ServesWithExactSimulatedTimestamps) {
  ShardConfig cfg = two_class_config();
  cfg.num_classes = 1;
  cfg.initial_rates = {1.0};
  Shard shard(cfg);

  ASSERT_TRUE(shard.submit(make_request(0, 0.0, 1.0, 1)));
  ASSERT_TRUE(shard.submit(make_request(0, 0.0, 1.0, 2)));
  shard.drain(0.0);
  EXPECT_EQ(shard.outstanding(), 2u);

  // First request served [0,1), second [1,2) — completions fire at their
  // exact model times no matter when drain runs.
  shard.drain(5.0);
  EXPECT_EQ(shard.outstanding(), 0u);
  const auto& m = shard.metrics();
  ASSERT_EQ(m.completed(0), 2u);
  // Slowdowns: 0/1 (immediate service) and 1/1 (waited one service time).
  EXPECT_DOUBLE_EQ(m.slowdown(0).mean(), 0.5);
}

TEST(Shard, TokenBucketStagesWorkBeyondTheClassRate) {
  ShardConfig cfg = two_class_config();
  cfg.bucket_burst_seconds = 1.0;  // burst = 1 work unit
  cfg.initial_rates = {0.5, 0.5};
  Shard shard(cfg);

  // A size-2 giant against a burst of 1: released immediately (deficit
  // semantics), leaving the bucket at -1; the follow-up request stages
  // until the deficit is paid off at rate 0.5 (t = 2).
  ASSERT_TRUE(shard.submit(make_request(1, 0.0, 2.0, 1)));
  ASSERT_TRUE(shard.submit(make_request(1, 0.0, 1.0, 2)));
  shard.drain(0.0);
  ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.staged[1], 1u);

  shard.drain(1.9);  // level -0.05: still staged
  EXPECT_EQ(shard.snapshot().staged[1], 1u);
  shard.drain(2.0);  // level back to 0: released
  EXPECT_EQ(shard.snapshot().staged[1], 0u);
}

TEST(Shard, CountsDropsWhenIngressOverflows) {
  ShardConfig cfg = two_class_config();
  cfg.ingress_capacity = 2;
  Shard shard(cfg);
  EXPECT_TRUE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_TRUE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_FALSE(shard.submit(make_request(0, 0.0, 1.0)));
  EXPECT_EQ(shard.dropped(), 1u);
  shard.drain(0.0);
  EXPECT_EQ(shard.outstanding(), 2u);
}

TEST(Shard, AppliesControllerRatesAtNextDrain) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg);
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.5);
  shard.apply_rates({0.8, 0.2});
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.5);  // not yet
  shard.drain(1.0);
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[0], 0.8);
  EXPECT_DOUBLE_EQ(shard.snapshot().rate[1], 0.2);
}

TEST(Shard, EstimatorTracksArrivalRatePerWindow) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg);
  // 30 class-0 and 10 class-1 arrivals in the first 1s window.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(shard.submit(make_request(0, i * 0.03, 0.01)));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(shard.submit(make_request(1, i * 0.09, 0.01)));
  }
  shard.drain(0.95);
  shard.drain(1.0);  // rolls the [0,1) window
  const ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.windows_closed, 1u);
  EXPECT_DOUBLE_EQ(snap.lambda_hat[0], 30.0);
  EXPECT_DOUBLE_EQ(snap.lambda_hat[1], 10.0);
}

// ------------------------------------------- shard vs event-engine oracle

/// The general event engine the shard's class blocks replace: a Simulator +
/// Server + DedicatedRateBackend, fed through the same staging discipline
/// (requests enter at the drain instant, deficit buckets release them) and
/// driven in the shard's drain order — completions up to `now`, then the
/// rate handoff, then injection and release.
class EngineOracle {
 public:
  EngineOracle(const ShardConfig& cfg, const std::vector<double>& rates)
      : buckets_(cfg.num_classes), staged_(cfg.num_classes) {
    ServerConfig sc;
    sc.num_classes = cfg.num_classes;
    sc.capacity = cfg.capacity;
    sc.metrics.num_classes = cfg.num_classes;
    sc.metrics.warmup_end = cfg.warmup;
    sc.metrics.window = cfg.window;
    sc.initial_rates = rates;
    server_ = std::make_unique<Server>(
        sim_, sc, std::make_unique<DedicatedRateBackend>(), nullptr, Rng(1));
    for (std::size_t c = 0; c < cfg.num_classes; ++c) {
      buckets_[c] = TokenBucket(rates[c], cfg.capacity * cfg.bucket_burst_seconds,
                                0.0);
    }
  }

  void drain(Time now, const std::vector<Request>& arrivals,
             const std::vector<double>* rates) {
    sim_.run_until(now);
    if (rates != nullptr) {
      server_->set_rates(*rates);
      for (std::size_t c = 0; c < buckets_.size(); ++c) {
        buckets_[c].set_rate((*rates)[c], now);
      }
    }
    for (Request r : arrivals) {
      r.arrival = now;
      staged_[r.cls].push_back(r);
    }
    for (std::size_t c = 0; c < staged_.size(); ++c) {
      auto& q = staged_[c];
      while (!q.empty() && buckets_[c].try_consume(q.front().size, now)) {
        server_->submit(q.front());
        q.pop_front();
      }
    }
  }

  std::size_t staged(ClassId c) const { return staged_[c].size(); }
  Server& server() { return *server_; }

 private:
  Simulator sim_;
  std::unique_ptr<Server> server_;
  std::vector<TokenBucket> buckets_;
  std::vector<std::deque<Request>> staged_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_metrics_bitwise_equal(const MetricsCollector& shard,
                                  const MetricsCollector& oracle) {
  ASSERT_EQ(shard.num_classes(), oracle.num_classes());
  for (ClassId c = 0; c < shard.num_classes(); ++c) {
    SCOPED_TRACE(testing::Message() << "class " << c);
    EXPECT_EQ(shard.completed(c), oracle.completed(c));
    EXPECT_EQ(bits(shard.slowdown(c).sum), bits(oracle.slowdown(c).sum));
    EXPECT_EQ(bits(shard.delay(c).sum), bits(oracle.delay(c).sum));
    EXPECT_EQ(bits(shard.service(c).sum), bits(oracle.service(c).sum));
    EXPECT_EQ(bits(shard.slowdown(c).mean()), bits(oracle.slowdown(c).mean()));
    const auto& a = shard.windows(c);
    const auto& b = oracle.windows(c);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
      EXPECT_EQ(bits(a[w].start), bits(b[w].start)) << "window " << w;
      EXPECT_EQ(a[w].count, b[w].count) << "window " << w;
      EXPECT_EQ(bits(a[w].mean), bits(b[w].mean)) << "window " << w;
      EXPECT_EQ(bits(a[w].max), bits(b[w].max)) << "window " << w;
    }
  }
}

TEST(Shard, ClassBlocksMatchTheEventEngineBitForBit) {
  ShardConfig cfg = two_class_config();
  cfg.bucket_burst_seconds = 1.0;  // burst = 1 work unit
  cfg.warmup = 0.5;
  cfg.initial_rates = {0.5, 0.5};
  Shard shard(cfg);
  EngineOracle oracle(cfg, cfg.initial_rates);

  std::size_t drains = 0;
  auto step = [&](Time now, const std::vector<Request>& arrivals,
                  const std::vector<double>* rates) {
    for (const Request& r : arrivals) ASSERT_TRUE(shard.submit(r));
    if (rates != nullptr) shard.apply_rates(*rates);
    shard.drain(now);
    oracle.drain(now, arrivals, rates);
    ++drains;
    const ShardSnapshot snap = shard.snapshot();
    for (ClassId c = 0; c < 2; ++c) {
      ASSERT_EQ(snap.staged[c], oracle.staged(c)) << "drain " << drains;
    }
  };

  // Scripted: every case the block must reproduce exactly.
  //  t=0  class 0 starts a unit request (due at 2 at rate 0.5); class 1
  //       releases a 3-unit giant against a 1-unit burst (bucket -2, in
  //       deficit) and stages the 0.5-unit request behind it.
  step(0.0, {make_request(0, 0.0, 1.0), make_request(1, 0.0, 3.0),
             make_request(1, 0.0, 0.5)},
       nullptr);
  ASSERT_EQ(shard.snapshot().staged[1], 1u);
  //  t=1  rate handoff mid-service on both classes: class 0 has 0.5 left,
  //       now at rate 0.25, so it completes at exactly t=3.
  const std::vector<double> handoff = {0.25, 0.75};
  step(1.0, {}, &handoff);
  //  t=2  class 0 queues behind its in-service request.
  step(2.0, {make_request(0, 2.0, 0.25)}, nullptr);
  //  t=3  completion tied exactly at the drain instant: it fires first,
  //       the queued request starts at 3, the new arrival queues behind it,
  //       and class 1's bucket is back at zero and releases its request.
  step(3.0, {make_request(0, 3.0, 0.5)}, nullptr);
  EXPECT_EQ(shard.metrics().completed(0), 1u);
  EXPECT_EQ(shard.snapshot().staged[1], 0u);
  //  A paused class keeps a finite completion time (rate floor).
  const std::vector<double> paused = {0.0, 1.0};
  step(3.5, {make_request(0, 3.5, 0.1)}, &paused);
  const std::vector<double> resumed = {0.5, 0.5};
  step(4.0, {}, &resumed);

  // Randomized, about 65 % load: batches of arrivals at irregular drain
  // instants, with rate handoffs every few drains, then empty drains until
  // every staged request is released and served.
  Rng rng(2024);
  Time now = 4.0;
  for (int k = 0; k < 1000; ++k) {
    now += rng.uniform(0.01, 0.3);
    std::vector<Request> arrivals;
    const std::uint64_t count = rng.below(2);
    for (std::uint64_t i = 0; i < count; ++i) {
      arrivals.push_back(make_request(static_cast<ClassId>(rng.below(2)), now,
                                      rng.uniform(0.05, 0.35)));
    }
    std::vector<double> rates;
    if (rng.below(7) == 0) {
      const double share = rng.uniform(0.2, 0.8);
      rates = {share, 1.0 - share};
    }
    step(now, arrivals, rates.empty() ? nullptr : &rates);
  }
  for (int k = 0; k < 100; ++k) step(now += 1.0, {}, nullptr);
  const Time end = now + 1.0;
  shard.finalize(end);
  oracle.drain(end, {}, nullptr);
  oracle.server().finalize();

  EXPECT_EQ(shard.outstanding(), 0u);
  EXPECT_GT(shard.metrics().completed_total(), 400u);
  expect_metrics_bitwise_equal(shard.metrics(), oracle.server().metrics());
}

// ------------------------------------------------------------ controller

TEST(Controller, ColdStartKeepsEqualSplitThenMatchesEq17) {
  ShardConfig cfg = two_class_config();
  Shard shard(cfg);
  ControllerConfig cc;
  cc.psd.delta = {1.0, 2.0};
  cc.psd.capacity = 1.0;
  cc.psd.mean_size = 0.01;
  cc.allocator = AllocatorKind::kPsd;
  Controller controller(cc, {{&shard}}, {1.0});

  // Cold: no estimator window closed yet -> no reallocation.
  controller.tick(0.5);
  EXPECT_EQ(controller.snapshot().allocations, 0u);
  EXPECT_DOUBLE_EQ(controller.snapshot().rate[0], 0.5);

  // Warm one window with known rates (30/s and 10/s of size 0.01).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(shard.submit(make_request(0, i * 0.03, 0.01)));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(shard.submit(make_request(1, i * 0.09, 0.01)));
  }
  shard.drain(1.0);
  controller.tick(1.0);
  EXPECT_EQ(controller.snapshot().allocations, 1u);

  PsdInput in;
  in.lambda = {30.0, 10.0};
  in.delta = cc.psd.delta;
  in.mean_size = cc.psd.mean_size;
  in.capacity = cc.psd.capacity;
  in.overload = OverloadPolicy::kClamp;
  const auto expected = allocate_psd_rates(in);
  const ControllerSnapshot snap = controller.snapshot();
  EXPECT_NEAR(snap.rate[0], expected.rate[0], 1e-12);
  EXPECT_NEAR(snap.rate[1], expected.rate[1], 1e-12);
  EXPECT_DOUBLE_EQ(snap.lambda[0], 30.0);

  // The shard adopts the slice at its next drain.
  shard.drain(1.1);
  EXPECT_NEAR(shard.snapshot().rate[0], expected.rate[0], 1e-12);
}

// --------------------------------------------------------------- runtime

RtConfig small_runtime_config() {
  RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = 0.5;
  cfg.size_dist = DistSpec::uniform(0.5, 1.5);
  cfg.mean_service_seconds = 1e-3;  // 500 req/s at load 0.5
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

TEST(Runtime, ManualDriveServesAndDifferentiates) {
  const RtConfig cfg = small_runtime_config();
  const RtReport r = drive_manual(cfg);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.outstanding, 0u);
  EXPECT_EQ(r.produced, r.completed_all);
  EXPECT_GT(r.cls[0].completed, 100u);
  EXPECT_GT(r.cls[1].completed, 100u);
  EXPECT_GT(r.reallocations, 10u);
  // Differentiation engaged: class 2 measurably slower than class 1 and in
  // the right neighborhood of the 2.0 target (deterministic, fixed seed).
  EXPECT_GT(r.cls[1].achieved_ratio, 1.3);
  EXPECT_LT(r.cls[1].achieved_ratio, 3.0);
  EXPECT_TRUE(std::isfinite(r.max_window_ratio_error));
}

TEST(Runtime, ManualDriveIsBitwiseDeterministic) {
  const RtConfig cfg = small_runtime_config();
  const RtReport a = drive_manual(cfg);
  const RtReport b = drive_manual(cfg);
  ASSERT_EQ(a.cls.size(), b.cls.size());
  EXPECT_EQ(a.produced, b.produced);
  EXPECT_EQ(a.completed_all, b.completed_all);
  EXPECT_EQ(a.drains, b.drains);
  for (std::size_t c = 0; c < a.cls.size(); ++c) {
    EXPECT_EQ(a.cls[c].completed, b.cls[c].completed);
    // Bitwise: identical draw order, identical drain schedule.
    EXPECT_DOUBLE_EQ(a.cls[c].mean_slowdown, b.cls[c].mean_slowdown);
    if (c > 0) {  // class 0's ratio-vs-itself is deliberately unset (NaN)
      EXPECT_DOUBLE_EQ(a.cls[c].window_ratio_p50, b.cls[c].window_ratio_p50);
    }
  }
}

TEST(Runtime, NoneAllocatorNeverReallocates) {
  RtConfig cfg = small_runtime_config();
  cfg.allocator = AllocatorKind::kNone;
  cfg.duration = 1.0;
  cfg.warmup = 0.2;
  const RtReport r = drive_manual(cfg);
  EXPECT_EQ(r.reallocations, 0u);
  EXPECT_GT(r.controller_ticks, 0u);
}

TEST(Runtime, TraceReplayDeliversEveryEntry) {
  RtConfig cfg = small_runtime_config();
  cfg.size_dist = DistSpec::deterministic(1.0);
  cfg.shards = 2;
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    // Recorded in model units where E[X] = 1; class alternates.
    trace.push_back({10.0 + i * 0.5, static_cast<ClassId>(i % 2), 1.0});
  }
  Runtime runtime(cfg, ManualClock{}, trace, cfg.mean_service_seconds);
  for (Time t = 0.005; t <= 0.06 + 1e-9; t += 0.005) runtime.step_to(t);
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  const RtReport r = runtime.report();
  EXPECT_EQ(r.produced, 100u);
  EXPECT_EQ(r.completed_all, 100u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(Runtime, ThreadedRunRejectsManualClockAndViceVersa) {
  RtConfig cfg = small_runtime_config();
  Runtime manual(cfg, ManualClock{});
  EXPECT_THROW(manual.run(), std::invalid_argument);
  Runtime steady(cfg, SteadyClock{});
  EXPECT_THROW(steady.step_to(1.0), std::invalid_argument);
}

TEST(ThreadGroup, StopRethrowsAStepFailureOnce) {
  const ClockVariant clock{SteadyClock{}};
  ThreadGroup group(clock);
  std::atomic<bool> fired{false};
  group.every(1e-3, [&fired](Time) {
    fired.store(true);
    throw std::runtime_error("tick failed");
  });
  while (!fired.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_THROW(group.stop(), std::runtime_error);
  EXPECT_NO_THROW(group.stop());
}

TEST(Runtime, ThreadedRunBalancesItsBooks) {
  // About one wall second of real threads: two shards, two generators and
  // the controller race; once run() joined them every produced request is
  // completed, dropped, shed or still outstanding.
  RtConfig cfg = small_runtime_config();
  cfg.controller_period = 0.05;
  cfg.warmup = 0.3;
  cfg.duration = 1.0;
  Runtime runtime(cfg, SteadyClock{});
  const RtReport r = runtime.run();
  EXPECT_GT(r.produced, 0u);
  EXPECT_EQ(r.produced,
            r.completed_all + r.dropped + r.shed_total + r.outstanding);
  EXPECT_GT(r.controller_ticks, 0u);
  EXPECT_GE(r.elapsed, cfg.duration);
  EXPECT_TRUE(std::isfinite(r.cls[1].window_ratio_p50));
  EXPECT_TRUE(std::isfinite(r.max_window_ratio_error));
}

TEST(RtConfig, ValidatesInputs) {
  RtConfig cfg;
  cfg.load = 1.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.delta = {2.0, 1.0};  // decreasing
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.warmup = cfg.duration;  // no measurement interval
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = RtConfig{};
  cfg.load_share = {0.9, 0.3};  // sums to 1.2
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Non-finite settings: an infinite duration never ends, an infinite
  // period silently turns the controller off.
  for (const double bad : {kInf, -kInf, kNaN}) {
    cfg = RtConfig{};
    cfg.duration = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = RtConfig{};
    cfg.controller_period = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = RtConfig{};
    cfg.mean_service_seconds = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = RtConfig{};
    cfg.warmup = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = RtConfig{};
    cfg.delta = {1.0, bad};
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = RtConfig{};
    cfg.bucket_burst_seconds = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace psd::rt
