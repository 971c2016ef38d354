// Serve workloads: an embedded rt::Runtime behind rt::RuntimeHandle, fed by
// a harness-owned rt::SyntheticLoadGen in sink mode.
//
// Two phases, each measuring only what it can measure steadily:
//   * deterministic — a ManualClock drive at a fixed step.  Every quality
//     number (ratio error, slowdowns, goodput) comes from here, and the
//     harness drive is checked bit for bit against the program's own
//     Runtime(cfg, ManualClock{}) + step_to run.
//   * threaded — SteadyClock shard and controller threads plus one
//     generator thread.  Only CPU time per offered request comes from here.
// The traced run (--trace 1) times the calls into each layer from outside
// and keeps sampled spans in memory until the end.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "core/psd_allocation.hpp"
#include "dist/sampler.hpp"
#include "rt/handle.hpp"
#include "rt/loadgen.hpp"
#include "rt/runtime.hpp"

namespace pb {
namespace {

using psd::Request;
using psd::Time;
using psd::rt::ClockVariant;
using psd::rt::EmbeddedTag;
using psd::rt::ManualClock;
using psd::rt::RtConfig;
using psd::rt::RtReport;
using psd::rt::Runtime;
using psd::rt::RuntimeHandle;
using psd::rt::SteadyClock;
using psd::rt::SyntheticLoadGen;

/// Slowdown histogram layout of the rt report fold (rt/shard.cpp).
psd::LogHistogram empty_slowdown_hist() {
  return psd::LogHistogram(1e-3, 1e4, 20);
}

/// Longest model time quiesce() may add after the load stops.
constexpr double kQuiesceMax = 10.0;
/// Steps and threaded submits sampled into spans: 1 in (mask + 1).
constexpr std::uint64_t kStepSampleMask = 63;
constexpr std::uint64_t kLagSampleMask = 15;
/// Threaded passes: the generator checks for ring room every (mask + 1)
/// submits.
constexpr std::uint64_t kRoomCheckMask = 1023;
/// Longest a threaded pass waits for its backlog after the load stops.
constexpr double kDrainMaxSeconds = 10.0;

struct ServeWorkload {
  RtConfig cfg;           ///< Shared by both phases (duration set per phase).
  double det_step = 0.0;  ///< ManualClock step, seconds.
  double det_duration = 0.0;
  double det_warmup = 0.0;
  double mt_duration = 0.0;  ///< Generator horizon of the timed pass.
  bool overload = false;
};

ServeWorkload make_workload(const RunArgs& a) {
  ServeWorkload w;
  RtConfig& c = w.cfg;
  c.shards = 2;
  c.loadgens = 1;
  c.seed = 0x5EEDBA5EULL ^ (a.seed * 0x9E3779B97F4A7C15ULL);
  // Both serve workloads run plain eq. 17 (kPsd) on bounded sizes: with
  // the adaptive integrator or Bounded-Pareto sizes the deterministic
  // quality numbers spread 45-50 % across seeds even over 9 model seconds,
  // far past any usable bound.  Without them they repeat within ~2 %.
  c.allocator = psd::AllocatorKind::kPsd;
  c.size_dist = psd::DistSpec::uniform(0.5, 1.5);
  w.det_step = 50e-6;  // close to the threaded drain interval
  if (a.workload == "serve_highrate") {
    // 2 shards x 0.9 / 1 us = 1.8M req/s offered, about half the
    // one-generator knee.
    c.delta = {1.0, 2.0};
    c.load = 0.9;
    c.mean_service_seconds = 1e-6;
  } else if (a.workload == "serve_overload") {
    // 150 % of capacity (2 shards / 2 us = 1M req/s) behind a delta-aware
    // admission gate.
    c.delta = {1.0, 2.0, 4.0};
    c.load = 1.5;
    c.mean_service_seconds = 2e-6;
    c.admission = psd::AdmissionSpec::parse("delta-aware");
    w.overload = true;
  } else {
    throw std::invalid_argument("unknown serve workload " + a.workload);
  }
  // Phase lengths scale with --seconds; at the default 10 s the
  // deterministic phase covers 3 model seconds (48 metrics windows per
  // class and shard after warmup) and the timed threaded pass 3 wall
  // seconds.
  w.det_duration = 0.3 * a.seconds;
  w.det_warmup = 0.2 * w.det_duration;
  w.mt_duration = 0.3 * a.seconds;
  return w;
}

double capacity_per_s(const RtConfig& c) {
  return static_cast<double>(c.shards) / c.mean_service_seconds;
}

/// Harness side of the sink: counts every offered request at the submit
/// call and, when asked, times submits or samples generator lag.
struct Feed {
  RuntimeHandle* handle = nullptr;
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  double first_submit = 0.0;  ///< wall_now() of the first submit.

  // Traced deterministic drive: when `timing`, every submit is a span.
  bool timing = false;
  Tracer* tracer = nullptr;
  std::uint64_t parent = 0;
  double submit_ns = 0.0;
  std::uint64_t submits_timed = 0;

  // Traced threaded pass: 1 in (lag_mask + 1) submits records how late the
  // generator ran (submit time minus due time).  All-ones = off.
  std::uint64_t lag_mask = ~std::uint64_t{0};
  const ClockVariant* clock = nullptr;
  std::vector<double> lag;

  // Threaded passes: back-pressure instead of ring-full drops.  Between two
  // checks no shard takes more than kRoomCheckMask + 1 submits, so waiting
  // at each check until every shard's ring has that much room means no
  // submit finds a full ring.  The wait ends early only when `stop` is set.
  Runtime* rt = nullptr;
  const std::atomic<bool>* stop = nullptr;
  std::uint64_t room_waits = 0;  ///< Checks that had to wait.

  /// Upper bound on a shard's ring occupancy, pushed - shed - admitted.
  /// Only this thread pushes; the admitted count comes from the last
  /// published snapshot, read first, so it can only undercount.
  static std::uint64_t ring_bound(psd::rt::Shard& sh) {
    const psd::rt::ShardSnapshot snap = sh.snapshot();
    std::uint64_t admitted = 0;
    for (std::uint32_t k = 0; k < snap.num_classes; ++k) {
      admitted += snap.accepted[k];
    }
    const std::uint64_t unshed = sh.outstanding() + sh.completed_all();
    return unshed > admitted ? unshed - admitted : 0;
  }

  bool shards_have_room() const {
    const std::uint64_t limit =
        rt->config().ingress_capacity - (kRoomCheckMask + 1);
    for (std::size_t i = 0; i < rt->num_shards(); ++i) {
      if (ring_bound(rt->shard(i)) > limit) return false;
    }
    return true;
  }

  void wait_for_room() {
    if (shards_have_room()) return;
    ++room_waits;
    while (!shards_have_room() && !stop->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void push(const Request& r) {
    if (++offered == 1) first_submit = wall_now();
    if ((offered & lag_mask) == 0) lag.push_back(clock->now() - r.arrival);
    if (rt != nullptr && (offered & kRoomCheckMask) == 0) wait_for_room();
    bool ok;
    if (timing) {
      Span s{"rt.submit", tracer->next_id(), parent, r.id, wall_ns(), 0};
      ok = handle->submit(r);
      s.end_ns = wall_ns();
      submit_ns += static_cast<double>(s.end_ns - s.start_ns);
      ++submits_timed;
      tracer->add(s);
    } else {
      ok = handle->submit(r);
    }
    if (!ok) ++dropped;
  }
};

/// The generator Runtime's own constructor builds for generator 0 — same
/// master seed, fork index, rates, sampler and start — in sink mode.
std::unique_ptr<SyntheticLoadGen> make_gen(const RtConfig& c, Feed& feed) {
  const psd::SamplerVariant sampler = psd::make_sampler(c.size_dist);
  const std::vector<double> lam = c.lambdas();
  const double inv_gens = 1.0 / static_cast<double>(c.loadgens);
  psd::Rng master(c.seed);
  std::vector<SyntheticLoadGen::ClassLoad> classes;
  for (std::size_t k = 0; k < c.num_classes(); ++k) {
    classes.push_back({static_cast<psd::ClassId>(k),
                       psd::PoissonArrivals(lam[k] * inv_gens), sampler});
  }
  return std::make_unique<SyntheticLoadGen>(
      0, master.fork(100), std::move(classes),
      [&feed](const Request& r) { feed.push(r); }, 0.0);
}

// ------------------------------------------------------ result serialization

void put(std::string& out, double v) {
  char b[sizeof(double)];
  std::memcpy(b, &v, sizeof(v));
  out.append(b, sizeof(b));
}

void put(std::string& out, std::uint64_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  out.append(b, sizeof(b));
}

/// Every report field, the controller's final rates and every shard's
/// slowdown histogram bins, as raw bytes (NaN payloads included).
std::string result_bytes(Runtime& rt, const RtReport& r) {
  std::string s;
  for (const auto& c : r.cls) {
    put(s, c.delta);
    put(s, c.completed);
    put(s, c.dropped);
    put(s, c.shed);
    put(s, c.shed_rate);
    put(s, c.mean_slowdown);
    put(s, c.slowdown_p50);
    put(s, c.slowdown_p95);
    put(s, c.slowdown_p99);
    put(s, c.achieved_ratio);
    put(s, c.window_ratio_p50);
    put(s, c.target_ratio);
    put(s, c.mean_ingress_wait);
    put(s, c.settle_seconds);
  }
  for (double v : {r.max_ratio_error, r.max_window_ratio_error,
                   r.max_settle_seconds, r.goodput,
                   r.survivor_window_ratio_error, r.elapsed,
                   r.requests_per_sec}) {
    put(s, v);
  }
  for (std::uint64_t v : {r.produced, r.dropped, r.shed_total,
                          r.completed_total, r.completed_all, r.outstanding,
                          r.controller_ticks, r.reallocations, r.drains}) {
    put(s, v);
  }
  const auto cs = rt.controller().snapshot();
  for (std::size_t c = 0; c < r.cls.size(); ++c) {
    put(s, cs.rate[c]);
    put(s, cs.lambda[c]);
  }
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    for (const auto& h : rt.shard(i).slowdown_hists()) {
      for (std::size_t b = 0; b < h.bin_count(); ++b) put(s, h.bin(b));
    }
  }
  return s;
}

psd::LogHistogram merged_slowdowns(Runtime& rt) {
  psd::LogHistogram all = empty_slowdown_hist();
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    for (const auto& h : rt.shard(i).slowdown_hists()) all.merge(h);
  }
  return all;
}

// ------------------------------------------------------ deterministic phase

RtConfig det_config(const ServeWorkload& w) {
  RtConfig c = w.cfg;
  c.duration = w.det_duration;
  c.warmup = w.det_warmup;
  // Telemetry on for the slowdown histograms, every completion recorded.
  c.obs.enabled = true;
  c.obs.sample_period = 1;
  return c;
}

std::size_t det_steps(const ServeWorkload& w) {
  return static_cast<std::size_t>(std::ceil(w.det_duration / w.det_step));
}

/// What one deterministic drive leaves behind.
struct DetRun {
  std::string bytes;
  RtReport report;
  psd::LogHistogram hist = empty_slowdown_hist();
  Ledger ledger;
  double wall_s = 0.0;
};

/// The program's own deterministic run: internal generators, step_to.
DetRun det_reference(const ServeWorkload& w) {
  const RtConfig c = det_config(w);
  Runtime rt(c, ManualClock{});
  for (std::size_t k = 1; k <= det_steps(w); ++k) {
    rt.step_to(static_cast<double>(k) * w.det_step);
  }
  rt.quiesce(kQuiesceMax, w.det_step);
  rt.finish();
  DetRun d;
  d.report = rt.report();
  d.bytes = result_bytes(rt, d.report);
  return d;
}

DetRun finish_det(Runtime& rt, RuntimeHandle& h, const Feed& feed) {
  h.finish();
  DetRun d;
  d.report = h.report();
  // An embedded runtime leaves the production count to whoever feeds it;
  // the program's own run reports it, so fill it in before comparing.
  d.report.produced = feed.offered;
  d.bytes = result_bytes(rt, d.report);
  d.hist = merged_slowdowns(rt);
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    drops += rt.shard(i).dropped();
  }
  d.ledger = {"deterministic", feed.offered, d.report.completed_all,
              d.report.shed_total, feed.dropped, drops, h.outstanding()};
  return d;
}

/// The harness drive through the public entry points: generator steps
/// into the handle, then RuntimeHandle::step_to and Runtime::quiesce.
DetRun det_harness(const ServeWorkload& w) {
  const RtConfig c = det_config(w);
  Runtime rt(c, ManualClock{}, EmbeddedTag{});
  RuntimeHandle h(rt);
  Feed feed;
  feed.handle = &h;
  auto gen = make_gen(c, feed);
  const double w0 = wall_now();
  for (std::size_t k = 1; k <= det_steps(w); ++k) {
    const Time t = static_cast<double>(k) * w.det_step;
    gen->step_until(std::min(t, c.duration));
    h.step_to(t);
  }
  rt.quiesce(kQuiesceMax, w.det_step);
  DetRun d = finish_det(rt, h, feed);
  d.wall_s = wall_now() - w0;
  return d;
}

/// Per-layer totals of the traced deterministic drive.
struct LayerLedger {
  double drive_ns = 0.0;
  double gen_ns_untimed = 0.0;       ///< step_until, steps without spans.
  std::uint64_t gen_req_untimed = 0;
  double submit_ns = 0.0;            ///< Timed submits only.
  std::uint64_t submits_timed = 0;
  double gen_ns = 0.0;               ///< step_until, all steps.
  double drain_ns = 0.0;
  std::uint64_t drains = 0;
  std::uint64_t popped = 0;
  double staged_sum = 0.0;
  double tick_ns = 0.0;
  std::uint64_t ticks = 0;
};

/// The traced drive: Runtime::step_to and quiesce taken apart into the
/// calls they make — clock, generator, each shard's drain, controller
/// ticks — each timed from outside.  Must stay bit-identical to the
/// program's own run, which the caller checks.
DetRun det_traced(const ServeWorkload& w, Tracer& tracer, LayerLedger& L) {
  const RtConfig c = det_config(w);
  Runtime rt(c, ManualClock{}, EmbeddedTag{});
  RuntimeHandle h(rt);
  Feed feed;
  feed.handle = &h;
  feed.tracer = &tracer;
  auto gen = make_gen(c, feed);
  ManualClock* mc = rt.clock().manual();
  Time next_tick = c.controller_period;
  std::uint64_t step_no = 0;

  auto step = [&](Time t) {
    const bool sampled = (++step_no & kStepSampleMask) == 0;
    Span root{"drive.step", sampled ? tracer.next_id() : 0, 0, 0, wall_ns(), 0};
    mc->advance_to(t);

    Span g{"loadgen.step_until", sampled ? tracer.next_id() : 0, root.id, 0,
           0, 0};
    feed.timing = sampled;
    feed.parent = g.id;
    const std::uint64_t before = feed.offered;
    g.start_ns = wall_ns();
    gen->step_until(std::min(t, c.duration));
    g.end_ns = wall_ns();
    feed.timing = false;
    const double gns = static_cast<double>(g.end_ns - g.start_ns);
    L.gen_ns += gns;
    if (!sampled) {
      L.gen_ns_untimed += gns;
      L.gen_req_untimed += feed.offered - before;
    }

    for (std::size_t i = 0; i < rt.num_shards(); ++i) {
      Span d{"rt.drain", sampled ? tracer.next_id() : 0, root.id, 0,
             wall_ns(), 0};
      L.popped += rt.shard(i).drain(t);
      d.end_ns = wall_ns();
      L.drain_ns += static_cast<double>(d.end_ns - d.start_ns);
      ++L.drains;
      const auto snap = rt.shard(i).snapshot();
      for (std::size_t k = 0; k < c.num_classes(); ++k) {
        L.staged_sum += static_cast<double>(snap.staged[k]);
      }
      if (sampled) tracer.add(d);
    }
    while (next_tick <= t) {
      Span k{"rt.tick", sampled ? tracer.next_id() : 0, root.id, 0,
             wall_ns(), 0};
      rt.controller_mut().tick(next_tick);
      k.end_ns = wall_ns();
      L.tick_ns += static_cast<double>(k.end_ns - k.start_ns);
      ++L.ticks;
      next_tick += c.controller_period;
      if (sampled) tracer.add(k);
    }
    root.end_ns = wall_ns();
    if (sampled) {
      tracer.add(g);
      tracer.add(root);
    }
  };

  const std::uint64_t d0 = wall_ns();
  for (std::size_t k = 1; k <= det_steps(w); ++k) {
    step(static_cast<double>(k) * w.det_step);
  }
  // Runtime::quiesce, step for step.
  Time t = mc->now();
  const Time limit = t + kQuiesceMax;
  while (rt.total_outstanding() > 0 && t < limit) {
    t = std::min(t + w.det_step, limit);
    step(t);
  }
  L.drive_ns = static_cast<double>(wall_ns() - d0);
  L.submit_ns = feed.submit_ns;
  L.submits_timed = feed.submits_timed;
  DetRun d = finish_det(rt, h, feed);
  d.wall_s = 1e-9 * L.drive_ns;
  return d;
}

// ---------------------------------------------------------- threaded phase

struct MtRun {
  double horizon = 0.0;  ///< Generator stop time, wall seconds.
  double setup_s = 0.0;  ///< Runtime build + thread start to first submit.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  RtReport report;
  Ledger ledger;
  std::uint64_t room_waits = 0;  ///< Generator waits for ring room.
  std::vector<double> lag;
};

/// Sets `stop` and joins every thread on every exit path.
struct ThreadGroup {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  void stop_and_join() {
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  ~ThreadGroup() { stop_and_join(); }
};

/// One threaded pass.  The harness owns the threads, as the cluster tier
/// does for its nodes: Runtime::run()'s shard and controller loops, plus a
/// generator thread that stops producing at `horizon`.  Unlike run(), which
/// stops at a fixed wall time, the pass ends only once the generator has
/// finished and every accepted request completed (or kDrainMaxSeconds went
/// by), so a generator the host delays cannot submit into stopped shards.
MtRun run_threaded(const ServeWorkload& w, double horizon, bool traced) {
  RtConfig c = w.cfg;
  c.duration = horizon;
  c.warmup = std::min(0.1, 0.5 * horizon);
  MtRun m;
  m.horizon = horizon;
  const double t0 = wall_now();
  Runtime rt(c, SteadyClock{}, EmbeddedTag{});
  RuntimeHandle h(rt);
  const ClockVariant& clk = rt.clock();
  Feed feed;
  feed.handle = &h;
  feed.clock = &clk;
  feed.rt = &rt;
  if (traced) {
    feed.lag_mask = kLagSampleMask;
    feed.lag.reserve(static_cast<std::size_t>(
        horizon * static_cast<double>(c.shards) * c.load /
            c.mean_service_seconds / static_cast<double>(kLagSampleMask + 1) +
        1024));
  }
  auto gen = make_gen(c, feed);
  // After everything its threads touch, so it joins them first.
  ThreadGroup group;
  const std::atomic<bool>& stop = group.stop;
  feed.stop = &stop;
  const double cpu0 = process_cpu();
  const double w0 = wall_now();
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    group.threads.emplace_back([&rt, &clk, &stop, i] {
      psd::rt::Shard& sh = rt.shard(i);
      while (!stop.load(std::memory_order_acquire)) {
        if (sh.drain(clk.now()) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  group.threads.emplace_back([&rt, &clk, &stop, &c] {
    Time next = c.controller_period;
    while (!stop.load(std::memory_order_acquire)) {
      const Time now = clk.now();
      if (now >= next) {
        rt.controller_mut().tick(now);
        next = now + c.controller_period;
      }
      const double dt = next - clk.now();
      if (dt > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(dt, 1e-3)));
      }
    }
  });
  std::thread& producer = group.threads.emplace_back([&] {
    // Runtime::run()'s own generator loop, bounded at `horizon`.
    for (Time now = clk.now(); now < horizon; now = clk.now()) {
      if (stop.load(std::memory_order_acquire)) return;
      gen->step_until(now);
      const double dt = gen->next_time() - clk.now();
      if (dt > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(dt, 1e-3)));
      }
    }
    gen->step_until(horizon);
  });
  producer.join();
  const double drain_end = wall_now() + kDrainMaxSeconds;
  while (h.outstanding() > 0 && wall_now() < drain_end) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  group.stop_and_join();
  m.wall_s = wall_now() - w0;
  m.cpu_s = process_cpu() - cpu0;
  m.setup_s = feed.first_submit - t0;
  rt.finish();
  m.report = h.report();
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    drops += rt.shard(i).dropped();
  }
  m.ledger = {"threaded", feed.offered, m.report.completed_all,
              m.report.shed_total, feed.dropped, drops, h.outstanding()};
  m.room_waits = feed.room_waits;
  m.lag = std::move(feed.lag);
  return m;
}

// ------------------------------------------------------------ layer probes

/// Mean ns per draw of the workload's size sampler.
double draw_ns(const psd::DistSpec& spec, std::uint64_t seed, std::size_t n) {
  const psd::SamplerVariant s = psd::make_sampler(spec);
  psd::Rng rng(seed);
  double sink = 0.0;
  const std::uint64_t t0 = wall_ns();
  for (std::size_t i = 0; i < n; ++i) sink += s.sample(rng);
  const double ns = static_cast<double>(wall_ns() - t0);
  if (!(sink > 0.0)) throw std::runtime_error("sampler drew no work");
  return ns / static_cast<double>(n);
}

/// Mean us per eq.-17 allocation over `inputs`, repeated `reps` times.
double alloc_us(const std::vector<psd::PsdInput>& inputs, std::size_t reps) {
  double sink = 0.0;
  const std::uint64_t t0 = wall_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& in : inputs) sink += psd::allocate_psd_rates(in).rate[0];
  }
  const double ns = static_cast<double>(wall_ns() - t0);
  if (!(sink > 0.0)) throw std::runtime_error("allocation gave no rate");
  return ns * 1e-3 / static_cast<double>(reps);
}

/// Duration an empty span measures: the cost of one clock read.
double empty_span_ns() {
  constexpr int kReads = 100000;
  const std::uint64_t t0 = wall_ns();
  std::uint64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = wall_ns();
  return static_cast<double>(last - t0) / kReads;
}

double completion_weighted_slowdown(const RtReport& r) {
  double sum = 0.0;
  double n = 0.0;
  for (const auto& c : r.cls) {
    if (c.completed == 0) continue;
    sum += c.mean_slowdown * static_cast<double>(c.completed);
    n += static_cast<double>(c.completed);
  }
  return n > 0.0 ? sum / n : psd::kNaN;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunOutcome run_serve(const RunArgs& args) {
  const ServeWorkload w = make_workload(args);
  RunOutcome out;
  const double cap = capacity_per_s(w.cfg);

  // Cold starts: short threaded passes, each sampling the set-up time.
  // They run in three batches spread over the run, so the median set-up
  // time does not hang on the machine's state at one moment; the batches
  // before the timed pass are also its untimed warm-up.
  std::vector<double> setups;
  std::vector<MtRun> passes;
  auto cold_starts = [&](int n) {
    for (int i = 0; i < n; ++i) {
      passes.push_back(run_threaded(w, 0.01, false));
      setups.push_back(passes.back().setup_s);
    }
  };
  cold_starts(args.trace ? 1 : 7);

  // --- deterministic phase: the harness drive (traced or not) and the
  //     program's own run, which must agree bit for bit.
  Tracer tracer;
  LayerLedger L;
  const DetRun det = args.trace ? det_traced(w, tracer, L) : det_harness(w);
  const DetRun ref = det_reference(w);
  // Peak RSS so far: set-up and the deterministic phase, which holds the
  // same components as the threaded phase but allocates in a fixed order.
  const double rss = peak_rss_mb();
  note(out.failures, check_identical(args.trace ? "traced drive vs step_to"
                                                : "harness drive vs step_to",
                                     det.bytes, ref.bytes));
  note(out.failures, check_conservation(det.ledger, /*drained=*/true));
  if (w.overload) {
    note(out.failures, check_overload("deterministic",
                                      static_cast<double>(det.ledger.offered) /
                                          w.det_duration,
                                      cap, det.report.shed_total));
  }
  out.det_digest = fnv1a(det.bytes);
  const std::uint64_t samples = det.hist.count();
  if (samples < 10000) {
    out.failures.push_back("slowdown_p999 rests on " +
                           std::to_string(samples) +
                           " samples, fewer than 10 beyond it");
  }
  std::printf("deterministic: %llu offered, %llu slowdown samples, "
              "%.3f s drive, digest %016llx\n",
              static_cast<unsigned long long>(det.ledger.offered),
              static_cast<unsigned long long>(samples), det.wall_s,
              static_cast<unsigned long long>(out.det_digest));

  // --- threaded phase.
  if (!args.trace) cold_starts(7);
  const MtRun timed =
      run_threaded(w, args.trace ? 0.5 * w.mt_duration : w.mt_duration, false);
  passes.push_back(timed);
  setups.push_back(timed.setup_s);
  MtRun traced;
  if (args.trace) {
    traced = run_threaded(w, 0.5 * w.mt_duration, true);
    passes.push_back(traced);
  } else {
    cold_starts(6);
  }
  for (const auto& p : passes) {
    note(out.failures, check_conservation(p.ledger, /*drained=*/false));
    // The gate needs a few estimator windows before it sheds, which the
    // short cold-start passes never reach.
    if (w.overload && p.horizon >= 0.5) {
      note(out.failures,
           check_overload("threaded",
                          static_cast<double>(p.ledger.offered) / p.horizon,
                          cap, p.report.shed_total));
    }
  }
  out.attempted = det.ledger.offered;
  out.failed = det.ledger.dropped + det.ledger.outstanding;
  std::uint64_t mt_dropped = 0;
  std::uint64_t mt_outstanding = 0;
  std::uint64_t mt_room_waits = 0;
  for (const auto& p : passes) {
    out.attempted += p.ledger.offered;
    mt_dropped += p.ledger.dropped;
    mt_outstanding += p.ledger.outstanding;
    mt_room_waits += p.room_waits;
  }
  out.failed += mt_dropped + mt_outstanding;
  std::printf("threaded passes: %zu, %llu dropped, %llu outstanding, "
              "%llu waits for ring room\n",
              passes.size(), static_cast<unsigned long long>(mt_dropped),
              static_cast<unsigned long long>(mt_outstanding),
              static_cast<unsigned long long>(mt_room_waits));
  const double cpu_us = 1e6 * timed.cpu_s /
                        static_cast<double>(std::max<std::uint64_t>(
                            timed.ledger.offered, 1));
  std::printf("threaded: %llu offered in %.3f s wall, %.4f us CPU/req, "
              "%llu dropped, %llu outstanding\n",
              static_cast<unsigned long long>(timed.ledger.offered),
              timed.wall_s, cpu_us,
              static_cast<unsigned long long>(timed.ledger.dropped),
              static_cast<unsigned long long>(timed.ledger.outstanding));

  const RtReport& r = det.report;
  const double measured = w.det_duration - w.det_warmup;
  Metrics& m = out.metrics;
  if (!args.trace) {
    m.add("setup_s", median(setups), "s");
    m.add("rss_mb", rss, "MB");
    m.add("cpu_us_per_req", cpu_us, "us");
    m.add("req_per_s",
          static_cast<double>(timed.report.completed_all) / timed.wall_s,
          "1/s");
    m.add("ratio_err", r.max_window_ratio_error, "fraction");
    m.add("slowdown_mean", completion_weighted_slowdown(r), "x");
    m.add("slowdown_p50", det.hist.quantile(0.5), "x");
    m.add("slowdown_p999", det.hist.quantile(0.999), "x");
    m.add("goodput_frac",
          static_cast<double>(r.completed_total) / measured / cap, "fraction");
    return out;
  }

  // --- per-layer sheet of the traced run.  A submit span is a few tens of
  // ns, so the cost of an empty span (one clock read) is taken off it.
  const double gen_req = static_cast<double>(L.gen_req_untimed);
  const double submit_mean =
      ratio(L.submit_ns, static_cast<double>(L.submits_timed)) -
      empty_span_ns();
  m.add("loadgen.ns_per_req",
        ratio(L.gen_ns_untimed - submit_mean * gen_req, gen_req), "ns");
  m.add("rt.submit_ns", submit_mean, "ns");
  m.add("rt.submit_fail_frac",
        ratio(static_cast<double>(det.ledger.dropped),
              static_cast<double>(det.ledger.offered)),
        "fraction");
  m.add("rt.drain_ns_per_req",
        ratio(L.drain_ns, static_cast<double>(L.popped)), "ns");
  m.add("rt.drain_batch_mean",
        ratio(static_cast<double>(L.popped), static_cast<double>(L.drains)),
        "req");
  m.add("rt.staged_mean", ratio(L.staged_sum, static_cast<double>(L.drains)),
        "req");
  m.add("rt.tick_us", 1e-3 * ratio(L.tick_ns, static_cast<double>(L.ticks)),
        "us");
  m.add("rt.realloc_frac",
        ratio(static_cast<double>(r.reallocations),
              static_cast<double>(r.controller_ticks)),
        "fraction");
  m.add("admission.shed_frac",
        ratio(static_cast<double>(r.shed_total),
              static_cast<double>(det.ledger.offered)),
        "fraction");
  m.add("gen.lag_us_p50", 1e6 * quantile(traced.lag, 0.5), "us");
  m.add("gen.lag_us_p99", 1e6 * quantile(traced.lag, 0.99), "us");
  double wait = 0.0;
  double waited = 0.0;
  for (const auto& c : traced.report.cls) {
    if (c.completed == 0 || !std::isfinite(c.mean_ingress_wait)) continue;
    wait += c.mean_ingress_wait * static_cast<double>(c.completed);
    waited += static_cast<double>(c.completed);
  }
  m.add("rt.ingress_wait_us", 1e6 * ratio(wait, waited), "us");
  m.add("rt.drain_batch_mean_mt",
        ratio(static_cast<double>(traced.ledger.offered -
                                  traced.ledger.dropped),
              static_cast<double>(traced.report.drains)),
        "req");
  m.add("dist.draw_ns", draw_ns(w.cfg.size_dist, w.cfg.seed, 4000000), "ns");
  {
    psd::PsdInput in;
    in.lambda = w.cfg.lambdas();
    in.delta = w.cfg.delta;
    in.mean_size = psd::make_sampler(w.cfg.size_dist).mean();
    in.capacity = w.cfg.shard_capacity() * static_cast<double>(w.cfg.shards);
    in.overload = psd::OverloadPolicy::kClamp;
    m.add("core.alloc_us", alloc_us({in}, 200000), "us");
  }
  m.add("experiment.ns_per_req", 0.0, "ns");
  m.add("experiment.point_ms_p99", 0.0, "ms");
  m.add("sweep.pool_eff", 0.0, "fraction");
  m.add("det.slowdown_samples", static_cast<double>(samples), "count");
  const double cpu_traced = 1e6 * traced.cpu_s /
                            static_cast<double>(std::max<std::uint64_t>(
                                traced.ledger.offered, 1));
  m.add("trace.overhead_frac", cpu_traced / cpu_us - 1.0, "fraction");
  m.add("ledger.residual_frac",
        ratio(L.drive_ns - L.gen_ns - L.drain_ns - L.tick_ns, L.drive_ns),
        "fraction");
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  if (!tracer.write(path, "\"workload\": \"" + args.workload + "\"")) {
    out.failures.push_back("cannot write spans to " + path);
  } else {
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
  return out;
}

}  // namespace pb
