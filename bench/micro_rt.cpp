// Real-time runtime benchmark: requests/sec through the full rt stack and
// achieved-vs-target slowdown ratio error at load 30 / 60 / 90.
//
// Appends one JSONL record per load point to BENCH_rt.json (suite "rt").
// Because the load generators are open loop, ops_per_sec tracks the OFFERED
// rate whenever the runtime keeps up — so the gated number asserts "the
// stack sustained the load without stalling or dropping", which is stable
// across machines, unlike a saturation throughput.  ratio_error rides along
// ungated as the differentiation-quality trend.
//
//   ./micro_rt [records.json]     (default BENCH_rt.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "json_bench.hpp"
#include "rt/runtime.hpp"
#include "rt/shard.hpp"

namespace {

// Telemetry / tracing overhead probe: the submit -> drain -> complete path
// on one shard, driven in model time on this thread (no open-loop pacing,
// so the measured ns/request is the actual per-request cost and the
// telemetry branch + histogram updates — or the trace-sampling branch +
// span matching + ring pushes — show up directly).
//
// One timed rep of identical work, the probed feature off or on:
double shard_drain_rep_ns(bool telemetry, bool tracing,
                          std::uint64_t* requests_out) {
  constexpr int kBatch = 512;    // requests per drain cycle
  constexpr int kIters = 400;    // drain cycles per timed rep
  constexpr double kSize = 1e-5;  // work units; 2e-5 s at the 0.5 split

  psd::rt::ShardConfig cfg;
  cfg.num_classes = 2;
  cfg.window = 0.05;
  cfg.bucket_burst_seconds = 10.0;
  cfg.telemetry = telemetry;
  cfg.tracing = tracing;
  cfg.trace_sample_period = 64;
  // Nothing drains the ring inside a rep; size it past the sampled span
  // count (kIters * kBatch / 64 = 3200) so every push pays the slot-write
  // cost, not the cheaper drop path.
  cfg.span_ring_capacity = 1 << 13;
  psd::rt::Shard shard(cfg);

  // ~43k requests per MODEL second — production-like density, so costs
  // paid on a model-time cadence (estimator rolls, telemetry publishes)
  // amortize over a realistic request count instead of dominating the
  // per-request figure the way they would at a toy arrival rate.
  double t = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < kIters; ++it) {
    for (int i = 0; i < kBatch; ++i) {
      psd::Request r;
      r.cls = static_cast<psd::ClassId>(i & 1);
      r.arrival = t + i * 1e-8;
      r.size = kSize;
      shard.submit(r);
    }
    // Service time per class: (kBatch/2) * kSize / 0.5 = 0.00512 s.
    t += 0.006;
    shard.drain(t);  // pop + schedule
    t += 0.006;
    shard.drain(t);  // fire every completion
  }
  const auto done = std::chrono::steady_clock::now();
  *requests_out = static_cast<std::uint64_t>(kIters) * kBatch;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(done - start)
                 .count()) /
         static_cast<double>(kIters * kBatch);
}

// Off/on reps INTERLEAVED (off, on, off, on, ...) so slow drift in machine
// state — frequency scaling, cache pollution from other processes — hits
// both sides equally instead of biasing whichever block ran second; best-of
// per side then strips the remaining upward noise.  The ratio is computed
// in-process, which keeps the gate meaningful on slow machines: both sides
// see the same machine.
//
// The rep count is ADAPTIVE: a fixed count lets one side's min converge
// while the other side never catches a quiet scheduling window, and the
// resulting differential luck is exactly what a <5% gate cannot tolerate.
// Pairs keep running until the ratio of mins has been stable to 0.3% for
// eight consecutive pairs (or the cap is hit).
// `tracing_probe` selects what "on" means: the telemetry histograms
// (false) or the 1-in-64 span sampling path (true); "off" is a bare shard
// either way.
void shard_drain_ns(bool tracing_probe, double* off_ns, double* on_ns,
                    std::uint64_t* requests_out) {
  constexpr int kMinReps = 20;
  constexpr int kMaxReps = 64;
  constexpr int kStableWindow = 8;
  constexpr double kStableTol = 0.003;
  *off_ns = std::numeric_limits<double>::infinity();
  *on_ns = std::numeric_limits<double>::infinity();
  double last_ratio = 0.0;
  int stable = 0;
  for (int rep = 0; rep < kMaxReps + 1; ++rep) {  // rep 0 = warmup, untimed
    const double off = shard_drain_rep_ns(false, false, requests_out);
    const double on = tracing_probe
                          ? shard_drain_rep_ns(false, true, requests_out)
                          : shard_drain_rep_ns(true, false, requests_out);
    if (rep == 0) continue;
    *off_ns = std::min(*off_ns, off);
    *on_ns = std::min(*on_ns, on);
    const double ratio = *on_ns / *off_ns;
    stable = std::abs(ratio - last_ratio) <= kStableTol ? stable + 1 : 0;
    last_ratio = ratio;
    if (rep >= kMinReps && stable >= kStableWindow) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_rt.json";

  // --- telemetry overhead: off vs on through the same drain loop ---
  std::uint64_t drain_requests = 0;
  double off_ns = 0.0;
  double on_ns = 0.0;
  shard_drain_ns(/*tracing_probe=*/false, &off_ns, &on_ns, &drain_requests);
  const double overhead = on_ns / off_ns - 1.0;
  psd::bench::emit_record(path, "rt", "shard_drain_telem_off",
                          "\"impl\":\"drain\"", off_ns, drain_requests);
  std::ostringstream on_extra;
  on_extra << "\"impl\":\"drain\",\"overhead_vs_off\":"
           << psd::bench::json_num(overhead);
  psd::bench::emit_record(path, "rt", "shard_drain_telem_on",
                          on_extra.str(), on_ns, drain_requests);
  std::printf(
      "  shard drain: %.0f ns/req off, %.0f ns/req on (telemetry %+.1f%%)\n\n",
      off_ns, on_ns, overhead * 100.0);
  if (overhead >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.1f%% exceeds the 5%% budget\n",
                 overhead * 100.0);
    return 1;
  }

  // --- tracing overhead: 1-in-64 span sampling vs a bare shard ---
  double trace_off_ns = 0.0;
  double trace_on_ns = 0.0;
  shard_drain_ns(/*tracing_probe=*/true, &trace_off_ns, &trace_on_ns,
                 &drain_requests);
  const double trace_overhead = trace_on_ns / trace_off_ns - 1.0;
  psd::bench::emit_record(path, "rt", "shard_drain_trace_off",
                          "\"impl\":\"drain\"", trace_off_ns, drain_requests);
  std::ostringstream trace_extra;
  trace_extra << "\"impl\":\"drain\",\"overhead_vs_off\":"
              << psd::bench::json_num(trace_overhead);
  psd::bench::emit_record(path, "rt", "shard_drain_trace_on",
                          trace_extra.str(), trace_on_ns, drain_requests);
  std::printf(
      "  shard drain: %.0f ns/req off, %.0f ns/req on (tracing %+.1f%%)\n\n",
      trace_off_ns, trace_on_ns, trace_overhead * 100.0);
  if (trace_overhead >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: tracing overhead %.1f%% exceeds the 5%% budget\n",
                 trace_overhead * 100.0);
    return 1;
  }

  for (const double load : {0.3, 0.6, 0.9}) {
    psd::rt::RtConfig cfg;
    cfg.delta = {1.0, 2.0};
    cfg.load = load;
    cfg.mean_service_seconds = 1e-4;
    cfg.warmup = 0.5;
    cfg.duration = 2.5;
    cfg.seed = 0xBE7C4ULL;

    psd::rt::Runtime runtime(cfg, psd::rt::SteadyClock());
    const psd::rt::RtReport r = runtime.run();

    std::ostringstream extra;
    extra << "\"impl\":\"threaded\",\"load\":" << static_cast<int>(load * 100)
          << ",\"shards\":" << cfg.shards
          << ",\"ratio_error\":" << psd::bench::json_num(r.max_ratio_error)
          << ",\"window_ratio_error\":"
          << psd::bench::json_num(r.max_window_ratio_error)
          << ",\"dropped\":" << r.dropped;
    psd::bench::emit_record(
        path, "rt", "serve_load" + std::to_string(static_cast<int>(load * 100)),
        extra.str(), 1e9 / r.requests_per_sec, r.completed_all);
    std::printf("  load %.0f%%: %.0f req/s, ratio error %.1f%%\n\n",
                load * 100, r.requests_per_sec, r.max_ratio_error * 100);
  }
  return 0;
}
