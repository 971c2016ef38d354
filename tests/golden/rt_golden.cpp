// Fixed-seed rt and cluster reports under a ManualClock, printed field by
// field (doubles as %a hexfloats, so every bit shows) for the golden check
// in check_golden.cmake:
//
//   rt_golden <cluster-stats.jsonl> > rt.txt
//
// Four small runs, about a second in total: a 2-shard adaptive Runtime, the
// same runtime behind a delta-aware gate at 150 % load, a 3-node JSQ(2)
// cluster that loses a node mid-run (a dead node plus the allocator
// rebuild), and a 3-node SITA-E cluster.  The JSQ(2) run also writes its
// psd.cluster.stats.v1 stream to the path given as the first argument.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_runtime.hpp"
#include "rt/runtime.hpp"

namespace psd::rt {
namespace {

void put(const std::string& key, double v) {
  std::printf("%s %a\n", key.c_str(), v);
}
void put(const std::string& key, std::uint64_t v) {
  std::printf("%s %" PRIu64 "\n", key.c_str(), v);
}
void put_rates(const std::string& key, const double* v, std::size_t n) {
  std::printf("%s", key.c_str());
  for (std::size_t c = 0; c < n; ++c) std::printf(" %a", v[c]);
  std::printf("\n");
}

void print_rt(const std::string& p, const RtReport& r) {
  for (std::size_t c = 0; c < r.cls.size(); ++c) {
    const RtClassReport& k = r.cls[c];
    const std::string q = p + "cls" + std::to_string(c) + ".";
    put(q + "delta", k.delta);
    put(q + "completed", k.completed);
    put(q + "dropped", k.dropped);
    put(q + "shed", k.shed);
    put(q + "shed_rate", k.shed_rate);
    put(q + "mean_slowdown", k.mean_slowdown);
    put(q + "slowdown_p50", k.slowdown_p50);
    put(q + "slowdown_p95", k.slowdown_p95);
    put(q + "slowdown_p99", k.slowdown_p99);
    put(q + "achieved_ratio", k.achieved_ratio);
    put(q + "window_ratio_p50", k.window_ratio_p50);
    put(q + "target_ratio", k.target_ratio);
    put(q + "mean_ingress_wait", k.mean_ingress_wait);
    put(q + "settle_seconds", k.settle_seconds);
  }
  put(p + "max_ratio_error", r.max_ratio_error);
  put(p + "max_window_ratio_error", r.max_window_ratio_error);
  put(p + "max_settle_seconds", r.max_settle_seconds);
  put(p + "produced", r.produced);
  put(p + "dropped", r.dropped);
  put(p + "shed_total", r.shed_total);
  put(p + "goodput", r.goodput);
  put(p + "survivor_window_ratio_error", r.survivor_window_ratio_error);
  put(p + "completed_total", r.completed_total);
  put(p + "completed_all", r.completed_all);
  put(p + "outstanding", r.outstanding);
  put(p + "elapsed", r.elapsed);
  put(p + "requests_per_sec", r.requests_per_sec);
  put(p + "controller_ticks", r.controller_ticks);
  put(p + "reallocations", r.reallocations);
  put(p + "drains", r.drains);
}

/// Per-shard rate and estimate state: pins how the controller split its
/// rates across shards, not just the global vector.
void print_shards(const std::string& p, Runtime& rt) {
  const std::size_t n = rt.config().num_classes();
  for (std::size_t s = 0; s < rt.num_shards(); ++s) {
    const ShardSnapshot snap = rt.shard(s).snapshot();
    const std::string q = p + "shard" + std::to_string(s) + ".";
    put_rates(q + "rate", snap.rate, n);
    put_rates(q + "lambda_hat", snap.lambda_hat, n);
    put(q + "windows_closed", snap.windows_closed);
  }
}

void print_controller(const std::string& p, const ControllerSnapshot& s) {
  put(p + "ticks", s.ticks);
  put(p + "allocations", s.allocations);
  put_rates(p + "lambda", s.lambda, s.num_classes);
  put_rates(p + "rate", s.rate, s.num_classes);
  put_rates(p + "window_slowdown", s.window_slowdown, s.num_classes);
}

RtConfig small_runtime_config() {
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

void run_runtime(const std::string& p, const RtConfig& cfg) {
  Runtime runtime(cfg, ManualClock{});
  for (Time t = 0.02; t <= cfg.duration + 1e-9; t += 0.02) {
    runtime.step_to(t);
  }
  runtime.quiesce(20.0, 0.05);
  runtime.finish();
  print_rt(p, runtime.report());
  print_shards(p, runtime);
  print_controller(p + "controller.", runtime.controller().snapshot());
  // The decision trace: what the allocator saw and produced, tick by tick.
  std::uint64_t cursor = 0;
  for (const ControllerTraceEntry& e :
       runtime.controller().trace_since(&cursor)) {
    const std::string q = p + "trace" + std::to_string(e.tick) + ".";
    put(q + "time", e.time);
    put(q + "reallocated", static_cast<std::uint64_t>(e.reallocated));
    put(q + "fresh_window", static_cast<std::uint64_t>(e.fresh_window));
    put_rates(q + "lambda", e.lambda, e.num_classes);
    put_rates(q + "window_slowdown", e.window_slowdown, e.num_classes);
    put_rates(q + "rate_in", e.rate_in, e.num_classes);
    put_rates(q + "rate_out", e.rate_out, e.num_classes);
  }
}

ClusterRtConfig small_cluster_config(AssignmentSpec assignment) {
  ClusterRtConfig cfg;
  cfg.nodes = 3;
  cfg.assignment = assignment;
  cfg.node.shards = 3;  // Pins the per-shard split of each node's slice.
  cfg.node.delta = {1.0, 2.0};
  cfg.node.load = 0.6;
  cfg.node.mean_service_seconds = 1e-3;
  cfg.node.warmup = 0.5;
  cfg.node.duration = 3.0;
  cfg.node.seed = 0x5EEDu;
  if (assignment.policy != AssignmentPolicy::kSizeInterval) {
    cfg.node.size_dist = DistSpec::uniform(0.5, 1.5);
  }
  return cfg;
}

void run_cluster(const std::string& p, const ClusterRtConfig& cfg) {
  ClusterRuntime cluster(cfg, ManualClock());
  for (double t = 0.0; t < cfg.node.duration; t += 0.002) cluster.step_to(t);
  cluster.step_to(cfg.node.duration);
  cluster.quiesce();
  cluster.finish();
  const ClusterReport r = cluster.report();
  for (std::size_t c = 0; c < r.cls.size(); ++c) {
    const ClusterClassReport& k = r.cls[c];
    const std::string q = p + "cls" + std::to_string(c) + ".";
    put(q + "delta", k.delta);
    put(q + "completed", k.completed);
    put(q + "dropped", k.dropped);
    put(q + "shed", k.shed);
    put(q + "mean_slowdown", k.mean_slowdown);
    put(q + "window_ratio_p50", k.window_ratio_p50);
    put(q + "target_ratio", k.target_ratio);
    put(q + "settle_seconds", k.settle_seconds);
  }
  put(p + "max_window_ratio_error", r.max_window_ratio_error);
  put(p + "cross_node_ratio_error", r.cross_node_ratio_error);
  put(p + "max_settle_seconds", r.max_settle_seconds);
  put(p + "settle_onset", r.settle_onset);
  put(p + "produced", r.produced);
  put(p + "dropped", r.dropped);
  put(p + "shed_total", r.shed_total);
  put(p + "completed_total", r.completed_total);
  put(p + "outstanding", r.outstanding);
  put(p + "lost_to_kill", r.lost_to_kill);
  put(p + "elapsed", r.elapsed);
  put(p + "rebalances", r.rebalances);
  put(p + "global_ticks", r.global_ticks);
  put(p + "mean_dispatch_ns", r.mean_dispatch_ns);
  for (std::size_t i = 0; i < r.node.size(); ++i) {
    const std::string q = p + "node" + std::to_string(i) + ".";
    put(q + "alive", static_cast<std::uint64_t>(r.node[i].alive));
    put(q + "dispatched", r.node[i].dispatched);
    print_rt(q, r.node[i].rt);
    print_shards(q, cluster.node(i).runtime());
  }
  const ControllerSnapshot g = cluster.controller().snapshot();
  put(p + "global.ticks", g.ticks);
  put(p + "global.allocations", g.allocations);
  put_rates(p + "global.lambda", g.lambda, g.num_classes);
  put_rates(p + "global.rate", g.rate, g.num_classes);
}

}  // namespace
}  // namespace psd::rt

int main(int argc, char** argv) {
  using namespace psd;
  using namespace psd::rt;
  if (argc != 2) {
    std::fprintf(stderr, "usage: rt_golden <cluster-stats.jsonl>\n");
    return 2;
  }

  RtConfig adaptive = small_runtime_config();
  adaptive.obs.enabled = true;  // Percentiles and the decision trace.
  run_runtime("adaptive.", adaptive);

  RtConfig gated = adaptive;
  gated.load = 1.5;
  gated.admission = AdmissionSpec::parse("delta-aware:0.8");
  run_runtime("gated.", gated);

  ClusterRtConfig jsq2 = small_cluster_config({AssignmentPolicy::kJsq, 2});
  jsq2.kill_node = 1;
  jsq2.kill_at = 1.5;
  jsq2.stats_path = argv[1];
  run_cluster("jsq2_kill.", jsq2);

  run_cluster("sita.", small_cluster_config({AssignmentPolicy::kSizeInterval}));
  return 0;
}
