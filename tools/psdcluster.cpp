// psdcluster — multi-node PSD serving cluster (src/cluster + src/rt).
//
//   psdcluster --nodes 4 --policy jsq2 --classes 1,2 --load 0.6
//   psdcluster --cluster 4:jsq2 --kill-node 3 --kill-at 1.5 --duration 4
//   psdcluster --nodes 4 --policy sita --check 0.15       (CI smoke)
//
// N in-process serving runtimes (each with its own shards and seqlock
// snapshots) behind one dispatcher running the task-assignment policies the
// simulator validates, steered by one rt::Controller over every node's
// shards that re-runs the paper's eq.-17 allocator against the alive
// cluster capacity and splits the rates across nodes — holding per-class
// slowdown ratios cluster-wide, including through a mid-run node kill.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "psd.hpp"
#include "../bench/json_bench.hpp"
#include "cli_util.hpp"
#include "cluster/cluster_runtime.hpp"
#include "rt_flags.hpp"

namespace {

using namespace psd;

const char* kUsage =
    R"(psdcluster — multi-node PSD serving cluster (src/cluster over src/rt)

cluster topology:
  --nodes N               serving nodes                      (default 2)
  --policy SPEC           assignment: random | rr | lwl | sita | jsq[d]
                          (default rr; jsq2 = least-loaded of 2 sampled)
  --cluster SPEC          both at once: "N[:policy]", e.g. 4:jsq2
  --kill-node I           remove node I mid-run (0-based; needs --kill-at)
  --kill-at SEC           when to remove it (dispatch stops, its metrics
                          freeze, capacity shrinks, cluster re-converges)
  --stats-out FILE        stream cluster stats JSONL while running
                          (schema psd.cluster.stats.v1)

per-node runtime (shared grammar with psdserved; --load is per-SHARD
utilization, so total offered load scales with --nodes x --shards):
  --classes D1,D2[,...]   --load F          --shares S1,S2[,...]
  --dist SPEC             --arrivals SPEC   --profile SPEC
  --admission SPEC        --converge-tol F  --shards N
  --loadgens N            --duration SEC    --warmup SEC
  --mean-service-us U     --period-ms MS    --allocator NAME
  --burst SEC             --seed N          --telemetry
  (see psdserved --help for each; --allocator selects the GLOBAL
   allocator — node controllers run rate-less; --period-ms is the one
   controller cadence: node ticks, global reallocation, stats samples)
  --pin, --metrics-port and --slo are rejected: the cluster drive pins
  no threads and runs no per-node stats exporter

checks & output:
  --check F               exit 1 unless the cluster-wide windowed-median
                          ratio error is <= F (and, with a kill, the
                          ratios re-settled; per-node error is reported
                          but not gated — 1/N the samples, kill noise)
  --bench-out FILE        append a JSONL perf record (suite "cluster")
  --help                  this text
)";

[[noreturn]] void usage(int code) {
  std::cout << kUsage;
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  rt::ClusterRtConfig cfg;
  std::string bench_out;
  double check_tol = -1.0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw cli::CliError(arg + " needs a value (see --help)");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (cli::parse_rt_flag(arg, value, cfg.node)) {
        // Shared per-node runtime grammar (tools/rt_flags.hpp).
      }
      else if (arg == "--nodes")
        cfg.nodes = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--nodes 4"));
      else if (arg == "--policy")
        cfg.assignment = AssignmentSpec::parse(value());
      else if (arg == "--cluster") {
        const ClusterSpec spec = ClusterSpec::parse(value());
        cfg.nodes = spec.nodes;
        cfg.assignment = spec.assignment;
      } else if (arg == "--kill-node")
        cfg.kill_node = static_cast<std::size_t>(
            cli::parse_uint(arg, value(), "--kill-node 3"));
      else if (arg == "--kill-at")
        cfg.kill_at = cli::parse_double(arg, value(), "--kill-at 1.5");
      else if (arg == "--stats-out") cfg.stats_path = value();
      else if (arg == "--check")
        check_tol = cli::parse_double(arg, value(), "--check 0.15");
      else if (arg == "--bench-out") bench_out = value();
      else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        usage(2);
      }
    }
  } catch (const cli::CliError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  try {
    cfg.validate();
    const SamplerVariant dist = make_sampler(cfg.node.size_dist);

    std::cout << "cluster: " << cfg.nodes << " node(s) x " << cfg.node.shards
              << " shard(s), assignment " << cfg.assignment.name()
              << ", rebalance every " << cfg.node.controller_period * 1e3
              << "ms\nserving " << cfg.node.delta.size()
              << " classes at per-shard load " << cfg.node.load << " for "
              << cfg.node.duration << "s (warmup " << cfg.node.warmup
              << "s), E[X]=" << Table::fmt(dist.mean(), 4) << " in "
              << cfg.node.mean_service_seconds * 1e6 << "us";
    if (cfg.kill_at >= 0.0) {
      std::cout << "; killing node " << cfg.kill_node << " at t="
                << cfg.kill_at << "s";
    }
    std::cout << "...\n\n";

    rt::ClusterRuntime cluster(cfg, rt::SteadyClock());
    const rt::ClusterReport r = cluster.run();

    Table per_class({"class", "delta", "completed", "dropped", "S measured",
                     "ratio p50", "target", "err%", "settle s"});
    for (std::size_t c = 0; c < r.cls.size(); ++c) {
      const auto& cl = r.cls[c];
      const double err =
          c > 0 ? (cl.window_ratio_p50 / cl.target_ratio - 1.0) * 100.0 : 0.0;
      per_class.add_row(
          {std::to_string(c + 1), Table::fmt(cl.delta, 2),
           std::to_string(cl.completed), std::to_string(cl.dropped),
           Table::fmt(cl.mean_slowdown, 3),
           c > 0 ? Table::fmt(cl.window_ratio_p50, 3) : "1.000",
           Table::fmt(cl.target_ratio, 2), c > 0 ? Table::fmt(err, 1) : "-",
           Table::fmt(cl.settle_seconds, 2)});
    }
    per_class.print(std::cout);
    std::cout << "\n";

    Table per_node({"node", "alive", "dispatched", "completed", "outstanding",
                    "node err%"});
    for (std::size_t i = 0; i < r.node.size(); ++i) {
      const auto& nd = r.node[i];
      per_node.add_row(
          {std::to_string(i), nd.alive ? "yes" : "KILLED",
           std::to_string(nd.dispatched),
           std::to_string(nd.rt.completed_total),
           std::to_string(nd.rt.outstanding),
           Table::fmt(nd.rt.max_window_ratio_error * 100.0, 1)});
    }
    per_node.print(std::cout);

    std::cout << "\nthroughput: produced " << r.produced << ", completed "
              << r.completed_total << " (post-warmup), dropped " << r.dropped
              << ", unfinished " << r.outstanding;
    if (r.lost_to_kill > 0) {
      std::cout << ", lost to kill " << r.lost_to_kill;
    }
    std::cout << " over " << Table::fmt(r.elapsed, 2) << "s\n";
    std::cout << "global controller: " << r.global_ticks << " ticks, "
              << r.rebalances << " rebalances; dispatch "
              << Table::fmt(r.mean_dispatch_ns, 0) << " ns/req\n";
    std::cout << "ratio error (windowed median): cluster-wide "
              << Table::fmt(r.max_window_ratio_error * 100.0, 1)
              << "%, worst surviving node "
              << Table::fmt(r.cross_node_ratio_error * 100.0, 1) << "%\n";
    if (std::isfinite(r.settle_onset)) {
      std::cout << "re-convergence after t=" << Table::fmt(r.settle_onset, 2)
                << "s: max settle " << Table::fmt(r.max_settle_seconds, 2)
                << "s (band +-"
                << Table::fmt(cfg.node.converge_tol * 100, 0) << "%)\n";
    }

    if (!bench_out.empty()) {
      using bench::json_num;
      std::ostringstream os;
      os << "{\"suite\":\"cluster\",\"bench\":\"serve_"
         << cfg.assignment.name() << "\",\"impl\":\"psdcluster\",\"nodes\":"
         << cfg.nodes << ",\"classes\":" << cfg.node.delta.size()
         << ",\"ns_per_op\":" << json_num(r.mean_dispatch_ns)
         << ",\"window_ratio_error\":" << json_num(r.max_window_ratio_error)
         << ",\"cross_node_error\":" << json_num(r.cross_node_ratio_error)
         << ",\"iters\":" << r.completed_total << "}\n";
      std::ofstream out(bench_out, std::ios::app);
      out << os.str();
      std::cout << os.str();
    }

    if (check_tol >= 0.0) {
      if (!(r.max_window_ratio_error <= check_tol)) {
        std::cerr << "CLUSTER RATIO CHECK FAILED: cluster-wide error "
                  << r.max_window_ratio_error * 100 << "% > tolerance "
                  << check_tol * 100 << "%\n";
        return 1;
      }
      if (cfg.kill_at >= 0.0 && !std::isfinite(r.max_settle_seconds)) {
        std::cerr << "CLUSTER RATIO CHECK FAILED: ratios never re-settled "
                  << "after the node kill\n";
        return 1;
      }
      std::cout << "cluster ratio check passed (<= " << check_tol * 100
                << "%)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
