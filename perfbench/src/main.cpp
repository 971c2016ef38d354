// psd_perfbench: one named workload from a seed, its outputs checked, every
// metric printed by name and unit.  The last line of standard output is
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   psd_perfbench --workload serve_highrate --seed 1 --seconds 10 --trace 0
//   psd_perfbench --selftest
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include <malloc.h>
#include <sys/stat.h>

#include "bench.hpp"
#include "checks.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psd_perfbench: %s\n"
               "usage: psd_perfbench --workload sim_paper|serve_highrate|"
               "serve_overload --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n"
               "       psd_perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return pb::selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
          usage("--seconds must be in (0, 600]");
        }
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (a == "--out-dir") {
        args.out_dir = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  // Keep freed memory in the heap: no per-allocation mmap, no trimming.
  // Repeated set-ups then measure the program's own work instead of the
  // kernel's page-fault path, whose cost on a shared VM swings 2-4x from
  // minute to minute (Runtime construction read 0.25 ms pinned, 0.76 to
  // 1.17 ms with glibc's defaults, on a 4-core container).
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
  if (args.trace) ::mkdir(args.out_dir.c_str(), 0755);

  pb::RunOutcome out;
  try {
    if (args.workload == "sim_paper") {
      out = pb::run_sim(args);
    } else if (args.workload == "serve_highrate" ||
               args.workload == "serve_overload") {
      out = pb::run_serve(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psd_perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& f : out.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  const bool correct = out.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
