// Campaign-engine performance records (BENCH_sweep.json):
//
//   * campaign_2x3_grid — points/sec and pool efficiency for a small mixed
//     grid on the shared work-stealing pool, against the pre-sweep baseline
//     of serializing scenarios and parallelizing only replications.
//   * lockstep_grid_per_task / lockstep_grid_lockstep8 — the same dedicated-
//     backend grid executed in both replication modes: one replication per
//     task vs lane-groups of K=8 on the lockstep batch kernel, both on one
//     worker thread.  Before emitting, every point record of the two runs
//     is compared byte-for-byte (the lockstep determinism contract); a
//     mismatch fails the bench.
//
//   ./micro_sweep [records.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "json_bench.hpp"
#include "sweep/campaign.hpp"

namespace {

using namespace psd;

GridSpec small_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 500.0;
  grid.base.measure_tu = 4000.0;
  grid.loads = {0.3, 0.6, 0.9};
  grid.backends = {BackendKind::kDedicated, BackendKind::kSfq};
  grid.deltas = {{1.0, 2.0}};
  return grid;
}

/// Dedicated-backend-only grid: every point is lockstep-eligible, so the
/// mode comparison measures the kernel, not the fallback path.
GridSpec lockstep_grid() {
  GridSpec grid;
  grid.base.warmup_tu = 500.0;
  grid.base.measure_tu = 10000.0;
  grid.loads = {0.3, 0.5, 0.7, 0.9};
  grid.deltas = {{1.0, 2.0}, {1.0, 4.0}, {1.0, 8.0}};
  grid.backends = {BackendKind::kDedicated};
  return grid;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeRun {
  CampaignResult result;
  std::uint64_t requests = 0;  ///< Completed requests across all points.
};

ModeRun run_mode(const GridSpec& grid, std::size_t runs,
                 ReplicationMode mode, std::size_t lanes) {
  CampaignOptions opt;
  opt.runs = runs;
  opt.master_seed = 42;
  // One worker: the grid is only 12 lane-group tasks of unequal cost, so on
  // a multi-core pool the ratio would measure how they balance, not the
  // kernel.
  opt.threads = 1;
  opt.replication_mode = mode;
  opt.lockstep_lanes = lanes;
  ModeRun out;
  out.result = run_campaign(grid, opt);
  for (const auto& p : out.result.points) {
    out.requests += p.result.completed_total;
  }
  return out;
}

void emit_mode_record(const std::string& path, const char* bench,
                      const char* impl, const ModeRun& run, double speedup) {
  const double wall_ns = run.result.wall_seconds * 1e9;
  const double ns_per_request =
      run.requests > 0 ? wall_ns / static_cast<double>(run.requests) : 0.0;
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"%s\",\"points\":%zu,\"threads\":%zu,"
                "\"points_per_sec\":%.4f,\"ns_per_request\":%.2f,"
                "\"speedup_vs_per_task\":%.4f",
                impl, run.result.points.size(), run.result.threads,
                run.result.points_per_sec(), ns_per_request, speedup);
  psd::bench::emit_record(
      path, "sweep", bench, extra,
      wall_ns / static_cast<double>(run.result.points.size()),
      run.result.points.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "BENCH_sweep.json";

  // --- campaign engine vs scenario-serial baseline (mixed grid) ---
  const GridSpec grid = small_grid();
  const std::size_t kRuns = 8;

  const auto t0 = std::chrono::steady_clock::now();
  const auto points = expand_grid(grid);
  for (const auto& p : points) {
    ScenarioConfig cfg = p.cfg;
    cfg.seed = derive_point_seed(42, p.cfg);
    (void)run_replications(cfg, kRuns, /*parallel=*/true);
  }
  const double serial_sec = seconds_since(t0);

  CampaignOptions opt;
  opt.runs = kRuns;
  opt.master_seed = 42;
  const auto result = run_campaign(grid, opt);

  std::printf(
      "campaign: %zu points x %zu runs, %zu threads — %.2fs (%.2f points/s, "
      "efficiency %.0f%%) vs %.2fs scenario-serial (%.2fx)\n",
      result.points.size(), kRuns, result.threads, result.wall_seconds,
      result.points_per_sec(), 100.0 * result.pool_efficiency(), serial_sec,
      serial_sec / result.wall_seconds);

  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"impl\":\"campaign_pool\",\"points\":%zu,\"runs\":%zu,"
                "\"threads\":%zu,\"points_per_sec\":%.4f,"
                "\"pool_efficiency\":%.4f,\"scenario_serial_sec\":%.4f",
                result.points.size(), kRuns, result.threads,
                result.points_per_sec(), result.pool_efficiency(), serial_sec);
  bench::emit_record(path, "sweep", "campaign_2x3_grid", extra,
                     result.wall_seconds * 1e9 /
                         static_cast<double>(result.points.size()),
                     result.points.size());

  // --- per-task vs lockstep(K=8) on the dedicated-only grid ---
  const GridSpec lgrid = lockstep_grid();
  const std::size_t kLanes = 8;
  const auto per_task =
      run_mode(lgrid, kRuns, ReplicationMode::kPerTask, kLanes);
  const auto lockstep =
      run_mode(lgrid, kRuns, ReplicationMode::kLockstep, kLanes);

  // Determinism cross-check: the two modes must render identical records.
  if (per_task.result.points.size() != lockstep.result.points.size()) {
    std::fprintf(stderr, "lockstep bench: point count mismatch\n");
    return 1;
  }
  for (std::size_t i = 0; i < per_task.result.points.size(); ++i) {
    if (per_task.result.points[i].record !=
        lockstep.result.points[i].record) {
      std::fprintf(stderr,
                   "lockstep bench: record %zu differs between modes\n", i);
      return 1;
    }
  }

  const double speedup =
      lockstep.result.wall_seconds > 0.0
          ? per_task.result.wall_seconds / lockstep.result.wall_seconds
          : 0.0;
  std::printf(
      "lockstep grid: %zu points x %zu runs — per-task %.2fs (%.2f points/s),"
      " lockstep(K=%zu) %.2fs (%.2f points/s) — %.2fx, records identical\n",
      per_task.result.points.size(), kRuns, per_task.result.wall_seconds,
      per_task.result.points_per_sec(), kLanes,
      lockstep.result.wall_seconds, lockstep.result.points_per_sec(),
      speedup);

  emit_mode_record(path, "lockstep_grid_per_task", "per_task", per_task, 1.0);
  emit_mode_record(path, "lockstep_grid_lockstep8", "lockstep8", lockstep,
                   speedup);
  return 0;
}
