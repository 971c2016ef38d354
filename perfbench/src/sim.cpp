// sim_paper: the paper's section-4 grid (Figs. 2-4) through
// sweep::run_campaign with lockstep replications on the shared pool.  The
// rt stack is not used at all.
//
// Quality numbers come from the campaign records, which are a pure function
// of the seed; the campaign is then repeated with identical inputs and the
// medians of its CPU time and wall time per request are reported.  The
// traced run (--trace 1) times the layer entry points from outside: size
// draws (dist), eq. 17 over the grid (core), each point's replication set
// run serially (experiment) and the pool's efficiency (sweep).
#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "core/psd_allocation.hpp"
#include "dist/sampler.hpp"
#include "experiment/lockstep.hpp"
#include "experiment/runner.hpp"
#include "stats/histogram.hpp"
#include "sweep/campaign.hpp"

namespace pb {
namespace {

using psd::CampaignOptions;
using psd::CampaignResult;
using psd::GridSpec;
using psd::ReplicationMode;

GridSpec paper_grid() {
  GridSpec g;  // base: paper protocol, BP(1.5, 0.1, 100), psd, dedicated
  g.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  g.deltas = {{1.0, 2.0}, {1.0, 4.0}, {1.0, 2.0, 3.0}};
  g.backends = {psd::BackendKind::kDedicated};
  g.allocators = {psd::AllocatorKind::kPsd};
  g.dists = {psd::DistSpec::bounded_pareto(1.5, 0.1, 100.0)};
  return g;
}

std::size_t pool_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

CampaignOptions campaign_options(std::uint64_t seed, std::size_t runs) {
  CampaignOptions o;
  o.runs = runs;
  o.master_seed = seed;
  o.threads = pool_threads();
  o.resume = false;
  o.replication_mode = ReplicationMode::kLockstep;
  o.lockstep_lanes = 8;
  return o;
}

std::uint64_t measured_requests(const CampaignResult& r) {
  std::uint64_t n = 0;
  for (const auto& p : r.points) n += p.result.completed_total;
  return n;
}

std::string records(const CampaignResult& r) {
  std::string s;
  for (const auto& p : r.points) s += p.record + "\n";
  return s;
}

/// Grid-point-mean of the worst class's |windowed-median ratio / target - 1|.
double mean_ratio_err(const CampaignResult& r, std::uint64_t& bad_points) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : r.points) {
    const auto& d = p.point.cfg.delta;
    double worst = psd::kNaN;
    for (std::size_t j = 0; j < p.result.ratio.size(); ++j) {
      const double target = d[j + 1] / d[0];
      const double err = std::abs(p.result.ratio[j].p50 / target - 1.0);
      worst = std::isfinite(worst) ? std::max(worst, err) : err;
    }
    if (!std::isfinite(worst) || !std::isfinite(p.result.system_slowdown)) {
      ++bad_points;
      continue;
    }
    sum += worst;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : psd::kNaN;
}

/// Per-request slowdowns of every replication of every point, folded into
/// one histogram.  The replications are the campaign's own (same point
/// seeds and run indices) rerun one per pool task with request recording
/// on; bin counts are sums, so the result does not depend on the order the
/// tasks finish in.
psd::LogHistogram request_slowdowns(const CampaignResult& r, std::size_t runs,
                                    psd::WorkStealingPool& pool) {
  psd::LogHistogram all(1e-3, 1e4, 20);
  std::mutex m;  // guards `all` and `error`
  std::string error;
  for (const auto& p : r.points) {
    psd::ScenarioConfig cfg = p.point.cfg;
    cfg.seed = p.point_seed;
    cfg.record_requests = true;
    cfg.record_from_tu = cfg.warmup_tu;
    cfg.record_to_tu = cfg.warmup_tu + cfg.measure_tu;
    for (std::size_t run = 0; run < runs; ++run) {
      pool.submit([&, cfg, run] {
        psd::LogHistogram h(1e-3, 1e4, 20);
        try {
          const auto lanes = psd::run_scenario_lanes(cfg, run, 1);
          for (const auto& req : lanes[0].records) h.add_fast(req.slowdown());
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(m);
          error = e.what();
          return;
        }
        std::lock_guard<std::mutex> lock(m);
        all.merge(h);
      });
    }
  }
  pool.wait_idle();
  if (!error.empty()) throw std::runtime_error("recording pass: " + error);
  return all;
}

/// Campaign build plus thread start: grid expansion, pool construction and
/// every worker running its first task.
double setup_once(const GridSpec& grid) {
  const double t0 = wall_now();
  const auto points = psd::expand_grid(grid);
  psd::WorkStealingPool pool(pool_threads());
  std::atomic<std::size_t> started{0};
  for (std::size_t i = 0; i < pool.worker_count(); ++i) {
    pool.submit([&started, n = pool.worker_count()] {
      started.fetch_add(1);
      while (started.load() < n) std::this_thread::yield();
    });
  }
  pool.wait_idle();
  const double s = wall_now() - t0;
  if (points.empty()) throw std::runtime_error("empty grid");
  return s;
}

}  // namespace

RunOutcome run_sim(const RunArgs& args) {
  RunOutcome out;
  const GridSpec grid = paper_grid();
  // 128 replications per point: 27 points x 128 x ~30k measured requests.
  // At the default 10 s the campaign is repeated 5 times.
  const std::size_t runs = 128;
  const int reps =
      std::max(2, static_cast<int>(std::lround(0.5 * args.seconds)));

  // Set-up is sampled in three batches spread over the run (see
  // run_serve); the median is reported.
  std::vector<double> setups;
  auto setup_batch = [&] {
    for (int i = 0; i < 5; ++i) setups.push_back(setup_once(grid));
  };
  setup_batch();

  // Untimed warm-up pass: a small campaign over the same grid.
  (void)psd::run_campaign(grid, campaign_options(args.seed, 8));

  psd::WorkStealingPool pool(pool_threads());
  Tracer tracer;
  std::vector<double> cpu_per_req, req_per_s, walls;
  // The traced run alternates untraced and traced repeats, so the tracing
  // overhead is measured on identical work.
  std::vector<double> cpu_traced, cpu_untraced;
  CampaignResult first;
  std::string first_records;
  for (int i = 0; i < reps; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const std::uint64_t root = traced ? tracer.next_id() : 0;
    const std::uint64_t s0 = wall_ns();
    const double c0 = process_cpu();
    const double w0 = wall_now();
    // Traced: one span per point as its record is released.
    std::uint64_t last = s0;
    auto on_point = [&](const psd::PointOutcome&) {
      const std::uint64_t now = wall_ns();
      tracer.add(
          {"sweep.point_release", tracer.next_id(), root, 0, last, now});
      last = now;
    };
    CampaignResult r = psd::run_campaign(
        grid, campaign_options(args.seed, runs), &pool,
        traced ? std::function<void(const psd::PointOutcome&)>(on_point)
               : nullptr);
    const double wall = wall_now() - w0;
    const double cpu = process_cpu() - c0;
    if (traced) tracer.add({"sweep.campaign", root, 0, 0, s0, wall_ns()});
    const double n = static_cast<double>(measured_requests(r));
    cpu_per_req.push_back(1e6 * cpu / n);
    (traced ? cpu_traced : cpu_untraced).push_back(cpu_per_req.back());
    req_per_s.push_back(n / wall);
    walls.push_back(wall);
    out.attempted += r.points.size() * runs;
    if (i == 0) {
      first = std::move(r);
      first_records = records(first);
    } else {
      note(out.failures,
           check_identical("campaign repeat " + std::to_string(i),
                           records(r), first_records));
    }
  }

  setup_batch();
  const double t_check = wall_now();
  // Lockstep vs per-task: one seed-chosen point rerun one replication per
  // run index, serially, must render the same record bytes.
  {
    const auto& p = first.points[args.seed % first.points.size()];
    psd::ScenarioConfig cfg = p.point.cfg;
    cfg.seed = p.point_seed;
    const psd::ReplicatedResult per_task = psd::run_replications(
        cfg, runs, /*parallel=*/false, {ReplicationMode::kPerTask, 1});
    note(out.failures,
         check_identical("lockstep point " + p.point.label + " vs per-task",
                         psd::render_point_record(p.point, per_task, args.seed,
                                                  p.point_seed, runs, 0.0,
                                                  false),
                         p.record));
  }

  std::uint64_t bad_points = 0;
  const double ratio_err = mean_ratio_err(first, bad_points);
  out.failed = bad_points * runs;
  if (bad_points > 0) {
    out.failures.push_back(std::to_string(bad_points) +
                           " grid points without finite slowdown ratios");
  }
  const double t_record = wall_now();
  const psd::LogHistogram hist = request_slowdowns(first, runs, pool);
  std::printf("phases: per-task check %.3f s, recording pass %.3f s\n",
              t_record - t_check, wall_now() - t_record);
  // Peak RSS over the whole run; the recording pass, with one replication's
  // request records per worker, sets it.
  const double rss = peak_rss_mb();
  setup_batch();
  if (hist.count() < 10000) {
    out.failures.push_back("slowdown_p999 rests on fewer than 10 samples");
  }
  out.det_digest = fnv1a(first_records);
  std::printf("campaign: %zu points x %zu runs, %zu threads, %d repeats, "
              "median %.3f s wall; %llu slowdown samples; digest %016llx\n",
              first.points.size(), runs, pool.worker_count(), reps,
              median(walls), static_cast<unsigned long long>(hist.count()),
              static_cast<unsigned long long>(out.det_digest));
  for (std::size_t i = 0; i < walls.size(); ++i) {
    std::printf("repeat %zu: %.3f s wall, %.4f us CPU/req\n", i, walls[i],
                cpu_per_req[i]);
  }

  double sd_sum = 0.0, sd_n = 0.0, goodput = 0.0;
  for (const auto& p : first.points) {
    const double n = static_cast<double>(p.result.completed_total);
    sd_sum += p.result.system_slowdown * n;
    sd_n += n;
    // Capacity serves one mean-size request per time unit.
    goodput += n / (static_cast<double>(runs) * p.point.cfg.measure_tu);
  }
  goodput /= static_cast<double>(first.points.size());

  Metrics& m = out.metrics;
  if (!args.trace) {
    m.add("setup_s", median(setups), "s");
    m.add("rss_mb", rss, "MB");
    m.add("cpu_us_per_req", median(cpu_per_req), "us");
    m.add("req_per_s", median(req_per_s), "1/s");
    m.add("ratio_err", ratio_err, "fraction");
    m.add("slowdown_mean", sd_sum / sd_n, "x");
    m.add("slowdown_p50", hist.quantile(0.5), "x");
    m.add("slowdown_p999", hist.quantile(0.999), "x");
    m.add("goodput_frac", goodput, "fraction");
    return out;
  }

  // --- per-layer sheet.  The rt layers idle on this workload: 0.
  for (const char* name :
       {"loadgen.ns_per_req", "rt.submit_ns", "rt.drain_ns_per_req"}) {
    m.add(name, 0.0, "ns");
  }
  m.add("rt.submit_fail_frac", 0.0, "fraction");
  m.add("rt.drain_batch_mean", 0.0, "req");
  m.add("rt.staged_mean", 0.0, "req");
  m.add("rt.tick_us", 0.0, "us");
  m.add("rt.realloc_frac", 0.0, "fraction");
  m.add("admission.shed_frac", 0.0, "fraction");
  m.add("gen.lag_us_p50", 0.0, "us");
  m.add("gen.lag_us_p99", 0.0, "us");
  m.add("rt.ingress_wait_us", 0.0, "us");
  m.add("rt.drain_batch_mean_mt", 0.0, "req");

  const std::uint64_t serial_root = tracer.next_id();
  const std::uint64_t d0 = wall_ns();
  // dist: size draws of the grid's sampler.
  double draw_ns = 0.0;
  {
    const psd::SamplerVariant s = psd::make_sampler(grid.dists[0]);
    psd::Rng rng(args.seed);
    double sink = 0.0;
    const std::size_t n = 4000000;
    Span sp{"dist.draw_block", tracer.next_id(), serial_root, 0, wall_ns(), 0};
    for (std::size_t i = 0; i < n; ++i) sink += s.sample(rng);
    sp.end_ns = wall_ns();
    tracer.add(sp);
    if (!(sink > 0.0)) throw std::runtime_error("sampler drew no work");
    draw_ns = static_cast<double>(sp.end_ns - sp.start_ns);
    m.add("dist.draw_ns", draw_ns / static_cast<double>(n), "ns");
  }
  // core: eq. 17 for every grid point's true rates.
  double alloc_ns = 0.0;
  {
    std::vector<psd::PsdInput> inputs;
    for (const auto& p : first.points) {
      psd::PsdInput in;
      in.lambda = p.point.cfg.true_lambdas();
      in.delta = p.point.cfg.delta;
      in.mean_size = psd::make_sampler(p.point.cfg.size_dist).mean();
      in.capacity = p.point.cfg.capacity;
      inputs.push_back(std::move(in));
    }
    const std::size_t reps_alloc = 20000;
    double sink = 0.0;
    Span sp{"core.alloc_grid", tracer.next_id(), serial_root, 0, wall_ns(), 0};
    for (std::size_t r = 0; r < reps_alloc; ++r) {
      for (const auto& in : inputs) sink += psd::allocate_psd_rates(in).rate[0];
    }
    sp.end_ns = wall_ns();
    tracer.add(sp);
    if (!(sink > 0.0)) throw std::runtime_error("allocation gave no rate");
    alloc_ns = static_cast<double>(sp.end_ns - sp.start_ns);
    m.add("core.alloc_us", 1e-3 * alloc_ns / static_cast<double>(reps_alloc),
          "us");
  }
  // experiment: every point's replication set, serially, lockstep plan.
  double serial_ns = 0.0;
  std::uint64_t serial_req = 0;
  std::vector<double> point_ms;
  for (const auto& p : first.points) {
    psd::ScenarioConfig cfg = p.point.cfg;
    cfg.seed = p.point_seed;
    Span sp{"experiment.point", tracer.next_id(), serial_root, 0, wall_ns(), 0};
    const psd::ReplicatedResult res = psd::run_replications(
        cfg, runs, /*parallel=*/false, {ReplicationMode::kLockstep, 8});
    sp.end_ns = wall_ns();
    tracer.add(sp);
    const double ns = static_cast<double>(sp.end_ns - sp.start_ns);
    serial_ns += ns;
    serial_req += res.completed_total;
    point_ms.push_back(1e-6 * ns);
  }
  const std::uint64_t d1 = wall_ns();
  tracer.add({"serial.drive", serial_root, 0, 0, d0, d1});
  const double drive_ns = static_cast<double>(d1 - d0);
  m.add("experiment.ns_per_req",
        serial_ns / static_cast<double>(serial_req), "ns");
  m.add("experiment.point_ms_p99", quantile(point_ms, 0.99), "ms");
  m.add("sweep.pool_eff",
        1e-9 * serial_ns /
            (static_cast<double>(pool.worker_count()) * median(walls)),
        "fraction");
  m.add("det.slowdown_samples", static_cast<double>(hist.count()), "count");
  m.add("trace.overhead_frac",
        median(cpu_traced) / median(cpu_untraced) - 1.0, "fraction");
  m.add("ledger.residual_frac",
        (drive_ns - draw_ns - alloc_ns - serial_ns) / drive_ns, "fraction");
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  if (!tracer.write(path, "\"workload\": \"" + args.workload + "\"")) {
    out.failures.push_back("cannot write spans to " + path);
  }
  return out;
}

}  // namespace pb
