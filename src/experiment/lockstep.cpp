// Lockstep batch kernel: K replications of one eligible scenario in a
// single task (see lockstep.hpp for the contract, lane_stepper.hpp for the
// slot-order/tie-break reproduction argument).
//
// Two-level drain structure.  Between reallocation ticks the dedicated-rate
// server's classes are independent: rates only change at ticks (or, under
// kFinishAtOldRate, to the tick-published pending value), and every other
// piece of state — queue, slot, draw block, metrics accumulators — is
// per-class.  The kernel exploits that:
//
//   1. drain_class() bursts one (lane, class) pair through all its events
//      strictly before the chunk boundary as a FCFS Lindley recursion —
//      start = max(arrival, previous departure), departure = start +
//      size / rate — with no 5-slot scan and no arrival-vs-completion merge:
//      its branches go the same way almost every iteration, all indexing is
//      hoisted out of the loop, and only requests still waiting at the
//      boundary are stored, as compact {id, arrival, size} ring entries.
//   2. generic_drain() — the 5-slot first-minimum scan — then handles the
//      reallocation tick and any events tied exactly at the boundary
//      (cascades included), in full per-task slot order.
//
// Bitwise identity is preserved because per-class event order is exactly
// the per-task order projected onto that class, and cross-class event order
// only ever influences the request-record vector — so when request
// recording is on, step_lane() takes the generic scan for the whole run.
//
// The hot-path collaborators are the per-task path's own: MetricsCollector
// (its on_complete is inline) and LoadEstimator, fed a burst's arrivals in
// one call.  The dedicated-rate arithmetic and the waiting-queue ring come
// from sched/dedicated_class.hpp; WaitingQueue's occupancy stats are not
// part of RunResult, so the stat-free ring is bitwise-equivalent.  The
// equivalence tests in tests/test_lockstep.cpp pin all of this against
// run_scenario bit for bit.
#include "experiment/lockstep.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "dist/lane_block.hpp"
#include "experiment/scenario_build.hpp"
#include "sched/dedicated_class.hpp"
#include "server/allocator.hpp"
#include "server/load_estimator.hpp"
#include "server/metrics.hpp"
#include "sim/lane_stepper.hpp"

namespace psd {

bool lockstep_eligible(const ScenarioConfig& cfg) {
  // Admission gates hook Server::submit (shed bookkeeping the kernel does
  // not reproduce), so gated configs take the per-lane fallback path.
  return cfg.cluster_nodes == 1 && cfg.backend == BackendKind::kDedicated &&
         !cfg.admission.active();
}

namespace {

/// All mutable state of one replication lane.
struct Lane {
  struct Slot {
    Request current;
    Work remaining = 0.0;
    Time last_settle = 0.0;
    bool busy = false;
  };

  std::vector<Rng> gen_rng;              ///< One per class (run_rng.fork(i)).
  std::vector<ArrivalVariant> arrivals;  ///< Value copies of the prototypes.
  std::vector<std::uint64_t> gen_count;  ///< Requests generated per class.
  std::vector<Ring<QEntry>> queues;
  std::vector<Slot> slots;
  MetricsCollector metrics;
  /// Burst drains add a class's arrivals in one call, so work sums in a
  /// different FP order than per arrival — safe, because only the
  /// count-based lambda estimate reaches the allocator or RunResult.
  LoadEstimator estimator;

  std::unique_ptr<RateAllocator> allocator;
  std::vector<double> rates;
  std::vector<double> pending_rates;  ///< kFinishAtOldRate adoption buffer.
  std::uint64_t submitted = 0;
  std::uint64_t reallocs = 0;

  Lane(const ServerConfig& sc, std::size_t n)
      : gen_count(n, 0),
        queues(n),
        slots(n),
        metrics(sc.metrics),
        estimator(n, sc.realloc_period > 0.0 ? sc.realloc_period : 1.0,
                  sc.estimator_history) {}
};

/// The lane-stepped replication kernel for eligible (single-node,
/// dedicated-rate) scenarios.  Slot layout per lane — the index order IS the
/// per-task tie-break order (see lane_stepper.hpp):
///   [0]        reallocation tick (a heap event in the per-task path),
///   [1..n]     per-class arrival streams (tie rank 0),
///   [n+1..2n]  per-class completion streams (tie rank 1).
class LockstepKernel {
 public:
  LockstepKernel(const ScenarioConfig& cfg, std::uint64_t first_run_index,
                 std::size_t lanes)
      : cfg_(cfg),
        dist_(make_sampler(cfg.size_dist)),
        unit_(dist_.mean() / cfg.capacity),
        n_(cfg.num_classes()),
        sc_(detail::node_server_config(cfg, unit_)),
        realloc_on_(sc_.realloc_period > 0.0),
        finish_at_old_(cfg.rate_change == RateChangePolicy::kFinishAtOldRate),
        clocks_(lanes, 2 * n_ + 1),
        blocks_(lanes, n_) {
    // Shared immutable tables: one sampler (ziggurat/alias data shared by
    // every lane through its value copy) and one arrival prototype per
    // class; a lane's arrival process is a plain value copy carrying the
    // prototype's initial phase state.
    const auto lambdas = cfg.true_lambdas();
    std::vector<ArrivalVariant> protos;
    protos.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      protos.push_back(detail::scenario_arrivals(cfg, lambdas[i], unit_));
    }

    lanes_.reserve(lanes);
    Rng master(cfg.seed);
    for (std::size_t l = 0; l < lanes; ++l) {
      // Same stream derivation as run_scenario: run_rng = master.fork(index),
      // generator i draws from run_rng.fork(i).  (The per-task path also
      // forks index 1000 for the server; the dedicated backend never uses
      // it, and fork() is const, so skipping it changes nothing.)
      const Rng run_rng = master.fork(first_run_index + l);
      Lane lane(sc_, n_);
      for (std::size_t i = 0; i < n_; ++i) {
        lane.gen_rng.push_back(run_rng.fork(i));
      }
      lane.arrivals = protos;
      lane.allocator = make_rate_allocator(
          cfg.allocator, detail::psd_allocator_config(cfg, dist_.mean()),
          cfg.adaptive);
      // Server ctor: equal initial split, pushed through set_rates — which
      // under kFinishAtOldRate also primes the pending vector.
      lane.rates.assign(n_, cfg.capacity / static_cast<double>(n_));
      if (finish_at_old_) {
        lane.pending_rates = lane.rates;
      }
      lanes_.push_back(std::move(lane));

      Time* clocks = clocks_.lane(l);
      clocks[0] = realloc_on_ ? sc_.realloc_period : kInf;  // origin 0.0
      for (std::size_t i = 0; i < n_; ++i) {
        // RequestGenerator::start(0.0): first arrival one gap after origin.
        clocks[1 + i] = 0.0 + next_gap(l, i);
        clocks[1 + n_ + i] = kInf;  // completion slots idle until service
      }
    }
  }

  std::vector<RunResult> run() {
    const Time horizon = (cfg_.warmup_tu + cfg_.measure_tu) * unit_;
    // Chunk granularity: one control window when the reallocation loop is
    // on (every lane crosses each window together, so estimator/allocator
    // work interleaves identically across lanes), else a fixed split.
    const Duration chunk =
        realloc_on_ ? sc_.realloc_period : horizon / 64.0;
    clocks_.run_lockstep(horizon, chunk, [this](std::size_t l, Time limit) {
      step_lane(l, limit);
    });

    std::vector<RunResult> out;
    out.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      lane.metrics.finalize();
      out.push_back(collect(lane));
    }
    return out;
  }

 private:
  /// Buffered next interarrival gap for (lane, class) — the generator's
  /// next_gap(): refill on block exhaustion, read without consuming.
  double next_gap(std::size_t l, std::size_t cls) {
    if (blocks_.cursor(l, cls) == LaneDrawBlocks::kBatch) {
      blocks_.refill(l, cls, lanes_[l].arrivals[cls], dist_,
                     lanes_[l].gen_rng[cls]);
    }
    return blocks_.gap_slice(l, cls)[blocks_.cursor(l, cls)];
  }

  void step_lane(std::size_t l, Time limit) {
    // Request records are the one output ordered by cross-class completion
    // time; burst-draining classes one at a time would reorder them, so a
    // recording run takes the generic scan throughout.
    if (!sc_.metrics.record_requests) {
      for (std::size_t c = 0; c < n_; ++c) drain_class(l, c, limit);
    }
    generic_drain(l, limit);
  }

  /// Burst-drain one (lane, class) pair's events with fire time strictly
  /// before `T` (the chunk boundary = next tick time) as a FCFS Lindley
  /// recursion: between ticks the class rate is constant, so each request
  /// starts at max(arrival, previous departure) and departs one service
  /// time later.  This is the per-task event order projected onto the
  /// class — no state touched here is shared across classes — and the same
  /// arithmetic: an arrival tied with a completion queues first and then
  /// starts at that same instant, which is what the max yields.  Arrivals
  /// are consumed in order, so ids, draw refills and estimator sums match
  /// too.  Events tied exactly at T are left to generic_drain, which fires
  /// them after the tick in full slot order.
  void drain_class(std::size_t l, std::size_t c, Time T) {
    Time* clocks = clocks_.lane(l);
    Time arr_t = clocks[1 + c];
    Time comp_t = clocks[1 + n_ + c];
    if (!(arr_t < T) && !(comp_t < T)) return;

    Lane& lane = lanes_[l];
    Lane::Slot& slot = lane.slots[c];
    bool busy = slot.busy;
    RequestId cur_id = slot.current.id;
    Time cur_arrival = slot.current.arrival;
    Work cur_size = slot.current.size;
    Time cur_sstart = slot.current.service_start;
    Work remaining = slot.remaining;
    Time last_settle = slot.last_settle;
    // Between ticks the class rate is constant except for the one-shot
    // pending-rate adoption a completion performs under kFinishAtOldRate.
    double rate = lane.rates[c];
    const bool fin = finish_at_old_ && !lane.pending_rates.empty();
    const double pending_c = fin ? lane.pending_rates[c] : 0.0;

    std::uint32_t cursor = blocks_.cursor(l, c);
    const double* gaps = blocks_.gap_slice(l, c);
    const double* sizes = blocks_.size_slice(l, c);
    std::uint64_t gen = lane.gen_count[c];
    const std::uint64_t gen_in = gen;
    double est_work = 0.0;

    MetricsCollector& metrics = lane.metrics;
    Request done;
    done.cls = static_cast<ClassId>(c);

    Ring<QEntry>& ring = lane.queues[c];
    const RequestId id_hi = static_cast<RequestId>(c) << 48;
    const bool est_on = realloc_on_;

    // The next arrival before T, consumed: RequestGenerator::arrive's id,
    // size and gap reads, refilling the draw block on exhaustion.
    auto take_arrival = [&]() {
      const QEntry e{id_hi | gen, arr_t, sizes[cursor]};
      ++cursor;
      ++gen;
      if (est_on) est_work += e.size;
      if (cursor == LaneDrawBlocks::kBatch) {
        blocks_.refill(l, c, lane.arrivals[c], dist_, lane.gen_rng[c]);
        cursor = 0;
      }
      arr_t = e.arrival + gaps[cursor];
      return e;
    };

    auto start = [&](const QEntry& e, Time at) {
      cur_id = e.id;
      cur_arrival = e.arrival;
      cur_size = e.size;
      cur_sstart = at;
      remaining = e.size;
      last_settle = at;
      comp_t = completion_time(at, remaining, rate);
    };

    if (!busy) {  // idle, so comp_t is kInf and the next arrival is before T
      const QEntry e = take_arrival();
      start(e, e.arrival);
      busy = true;
    }
    while (comp_t < T) {
      const Time d = comp_t;
      if (fin) rate = pending_c;
      done.id = cur_id;
      done.arrival = cur_arrival;
      done.size = cur_size;
      done.service_start = cur_sstart;
      done.departure = d;
      done.service_elapsed = d - cur_sstart;
      metrics.on_complete(done);
      if (!ring.empty()) {  // carried over from an earlier chunk
        start(ring.pop_front(), d);
      } else if (arr_t < T) {
        const QEntry e = take_arrival();
        start(e, std::max(e.arrival, d));
      } else {
        busy = false;
        remaining = 0.0;
        comp_t = kInf;
      }
    }
    // The in-service request runs past T: the rest of the arrivals queue.
    while (arr_t < T) ring.push(take_arrival());

    clocks[1 + c] = arr_t;
    clocks[1 + n_ + c] = comp_t;
    slot.busy = busy;
    slot.current.id = cur_id;
    slot.current.cls = static_cast<ClassId>(c);
    slot.current.arrival = cur_arrival;
    slot.current.size = cur_size;
    slot.current.service_start = cur_sstart;
    slot.remaining = remaining;
    slot.last_settle = last_settle;
    lane.rates[c] = rate;
    blocks_.cursor(l, c) = cursor;
    lane.gen_count[c] = gen;
    lane.submitted += gen - gen_in;
    if (est_on && gen != gen_in) {
      lane.estimator.on_arrivals(static_cast<ClassId>(c), gen - gen_in,
                                 est_work);
    }
  }

  /// Drain one lane's remaining events with fire_time <= limit in full
  /// per-task order: earliest time first, slot index breaking ties.  After
  /// the burst drains this fires the reallocation tick and any boundary
  /// ties; with request recording on it carries the whole run.
  void generic_drain(std::size_t l, Time limit) {
    Time* clocks = clocks_.lane(l);
    Lane& lane = lanes_[l];
    const std::size_t slots = 2 * n_ + 1;
    for (;;) {
      const std::size_t s = LaneClockGrid::next_slot(clocks, slots);
      const Time t = clocks[s];
      if (!(t <= limit)) return;
      if (s == 0) {
        realloc_tick(lane, clocks, t);
      } else if (s <= n_) {
        arrive(l, lane, clocks, s - 1, t);
      } else {
        complete(lane, clocks, s - 1 - n_, t);
      }
    }
  }

  /// RequestGenerator::arrive + Server::submit + DedicatedRateBackend
  /// notify_arrival/start_service, flattened.  When the class's task server
  /// is idle its queue is empty (the backend starts service immediately on
  /// arrival), so the push/pop ring round-trip is pure bookkeeping — the
  /// kernel starts service on the arriving request directly; queue-internal
  /// occupancy stats are not part of RunResult.
  void arrive(std::size_t l, Lane& lane, Time* clocks, std::size_t cls,
              Time t) {
    auto& cursor = blocks_.cursor(l, cls);
    Request req;
    req.id = (static_cast<RequestId>(cls) << 48) | lane.gen_count[cls];
    req.cls = static_cast<ClassId>(cls);
    req.arrival = t;
    req.size = blocks_.size_slice(l, cls)[cursor];
    ++cursor;
    ++lane.gen_count[cls];

    ++lane.submitted;
    if (realloc_on_) lane.estimator.on_arrival(req.cls, req.size);
    Lane::Slot& slot = lane.slots[cls];
    if (slot.busy) {
      lane.queues[cls].push({req.id, req.arrival, req.size});
    } else {
      slot.current = req;
      slot.current.service_start = t;
      slot.remaining = req.size;
      slot.last_settle = t;
      slot.busy = true;
      schedule_completion(lane, clocks, cls, t);
    }
    clocks[1 + cls] = t + next_gap(l, cls);
  }

  /// DedicatedRateBackend::complete + start_service, flattened.
  void complete(Lane& lane, Time* clocks, std::size_t cls, Time t) {
    Lane::Slot& slot = lane.slots[cls];
    PSD_CHECK(slot.busy, "completion for idle lane slot");
    Request done = slot.current;
    done.departure = t;
    done.service_elapsed = t - done.service_start;
    slot.busy = false;
    slot.remaining = 0.0;
    if (finish_at_old_ && !lane.pending_rates.empty()) {
      lane.rates[cls] = lane.pending_rates[cls];
    }
    lane.metrics.on_complete(done);
    if (!lane.queues[cls].empty()) {
      const QEntry e = lane.queues[cls].pop_front();
      slot.current.id = e.id;
      slot.current.cls = static_cast<ClassId>(cls);
      slot.current.arrival = e.arrival;
      slot.current.size = e.size;
      slot.current.service_start = t;
      slot.remaining = e.size;
      slot.last_settle = t;
      slot.busy = true;
      schedule_completion(lane, clocks, cls, t);
    } else {
      clocks[1 + n_ + cls] = kInf;
    }
  }

  /// Server::realloc_tick + DedicatedRateBackend::set_rates, flattened —
  /// same statement order, so the floating-point settle/reschedule
  /// arithmetic matches the per-task path operation for operation.
  void realloc_tick(Lane& lane, Time* clocks, Time t) {
    lane.estimator.roll(t);
    lane.allocator->observe_slowdowns(lane.metrics.last_window_slowdowns());
    const std::vector<double> next =
        lane.allocator->allocate(lane.estimator.lambda_estimate());
    PSD_CHECK(next.size() == n_, "allocator size mismatch");
    if (finish_at_old_) {
      // Idle classes adopt immediately; busy ones at their next completion.
      lane.pending_rates = next;
      for (std::size_t cls = 0; cls < n_; ++cls) {
        if (!lane.slots[cls].busy) lane.rates[cls] = next[cls];
      }
    } else {  // kRescaleRemaining
      for (std::size_t cls = 0; cls < n_; ++cls) {
        Lane::Slot& slot = lane.slots[cls];
        if (slot.busy) {  // settle remaining work at the old rate
          settle_remaining(slot.remaining, slot.last_settle, lane.rates[cls],
                           t);
        }
        lane.rates[cls] = next[cls];
        if (slot.busy) schedule_completion(lane, clocks, cls, t);
      }
    }
    ++lane.reallocs;
    clocks[0] = t + sc_.realloc_period;  // PeriodicProcess: next = t + period
  }

  void schedule_completion(Lane& lane, Time* clocks, std::size_t cls,
                           Time t) {
    clocks[1 + n_ + cls] =
        completion_time(t, lane.slots[cls].remaining, lane.rates[cls]);
  }

  /// The per-task runner's collect block, per lane.
  RunResult collect(const Lane& lane) const {
    RunResult out;
    out.time_unit = unit_;
    out.submitted = lane.submitted;
    out.reallocations = lane.reallocs;
    const MetricsCollector& m = lane.metrics;
    out.system_slowdown = m.system_slowdown();
    out.records = m.records();
    out.cls.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto cls = static_cast<ClassId>(i);
      out.cls[i].mean_slowdown = m.slowdown(cls).mean();
      out.cls[i].mean_delay = m.delay(cls).mean();
      out.cls[i].completed = m.completed(cls);
      out.cls[i].windows = m.windows(cls);
    }
    out.settle_tu = detail::settle_times(cfg_, out);
    return out;
  }

  const ScenarioConfig& cfg_;
  const SamplerVariant dist_;
  const double unit_;
  const std::size_t n_;
  const ServerConfig sc_;
  const bool realloc_on_;
  const bool finish_at_old_;
  LaneClockGrid clocks_;
  LaneDrawBlocks blocks_;
  std::vector<Lane> lanes_;
};

}  // namespace

std::vector<RunResult> run_scenario_lanes(const ScenarioConfig& cfg,
                                          std::uint64_t first_run_index,
                                          std::size_t lanes) {
  PSD_REQUIRE(lanes > 0, "need at least one lane");
  cfg.validate();
  if (!lockstep_eligible(cfg)) {
    // Backends without a lane-stepped specialization run each lane through
    // the regular per-task path (still one task for the whole group).
    std::vector<RunResult> out;
    out.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      out.push_back(run_scenario(cfg, first_run_index + l));
    }
    return out;
  }
  return LockstepKernel(cfg, first_run_index, lanes).run();
}

}  // namespace psd
