#include "rt/shard.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psd::rt {

// The span verdict byte is AdmitVerdict passed through untranslated; keep
// the two enums value-aligned or the trace files lie about shed causes.
static_assert(obs::kSpanAdmitted == static_cast<std::uint8_t>(kAdmitted) &&
                  obs::kSpanShedMask == static_cast<std::uint8_t>(kShedMask) &&
                  obs::kSpanShedThinned ==
                      static_cast<std::uint8_t>(kShedThinned) &&
                  obs::kSpanShedBucket ==
                      static_cast<std::uint8_t>(kShedBucket),
              "obs::SpanVerdict must stay value-aligned with AdmitVerdict");

namespace {

/// Run-unique span id: shard(8) | class(8) | shed-flag(1) | ordinal(47).
/// Pure function of (shard, class, per-class ordinal), so ids — like the
/// sampled subset itself — are deterministic across replays.
std::uint64_t make_trace_id(std::uint32_t shard, ClassId cls, bool shed,
                            std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(shard & 0xff) << 56) |
         (static_cast<std::uint64_t>(cls & 0xff) << 48) |
         (shed ? (std::uint64_t{1} << 47) : 0) |
         (ordinal & ((std::uint64_t{1} << 47) - 1));
}

/// Server::set_rates' contract: one rate per class, summing to at most the
/// shard capacity.
void require_rates_fit(const std::vector<double>& rates, std::size_t n,
                       double capacity) {
  PSD_REQUIRE(rates.size() == n, "rate vector size mismatch");
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  PSD_REQUIRE(total <= capacity * (1.0 + 1e-9), "rates exceed capacity");
}

MetricsConfig metrics_config(const ShardConfig& cfg) {
  MetricsConfig mc;
  mc.num_classes = cfg.num_classes;
  mc.warmup_end = cfg.warmup;
  mc.window = cfg.window;
  return mc;
}

}  // namespace

Shard::Shard(const ShardConfig& cfg)
    : cfg_(cfg),
      blocks_(cfg.num_classes),
      metrics_(metrics_config(cfg)),
      ingress_(cfg.ingress_capacity),
      estimator_(cfg.num_classes, cfg.window, cfg.estimator_history),
      next_roll_(cfg.window),
      ingress_wait_(cfg.num_classes),
      lambda_cache_(cfg.num_classes, 0.0),
      window_sd_cache_(cfg.num_classes, kNaN),
      window_seq_cache_(cfg.num_classes, 0) {
  PSD_REQUIRE(cfg.num_classes >= 1 && cfg.num_classes <= kMaxRtClasses,
              "shard supports 1..kMaxRtClasses classes");
  PSD_REQUIRE(cfg.capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(cfg.window > 0.0, "window must be positive");
  PSD_REQUIRE(cfg.bucket_burst_seconds > 0.0, "burst must be positive");
  PSD_REQUIRE(cfg.telemetry_sample_period >= 1 &&
                  (cfg.telemetry_sample_period &
                   (cfg.telemetry_sample_period - 1)) == 0,
              "telemetry_sample_period must be a power of two");
  PSD_REQUIRE(cfg.trace_sample_period >= 1 &&
                  (cfg.trace_sample_period &
                   (cfg.trace_sample_period - 1)) == 0,
              "trace_sample_period must be a power of two");

  telem_.num_classes = static_cast<std::uint32_t>(cfg.num_classes);
  telem_.sample_period = cfg.telemetry_sample_period;
  // With telemetry off the mask is all-ones: the per-event sample test
  // `(ordinal & mask) == 0` is then false for every ordinal >= 1, so the
  // hot paths pay exactly one AND+branch and never re-read cfg_.telemetry.
  sample_mask_ = cfg.telemetry
                     ? std::uint64_t{cfg.telemetry_sample_period} - 1
                     : ~std::uint64_t{0};
  // Same idiom for the span hooks.
  trace_mask_ = cfg.tracing ? std::uint64_t{cfg.trace_sample_period} - 1
                            : ~std::uint64_t{0};

  if (cfg.initial_rates.empty()) {
    rates_.assign(cfg.num_classes,
                  cfg.capacity / static_cast<double>(cfg.num_classes));
  } else {
    require_rates_fit(cfg.initial_rates, cfg.num_classes, cfg.capacity);
    rates_ = cfg.initial_rates;
  }
  const double burst = cfg.capacity * cfg.bucket_burst_seconds;
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    blocks_[c].bucket = TokenBucket(rates_[c], burst, 0.0);
  }

  // Telemetry allocations come LAST so the heap layout of everything on the
  // hot path (class blocks, metrics, ring) is identical whether telemetry
  // is on or off — a layout shift shows up as a phantom cache/TLB
  // "overhead" that has nothing to do with the telemetry code itself.
  if (cfg.telemetry) {
    // Fine-grained slowdown distribution for the report fold; the paper's
    // slowdowns live in roughly [1e-3, 1e4] on a log axis.
    sd_hist_.assign(cfg.num_classes, LogHistogram(1e-3, 1e4, 20));
    prof_.set_enabled(cfg.profile);
  }
  if (cfg.tracing) {
    pending_spans_.resize(cfg.num_classes);
    span_ring_ = std::make_unique<obs::SpanRing>(cfg.span_ring_capacity);
  }

  publish(0.0);
  publish_telemetry(0.0);
}

bool Shard::submit(const Request& req) {
  obs::ScopedProfTimer prof(&prof_, obs::kProfRingPush);
  if (ingress_.try_push(req)) return true;
  drops_cls_[req.cls].add();
  return false;
}

void Shard::apply_rates(const std::vector<double>& rates,
                        std::uint64_t tick_seq) {
  PSD_REQUIRE(rates.size() == cfg_.num_classes, "rate vector size mismatch");
  std::lock_guard<std::mutex> lock(pending_m_);
  pending_rates_ = rates;
  pending_tick_seq_ = tick_seq;
  has_pending_ = true;
}

void Shard::set_admission(std::unique_ptr<AdmissionController> admission) {
  admission_ = std::move(admission);
  if (admission_ != nullptr) {
    offered_est_ = std::make_unique<LoadEstimator>(
        cfg_.num_classes, cfg_.window, cfg_.estimator_history);
    sheds_cls_.assign(cfg_.num_classes, 0);
    offered_cache_.assign(cfg_.num_classes, 0.0);
  }
}

void Shard::stage_admission_update(
    const std::vector<double>& offered_lambda) {
  PSD_REQUIRE(offered_lambda.size() == cfg_.num_classes,
              "offered estimate size mismatch");
  std::lock_guard<std::mutex> lock(pending_m_);
  pending_offered_ = offered_lambda;
  has_pending_admission_ = true;
}

void Shard::start_service(ClassBlock& b, Time now, double rate) {
  b.cur = b.fifo.pop_front();
  b.cur_start = now;
  b.remaining = b.cur.size;
  b.last_settle = now;
  b.busy = true;
  b.completion_at = completion_time(now, b.remaining, rate);
}

void Shard::complete(ClassId c) {
  ClassBlock& b = blocks_[c];
  const Time t = b.completion_at;
  Request req;
  req.cls = c;
  req.arrival = b.cur.arrival;
  req.size = b.cur.size;
  req.service_start = b.cur_start;
  req.departure = t;
  req.service_elapsed = t - b.cur_start;
  metrics_.on_complete(req);
  ++done_total_;
  // Completion ordinal == accepted ordinal (FIFO within class), so the
  // same mask that sampled this request at admission fires again here.
  if ((++b.done & trace_mask_) == 0) trace_complete(req);
  // Distribution fills are 1-in-N sampled per class (counters stay exact):
  // one AND against the completion ordinal just incremented, so the
  // subsample — and every percentile derived from it — is a deterministic
  // function of the completion sequence.  The mask is all-ones when
  // telemetry is off, so this never fires then.
  if ((b.done & sample_mask_) == 0) {
    // Live histograms include warmup (dashboards want the transient); the
    // report-grade sd_hist_ honors the same cutoff as metrics.
    const double sd = req.slowdown();
    telem_.queue_delay[c].add(req.delay());
    telem_.slowdown[c].add(sd);
    if (req.departure >= cfg_.warmup) sd_hist_[c].add_fast(sd);
  }
  b.busy = false;
  b.remaining = 0.0;
  b.completion_at = kInf;
  if (b.fifo.head != b.rel) start_service(b, t, rates_[c]);
}

void Shard::serve_until(Time now) {
  const std::size_t n = blocks_.size();
  if (span_ring_ != nullptr) {
    // Spans reach the ring in completion order: fire in global (time,
    // class index) order, one completion at a time.
    for (;;) {
      std::size_t next = 0;
      for (std::size_t c = 1; c < n; ++c) {
        if (blocks_[c].completion_at < blocks_[next].completion_at) next = c;
      }
      if (!(blocks_[next].completion_at <= now)) return;
      complete(static_cast<ClassId>(next));
    }
  }
  // Nothing else orders completions across classes: burst each class.
  for (std::size_t c = 0; c < n; ++c) {
    while (blocks_[c].completion_at <= now) complete(static_cast<ClassId>(c));
  }
}

std::size_t Shard::drain(Time now) {
  obs::ScopedProfTimer prof_drain(&prof_, obs::kProfDrain);
  // Service never moves back in time: an instant earlier than the last
  // drain (a late finalize, a coarser caller clock) is served at that drain.
  if (now < now_) now = now_;
  now_ = now;

  // 1. Fire every completion due by `now` at its exact model time.
  serve_until(now);

  // 2. Adopt a controller handoff, effective `now`: in-service work is
  //    settled at the old rate up to here and rescheduled at the new one;
  //    buckets likewise.
  {
    std::lock_guard<std::mutex> lock(pending_m_);
    if (has_pending_) {
      require_rates_fit(pending_rates_, cfg_.num_classes, cfg_.capacity);
      ctrl_tick_seq_ = pending_tick_seq_;
      has_pending_ = false;
      for (std::size_t c = 0; c < blocks_.size(); ++c) {
        ClassBlock& b = blocks_[c];
        if (b.busy) {
          settle_remaining(b.remaining, b.last_settle, rates_[c], now);
          b.completion_at =
              completion_time(now, b.remaining, pending_rates_[c]);
        }
      }
      rates_ = pending_rates_;
      for (std::size_t c = 0; c < blocks_.size(); ++c) {
        blocks_[c].bucket.set_rate(rates_[c], now);
      }
    }
    // Gate decisions latch here, once per staged controller update (i.e.
    // per estimation window) — the shard thread owns all gate state, the
    // controller only hands estimates across.
    if (has_pending_admission_) {
      has_pending_admission_ = false;
      if (admission_ != nullptr) admission_->update(pending_offered_);
    }
  }

  // 3. Ingest the ingress backlog at the tails of the class FIFOs.  The
  //    request's queueing clock starts here: time spent in flight between
  //    the producer and this pop is reported separately (mean_ingress_wait),
  //    so slowdown measurements stay on the exact model time axis.
  Request req;
  std::size_t popped = 0;
  {
    obs::ScopedProfTimer prof_pop(&prof_, obs::kProfRingPop);
    // Hoisted: all-ones when telemetry/tracing is off (never fires).
    const std::uint64_t mask = sample_mask_;
    const std::uint64_t tmask = trace_mask_;
    while (ingress_.try_pop(req)) {
      ++popped;
      const ClassId c = req.cls;
      PSD_REQUIRE(c < cfg_.num_classes, "class id out of range");
      // Admission gate: O(1) decision at pop time, BEFORE the request can
      // touch the estimator or its class FIFO — the allocator only ever
      // sees admitted load, while the offered estimator (feeding the gate's
      // own update cadence) sees everything.
      if (admission_ != nullptr) {
        offered_est_->on_arrival(c, req.size);
        if (!admission_->admit_request(c, now, req.size)) {
          ++sheds_cls_[c];
          ++shed_total_;
          if ((sheds_cls_[c] & tmask) == 0) trace_shed(c, req, now);
          continue;
        }
      }
      PSD_REQUIRE(req.size > 0.0, "request size must be positive");
      ClassBlock& b = blocks_[c];
      // Clamped at zero: producers stamp arrival from their own clock
      // reads, which may postdate this drain's single read of `now`.
      const double wait = std::max(0.0, now - req.arrival);
      ingress_wait_[c].add(wait);
      if ((++b.accepted & mask) == 0) telem_.ingress_wait[c].add(wait);
      // Span open: reads req.arrival, still the producer's ingress stamp.
      if ((b.accepted & tmask) == 0) trace_admit(c, req, now);
      estimator_.on_arrival(c, req.size);
      b.fifo.push({now, req.size});
    }
  }

  // 4. Release staged work the token buckets can pay for; an idle class
  //    starts serving its first release at once.
  {
    obs::ScopedProfTimer prof_release(&prof_, obs::kProfBucketRelease);
    const std::uint64_t tmask = trace_mask_;
    for (std::size_t c = 0; c < blocks_.size(); ++c) {
      ClassBlock& b = blocks_[c];
      while (b.rel != b.fifo.tail &&
             b.bucket.try_consume(b.fifo[b.rel].size, now)) {
        ++b.rel;
        // Release ordinal == accepted ordinal (staging is FIFO), so the
        // admission-sampled requests are exactly the ones that fire here.
        if ((++b.released & tmask) == 0) {
          trace_release(static_cast<ClassId>(c), now);
        }
      }
      if (!b.busy && b.fifo.head != b.rel) start_service(b, now, rates_[c]);
    }
  }

  // 5. Roll estimator windows that closed by `now` and refresh the cached
  //    estimates the controller consumes.
  bool rolled = false;
  while (next_roll_ <= now) {
    estimator_.roll(next_roll_);
    if (offered_est_ != nullptr) offered_est_->roll(next_roll_);
    next_roll_ += cfg_.window;
    rolled = true;
  }
  if (rolled) refresh_estimates();

  ++drains_;
  done_.store(done_total_, std::memory_order_release);
  shed_n_.store(shed_total_, std::memory_order_release);
  publish(now);
  // Telemetry is KBs of histogram state; republish on window rolls, and
  // then only once per telemetry_publish_interval — at high request rates
  // the seqlock copy would otherwise show up in per-request cost.
  if (rolled && cfg_.telemetry &&
      now - last_telem_publish_ >= cfg_.telemetry_publish_interval) {
    publish_telemetry(now);
  }
  return popped;
}

void Shard::trace_shed(ClassId c, const Request& req, Time now) {
  obs::Span s;
  s.trace_id = make_trace_id(cfg_.shard_id, c, /*shed=*/true, sheds_cls_[c]);
  s.tick_seq = ctrl_tick_seq_;
  s.t_ingress = req.arrival;  // still the producer stamp on the shed path
  s.t_admit = now;
  s.size = req.size;
  s.cls = c;
  s.shard = cfg_.shard_id;
  s.verdict = static_cast<std::uint8_t>(admission_->shed_verdict());
  span_ring_->push(s);  // sheds are complete at the verdict: emit now
}

void Shard::trace_admit(ClassId c, const Request& req, Time now) {
  PendingTrace p;
  p.ordinal = blocks_[c].accepted;
  p.span.trace_id =
      make_trace_id(cfg_.shard_id, c, /*shed=*/false, p.ordinal);
  p.span.tick_seq = ctrl_tick_seq_;
  p.span.t_ingress = req.arrival;  // the producer stamp
  p.span.t_admit = now;
  p.span.size = req.size;
  p.span.cls = c;
  p.span.shard = cfg_.shard_id;
  pending_spans_[c].push_back(p);
}

void Shard::trace_release(ClassId c, Time now) {
  // Front-biased scan: releases happen in ordinal order, so the match is
  // almost always the first entry without a t_pop yet.
  for (PendingTrace& p : pending_spans_[c]) {
    if (p.ordinal == blocks_[c].released) {
      p.span.t_pop = now;
      return;
    }
  }
}

void Shard::trace_complete(const Request& req) {
  auto& q = pending_spans_[req.cls];
  const std::uint64_t ordinal = blocks_[req.cls].done;
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->ordinal != ordinal) continue;
    it->span.t_start = req.service_start;
    it->span.t_complete = req.departure;
    it->span.slowdown = req.slowdown();
    span_ring_->push(it->span);
    q.erase(it);
    return;
  }
}

void Shard::refresh_estimates() {
  lambda_cache_ = estimator_.lambda_estimate();
  if (offered_est_ != nullptr) {
    offered_cache_ = offered_est_->lambda_estimate();
  }
  window_sd_cache_ = metrics_.last_window_slowdowns();
  // Captured together with the slowdowns so the published (value, seq)
  // pair is coherent: seq is the number of CLOSED windows behind value.
  for (std::size_t c = 0; c < window_seq_cache_.size(); ++c) {
    window_seq_cache_[c] = metrics_.windows(static_cast<ClassId>(c)).size();
  }
}

void Shard::publish(Time now) {
  obs::ScopedProfTimer prof_pub(&prof_, obs::kProfPublish);
  ShardSnapshot s;
  s.time = now;
  s.num_classes = static_cast<std::uint32_t>(cfg_.num_classes);
  s.drains = drains_;
  s.windows_closed = estimator_.windows_closed();
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    const auto cls = static_cast<ClassId>(c);
    const ClassBlock& b = blocks_[c];
    s.drops_cls[c] = drops_cls_[c].get();
    s.drops += s.drops_cls[c];
    s.accepted[c] = b.accepted;
    s.completed[c] = metrics_.completed(cls);
    s.staged[c] = b.fifo.tail - b.rel;
    s.outstanding[c] = b.accepted - b.done;
    s.lambda_hat[c] = lambda_cache_[c];
    s.mean_slowdown[c] = metrics_.slowdown(cls).mean();
    s.window_slowdown[c] = window_sd_cache_[c];
    s.rate[c] = rates_[c];
    s.mean_ingress_wait[c] = ingress_wait_[c].mean();
    s.window_seq[c] = window_seq_cache_[c];
  }
  if (admission_ != nullptr) {
    for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
      s.sheds_cls[c] = sheds_cls_[c];
      s.offered_lambda[c] = offered_cache_[c];
    }
  }
  snap_.publish(s);
}

void Shard::publish_telemetry(Time now) {
  last_telem_publish_ = now;
  telem_.time = now;
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    telem_.accepted[c] = blocks_[c].accepted;
    telem_.completions[c] = blocks_[c].done;
  }
  telem_.prof = prof_.snap();
  telem_snap_.publish(telem_);
}

void Shard::finalize(Time now) {
  drain(now);
  metrics_.finalize();
  refresh_estimates();
  publish(now);
  if (cfg_.telemetry) publish_telemetry(now);
}

}  // namespace psd::rt
