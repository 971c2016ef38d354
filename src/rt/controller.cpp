#include "rt/controller.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psd::rt {

Controller::Controller(ControllerConfig cfg,
                       std::vector<std::vector<Shard*>> groups,
                       std::vector<double> weights)
    : cfg_(std::move(cfg)), groups_(std::move(groups)) {
  const std::size_t n = cfg_.psd.delta.size();
  PSD_REQUIRE(n >= 1 && n <= kMaxRtClasses,
              "controller supports 1..kMaxRtClasses classes");
  for (const auto& group : groups_) {
    PSD_REQUIRE(!group.empty(), "controller group needs at least one shard");
    windows_seen_.emplace_back(group.size() * n, 0);
  }
  // Until the first warm tick, every shard runs its initial (equal) split.
  rates_.assign(n, cfg_.psd.capacity * static_cast<double>(groups_.size()) /
                       static_cast<double>(n));
  set_weights(std::move(weights));
  prof_.set_enabled(cfg_.profile);
}

void Controller::set_weights(std::vector<double> weights) {
  PSD_REQUIRE(weights.size() == groups_.size(), "one weight per group");
  for (const double w : weights) {
    PSD_REQUIRE(w >= 0.0 && std::isfinite(w), "group weights must be >= 0");
  }
  weights_ = std::move(weights);
  const auto live = std::count_if(weights_.begin(), weights_.end(),
                                  [](double w) { return w > 0.0; });
  PSD_REQUIRE(live > 0, "controller needs a live group");
  PsdAllocatorConfig pc = cfg_.psd;
  pc.capacity = cfg_.psd.capacity * static_cast<double>(live);
  allocator_ = make_rate_allocator(cfg_.allocator, pc, cfg_.adaptive);
}

std::vector<double> Controller::slice(const std::vector<double>& global,
                                      std::size_t g) const {
  const double inv_shards = 1.0 / static_cast<double>(groups_[g].size());
  std::vector<double> out(global.size());
  for (std::size_t c = 0; c < global.size(); ++c) {
    out[c] = global[c] * weights_[g] * inv_shards;
  }
  return out;
}

std::vector<ControllerTraceEntry> Controller::trace_since(
    std::uint64_t* cursor) const {
  std::vector<ControllerTraceEntry> out;
  std::lock_guard<std::mutex> lock(trace_m_);
  for (const auto& e : trace_) {
    if (e.tick > *cursor) out.push_back(e);
  }
  if (!out.empty()) *cursor = out.back().tick;
  return out;
}

std::string Controller::allocator_name() const {
  return allocator_ ? allocator_->name() : "none";
}

void Controller::tick(Time now) {
  obs::ScopedProfTimer prof_tick(&prof_, obs::kProfControllerTick);
  const std::size_t n = cfg_.psd.delta.size();
  std::vector<double> lambda(n, 0.0);
  std::vector<double> offered(n, 0.0);
  std::uint64_t windows_total = 0;
  std::vector<double> sd_sum(n, 0.0);
  std::vector<std::uint32_t> sd_cnt(n, 0);
  bool fresh_window = false;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (weights_[g] == 0.0) continue;  // Dead group.
    for (std::size_t s = 0; s < groups_[g].size(); ++s) {
      const ShardSnapshot snap = groups_[g][s]->snapshot();
      windows_total += snap.windows_closed;
      for (std::size_t c = 0; c < n; ++c) {
        lambda[c] += snap.lambda_hat[c];
        offered[c] += snap.offered_lambda[c];
        // Slowdown feedback only from classes whose metrics window actually
        // advanced since this controller last looked: ticks and shard
        // window rolls are not phase-locked (and windows close lazily, on
        // the first completion past the boundary), so gating on the
        // per-class sequence number is what makes the adaptive integrator
        // see each window once — not once per tick, and not again during a
        // completion lull.
        std::uint64_t& seen = windows_seen_[g][s * n + c];
        const bool advanced = snap.window_seq[c] > seen;
        seen = snap.window_seq[c];
        if (advanced && std::isfinite(snap.window_slowdown[c])) {
          sd_sum[c] += snap.window_slowdown[c];
          ++sd_cnt[c];
          fresh_window = true;
        }
      }
    }
  }
  std::vector<double> mean_sd(n, kNaN);
  for (std::size_t c = 0; c < n; ++c) {
    if (sd_cnt[c] > 0) mean_sd[c] = sd_sum[c] / sd_cnt[c];
  }

  // Admission update cadence: once per estimation window (some shard's
  // estimator rolled since the last staged update), not once per tick —
  // gate decisions latch between windows, mirroring the allocator.  Each
  // shard's gate is sized at shard capacity, so it receives its slice of
  // the aggregated offered view.
  if (cfg_.admission && windows_total > admission_windows_seen_) {
    admission_windows_seen_ = windows_total;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (weights_[g] == 0.0) continue;
      const std::vector<double> offered_slice = slice(offered, g);
      for (Shard* shard : groups_[g]) {
        shard->stage_admission_update(offered_slice);
      }
    }
  }

  ++ticks_;
  ControllerTraceEntry trace_entry;
  if (cfg_.trace) {
    trace_entry.time = now;
    trace_entry.tick = ticks_;
    trace_entry.fresh_window = fresh_window;
    trace_entry.num_classes = static_cast<std::uint32_t>(n);
    for (std::size_t c = 0; c < n; ++c) {
      trace_entry.lambda[c] = lambda[c];
      trace_entry.window_slowdown[c] = mean_sd[c];
      trace_entry.rate_in[c] = rates_[c];
    }
  }
  const double total =
      std::accumulate(lambda.begin(), lambda.end(), 0.0);
  // Cold start (estimators have not closed a window yet) keeps the initial
  // equal split; eq. 17 needs at least one positive lambda.
  if (allocator_ != nullptr && total > 0.0) {
    if (fresh_window) allocator_->observe_slowdowns(mean_sd);
    {
      obs::ScopedProfTimer prof_alloc(&prof_, obs::kProfAllocate);
      rates_ = allocator_->allocate(lambda);
    }
    ++allocations_;
    trace_entry.reallocated = true;
    // Stamp the handoff with this tick so spans admitted under these rates
    // name the allocation that governed them.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (weights_[g] == 0.0) continue;
      const std::vector<double> rate_slice = slice(rates_, g);
      for (Shard* shard : groups_[g]) shard->apply_rates(rate_slice, ticks_);
    }
  }
  if (cfg_.trace) {
    for (std::size_t c = 0; c < n; ++c) trace_entry.rate_out[c] = rates_[c];
    std::lock_guard<std::mutex> lock(trace_m_);
    trace_.push_back(trace_entry);
    while (trace_.size() > cfg_.trace_capacity) trace_.pop_front();
  }

  ControllerSnapshot s;
  s.time = now;
  s.num_classes = static_cast<std::uint32_t>(n);
  s.ticks = ticks_;
  s.allocations = allocations_;
  for (std::size_t c = 0; c < n; ++c) {
    s.lambda[c] = lambda[c];
    s.rate[c] = rates_[c];
    s.window_slowdown[c] = mean_sd[c];
  }
  snap_.publish(s);
}

}  // namespace psd::rt
