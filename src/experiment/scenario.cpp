#include "experiment/scenario.hpp"

#include <cstdio>

#include "baselines/static_allocators.hpp"
#include "common/error.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"

namespace psd {

std::unique_ptr<RateAllocator> make_rate_allocator(
    AllocatorKind kind, const PsdAllocatorConfig& pc,
    const AdaptiveConfig& adaptive) {
  switch (kind) {
    case AllocatorKind::kPsd:
      return std::make_unique<PsdRateAllocator>(pc);
    case AllocatorKind::kAdaptivePsd:
      return std::make_unique<AdaptivePsdAllocator>(pc, adaptive);
    case AllocatorKind::kEqualShare:
      return std::make_unique<EqualShareAllocator>(pc.delta.size(),
                                                   pc.capacity);
    case AllocatorKind::kLoadProportional:
      return std::make_unique<LoadProportionalAllocator>(
          pc.delta.size(), pc.capacity, pc.mean_size);
    case AllocatorKind::kNone:
      return nullptr;
  }
  PSD_UNREACHABLE("unknown allocator kind");
}

double ScenarioConfig::time_unit() const {
  return make_sampler(size_dist).mean() / capacity;
}

std::vector<double> ScenarioConfig::true_lambdas() const {
  const double mean = make_sampler(size_dist).mean();
  if (load_share.empty()) {
    return rates_for_equal_load(load, capacity, mean, delta.size());
  }
  return rates_for_load(load, capacity, mean, load_share);
}

void ScenarioConfig::validate() const {
  PSD_REQUIRE(!delta.empty(), "need at least one class");
  for (std::size_t i = 0; i < delta.size(); ++i) {
    PSD_REQUIRE(delta[i] > 0.0, "delta must be positive");
    if (i > 0) {
      PSD_REQUIRE(delta[i] >= delta[i - 1],
                  "deltas must be non-decreasing (class 0 is highest)");
    }
  }
  if (admission.active()) {
    // An admission gate makes beyond-capacity offered load a deliberate,
    // survivable regime; without one the system must stay stable.
    PSD_REQUIRE(load > 0.0, "load must be positive");
  } else {
    PSD_REQUIRE(load > 0.0 && load < 1.0,
                "load must be in (0,1) for a stable system");
  }
  admission.validate();
  if (!admission.active() && load * profile.peak_factor() > 1.0) {
    std::fprintf(stderr,
                 "psd: warning: peak offered utilization %.3g (load %g x "
                 "profile peak %g) exceeds capacity with admission off; the "
                 "queues grow without bound during the peak\n",
                 load * profile.peak_factor(), load, profile.peak_factor());
  }
  PSD_REQUIRE(capacity > 0.0, "capacity must be positive");
  PSD_REQUIRE(warmup_tu >= 0.0, "warmup must be >= 0");
  PSD_REQUIRE(measure_tu > 0.0, "measurement length must be positive");
  PSD_REQUIRE(window_tu > 0.0, "window must be positive");
  PSD_REQUIRE(realloc_tu >= 0.0, "realloc period must be >= 0");
  PSD_REQUIRE(!load_share.empty() ? load_share.size() == delta.size() : true,
              "load_share size mismatch");
  PSD_REQUIRE(cluster_nodes >= 1, "need at least one cluster node");
  if (arrivals == ArrivalKind::kBursty) {
    PSD_REQUIRE(burstiness >= 1.0, "burstiness must be >= 1");
    PSD_REQUIRE(mmpp_sojourn > 0.0, "mmpp sojourn must be positive");
    PSD_REQUIRE(mmpp_duty > 0.0 && mmpp_duty < 1.0,
                "mmpp duty must be in (0,1)");
  }
  profile.validate();
  PSD_REQUIRE(converge_tol > 0.0, "convergence tolerance must be positive");
  if (cluster_nodes > 1 && cluster_policy == AssignmentPolicy::kSizeInterval) {
    PSD_REQUIRE(size_dist.kind == DistSpec::Kind::kBoundedPareto,
                "size-interval (SITA-E) cutoffs require a bounded-pareto "
                "service-time distribution");
  }
  if (cluster_policy == AssignmentPolicy::kJsq) {
    PSD_REQUIRE(cluster_jsq_d >= 1, "jsq sample size d must be >= 1");
  }
  if (record_requests) {
    PSD_REQUIRE(record_to_tu > record_from_tu, "empty recording window");
  }
}

}  // namespace psd
