// Shared scenario-construction pieces: the factories and protocol helpers
// run_scenario assembles a replication from, exposed so the lockstep batch
// kernel (experiment/lockstep.cpp) builds its lanes from the *same* parts.
// Any drift between the two paths breaks the bitwise-equivalence contract,
// so there is exactly one definition of each (in runner.cpp).
//
// Internal to src/experiment — not part of the public runner API.
#pragma once

#include <memory>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "sched/backend.hpp"
#include "server/allocator.hpp"
#include "server/server.hpp"
#include "workload/arrival.hpp"

namespace psd::detail {

/// Scheduler backend the config selects (`unit` = raw time per paper tu).
std::unique_ptr<SchedulerBackend> make_scenario_backend(
    const ScenarioConfig& cfg, double unit);

/// eq.-17 allocator parameters of one node (make_rate_allocator's input).
PsdAllocatorConfig psd_allocator_config(const ScenarioConfig& cfg,
                                        double mean_size);

/// One class's arrival process in raw simulator time: the configured
/// stationary shape, modulated by the scenario profile when one is set
/// (profile times are paper tu, so scale them by `unit` first).
ArrivalVariant scenario_arrivals(const ScenarioConfig& cfg, double lambda,
                                 double unit);

/// ServerConfig for one node (measurement protocol scaled to raw time).
ServerConfig node_server_config(const ScenarioConfig& cfg, double unit);

/// Per-class settle times (tu) from the per-window slowdown series, when
/// the profile defines a settling point inside the run.
std::vector<double> settle_times(const ScenarioConfig& cfg,
                                 const RunResult& r);

}  // namespace psd::detail
