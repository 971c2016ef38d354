// Correctness checks of the benchmark run.  Each is a pure function of the
// numbers a phase produced and returns an empty string when the check holds,
// otherwise a one-line reason; a non-empty reason fails the run.  selftest()
// feeds every check a good and a deliberately broken input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// One phase's request ledger.  `offered` and `dropped` are counted by the
/// harness at its own submit call; the rest come from the runtime's report.
struct Ledger {
  std::string phase;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;    ///< Including warmup completions.
  std::uint64_t shed = 0;         ///< Admission-gate sheds (policy).
  std::uint64_t dropped = 0;      ///< Ring-full, counted at submit().
  std::uint64_t dropped_rt = 0;   ///< Ring-full, as the runtime reports it.
  std::uint64_t outstanding = 0;  ///< Accepted, never completed.
};

/// offered = completed + shed + dropped + outstanding, and both drop counts
/// agree; with `drained` the phase must also end with nothing outstanding.
std::string check_conservation(const Ledger& l, bool drained);

/// Byte equality of two serialized results (NaN payloads included).
std::string check_identical(const std::string& what, const std::string& a,
                            const std::string& b);

/// The overload workload really overloads: offered rate at least 1.4x the
/// capacity rate, and the gate shed something.
std::string check_overload(const std::string& phase, double offered_per_s,
                           double capacity_per_s, std::uint64_t shed);

/// Record a check's reason in `failures` when it failed.
inline void note(std::vector<std::string>& failures,
                 const std::string& reason) {
  if (!reason.empty()) failures.push_back(reason);
}

/// Run every check on a good and a broken input; prints one line per case
/// and returns the number of cases that behaved wrongly.
int selftest();

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& bytes);

}  // namespace pb
