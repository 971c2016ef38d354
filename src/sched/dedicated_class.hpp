// The dedicated-rate task server of one class, as plain data and arithmetic.
//
// The paper's model gives class i a private fluid server of rate r_i, so
// between rate handoffs the classes share no state.  Three engines serve it:
// DedicatedRateBackend (event-driven, behind Server), the lockstep
// replication kernel, and the rt shard's per-class block.  They keep their
// own loops but share the pieces below, so the rate floor, the settle and
// reschedule arithmetic and the waiting-queue storage exist once — and the
// three stay bit-identical by construction, not by mirroring.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace psd {

/// A paused class (rate ~ 0) never completes; the floor keeps its
/// completion time finite.
inline constexpr double kMinRate = 1e-9;

/// Completion time of `remaining` work served at `rate` from `now`.
inline Time completion_time(Time now, Work remaining, double rate) {
  return now + remaining / std::max(rate, kMinRate);
}

/// Settle the in-service request's work at `rate` up to `now` (before a
/// rate handoff): `remaining` drops by what was served since `last_settle`.
inline void settle_remaining(Work& remaining, Time& last_settle, double rate,
                             Time now) {
  remaining -= (now - last_settle) * rate;
  if (remaining < 0.0) remaining = 0.0;
  last_settle = now;
}

/// A waiting request as the lockstep kernel stores it: only what service
/// assignment needs; the service-time fields are filled in at pop.
struct QEntry {
  RequestId id;
  Time arrival;
  Work size;
};

/// Power-of-two FCFS ring with monotone head/tail counters.  Growth keeps
/// every entry at its logical index, so a caller may hold further cursors
/// into [head, tail) across pushes (the rt shard's release cursor).
template <typename Entry>
struct Ring {
  std::vector<Entry> buf;
  std::uint64_t head = 0, tail = 0, mask = 0;

  bool empty() const { return head == tail; }
  Entry& operator[](std::uint64_t i) { return buf[i & mask]; }
  void push(const Entry& e) {
    if (tail - head == buf.size()) grow();
    buf[tail & mask] = e;
    ++tail;
  }
  const Entry& pop_front() {
    const Entry& e = buf[head & mask];
    ++head;
    return e;
  }
  void grow() {
    std::vector<Entry> next(buf.empty() ? 16 : buf.size() * 2);
    const std::uint64_t next_mask = next.size() - 1;
    for (std::uint64_t i = head; i != tail; ++i) {
      next[i & next_mask] = buf[i & mask];
    }
    buf = std::move(next);
    mask = next_mask;
  }
};

}  // namespace psd
