// RuntimeHandle: the narrow interface an embedder drives a Runtime through.
//
// The Runtime class carries two concerns — the shard/controller topology and
// the thread lifecycle that drives it.  Everything that wants to EMBED a
// runtime (the cluster dispatcher treating it as one node of many,
// deterministic tests injecting hand-built arrivals, psdserved as the 1-node
// special case) needs only the first concern, behind two verbs:
//
//   submit()           — inject one request (per-class round-robin over the
//                        shards, so per-shard class mixes stay aligned with
//                        the global mix; the runtime's own load sources each
//                        spray through one),
//   shard_snapshots()  — read the seqlock-published per-shard state.
//
// Shards are drained through the lifecycle forwards below (step_to, run)
// or, in a cluster, by its per-node drain groups.
//
// Rates are not a handle verb: a cluster steers its nodes' shards through
// one rt::Controller (rt/controller.hpp) with a shard group per node.
//
// The handle is a non-owning view: it borrows the Runtime and adds only the
// round-robin cursors.  Thread discipline mirrors the components it fronts —
// submit() from one dispatcher thread at a time (the cursors are plain
// integers); snapshot readers are free.
#pragma once

#include <vector>

#include "rt/runtime.hpp"

namespace psd::rt {

class RuntimeHandle {
 public:
  explicit RuntimeHandle(Runtime& rt)
      : rt_(&rt), rr_(rt.config().num_classes(), 0) {}

  /// Inject one request; false (a counted drop) when the target shard's
  /// ingress ring is full.  One dispatcher thread at a time.
  bool submit(const Request& req) {
    std::size_t& cursor = rr_[req.cls];
    const std::size_t shard = cursor;
    if (++cursor == rt_->num_shards()) cursor = 0;
    return rt_->shard(shard).submit(req);
  }

  /// Seqlock-consistent state of every shard (any thread).
  std::vector<ShardSnapshot> shard_snapshots() const {
    std::vector<ShardSnapshot> out;
    out.reserve(rt_->num_shards());
    for (std::size_t i = 0; i < rt_->num_shards(); ++i) {
      out.push_back(rt_->shard(i).snapshot());
    }
    return out;
  }

  // Lifecycle forwards — psdserved runs a whole serving session through the
  // handle; the cluster calls finish()/report() per node.
  RtReport run() { return rt_->run(); }
  void step_to(Time t) { rt_->step_to(t); }
  void finish() { rt_->finish(); }
  RtReport report() const { return rt_->report(); }

  std::uint64_t outstanding() const { return rt_->total_outstanding(); }
  std::size_t num_shards() const { return rt_->num_shards(); }
  const RtConfig& config() const { return rt_->config(); }
  Runtime& runtime() { return *rt_; }
  const Runtime& runtime() const { return *rt_; }

 private:
  Runtime* rt_;
  std::vector<std::size_t> rr_;  ///< Per-class shard cursor (submit spray).
};

}  // namespace psd::rt
