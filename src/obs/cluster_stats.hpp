// Cluster-level stats stream: one JSONL line per cluster-controller tick.
//
// The per-node exporters (obs/exporter.hpp, psd.rt.stats.v1) describe one
// runtime from the inside; this stream describes the CLUSTER from the
// dispatcher's seat — which nodes are alive, how arrivals were spread, what
// per-class rates the cluster controller pushed where — so a rebalance or a
// node kill can be replayed offline from a single file.  Schema
// psd.cluster.stats.v1: a header line, then sample lines, then `kill` event
// lines interleaved at the times they happened.
//
// Same rendering discipline as the campaign artifacts (sweep/jsonl.hpp):
// %.17g doubles, NaN -> null, so a ManualClock run emits identical bytes on
// every execution.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace psd::obs {

/// One node's contribution to a sample line (aggregated over its shards).
struct ClusterNodeStats {
  bool alive = true;
  std::uint64_t dispatched = 0;   ///< Requests routed here so far.
  std::uint64_t outstanding = 0;  ///< Accepted, not yet completed.
  std::vector<double> lambda;     ///< Per-class admitted arrivals/sec.
};

class ClusterStatsLog {
 public:
  /// Opens `path` (truncating) and writes the header line.  Throws on I/O
  /// failure — a stats file the user asked for must not silently vanish.
  ClusterStatsLog(const std::string& path, std::size_t nodes,
                  std::size_t num_classes, const std::string& assignment);

  /// Append one sample line (call on the global-controller cadence).
  void sample(double now, const std::vector<ClusterNodeStats>& nodes,
              const std::vector<double>& global_rates,
              std::uint64_t rebalances);

  /// Append a node-kill event line.
  void kill(double now, std::size_t node);

 private:
  std::ofstream out_;
};

}  // namespace psd::obs
