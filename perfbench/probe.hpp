// Layer-by-layer measurement for the traced run.
//
// Two passes, both sequential on the benchmark thread while the server
// is idle, so the process-wide runtime counters they read belong to
// them alone:
//
//  * layer_probe: for a seeded sample of the workload's instances, call
//    each layer's public function once (G_k build, census, greedy, Luby,
//    greedy CF, the Theorem 1.1 reduction, execute_request per kind,
//    the wire codecs, DynamicConflictGraph::apply and repair_mis) inside
//    spans.  Gives per-call times and the exact work counts pinned per
//    seed and thread count.
//  * served_replay: the requests of the traced serving window, in served
//    order, walked through the same layers — a cache hit as seen on the
//    wire costs only the codecs and a cache probe, a miss runs the
//    kind's layers.  Gives each layer's self-time share per request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace perfbench {

/// Deterministic work counts of one probe pass.
struct LayerCounts {
  std::uint64_t gk_triples = 0;
  std::uint64_t gk_edges = 0;
  std::uint64_t greedy_picks = 0;
  std::uint64_t luby_rounds = 0;
  std::uint64_t reduction_phases = 0;
  std::uint64_t runtime_regions = 0;
  std::uint64_t mutation_steps = 0;
  std::uint64_t repair_ball = 0;  // summed over steps

  bool operator==(const LayerCounts&) const = default;
  [[nodiscard]] std::string describe() const;
};

/// One probe pass.  `instances` are requests whose instance and k are
/// probed (one per distinct instance); `mutations` are mutate requests.
/// Spans go to the kProbe group when recording is on.
[[nodiscard]] LayerCounts layer_probe(
    const std::vector<pslocal::service::Request>& instances,
    const std::vector<pslocal::service::Request>& mutations);

/// One served request as the replay needs it.
struct ServedRecord {
  pslocal::service::Request request;
  bool cache_hit = false;
  std::string payload;
};

/// Replay served requests through the layers (spans in kReplay).
void served_replay(const std::vector<ServedRecord>& served);

}  // namespace perfbench
