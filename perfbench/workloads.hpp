// The four serving workloads.  Each drives the real serving path —
// net::Client or ShardClient over loopback TCP into net::Server in front
// of ServiceEngine — from this one process, with at most four client
// threads or connections:
//
//   hot-mix       closed loop, one thread keeping 8 requests in flight
//                 over 4 connections, one qos-off engine, the default
//                 five-kind trace; the caches are warmed during set-up,
//                 so the timed window is all cache hits.
//   cold-gk       closed loop, one thread keeping 4 requests in flight
//                 over 4 connections, large instances drawn from a pool
//                 as large as the trace, which is far larger than the
//                 caches: nearly every request builds G_k and runs an
//                 oracle.
//   overload-qos  open loop against a qos engine: `gold` sends Poisson
//                 arrivals on warm keys, `abuse` sends bounded-Pareto
//                 bursts on cold keys at several times its token rate.
//   shard-mutate  closed loop, 4 ShardClients over a 2-shard cluster at
//                 rf=2, with mutation scripts beside the reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/server.hpp"
#include "probe.hpp"
#include "service/engine.hpp"
#include "shard/shard_client.hpp"

namespace perfbench {

/// One timed window as the clients saw it: the recorder of its ok
/// responses (on overload-qos only `gold`'s are in-SLO), and the
/// accounting of every request.
struct Window {
  double wall_s = 0.0;
  WindowRecorder rec{1.0, 1, 0.0};
  Accounting accounting;
  Gate gate;                   // checks made while serving
  std::vector<ServedRecord> served;  // first requests, for the replay
  // overload-qos only: per-tenant sends and sheds.
  std::uint64_t gold_sent = 0, gold_shed = 0;
  std::uint64_t abuse_sent = 0, abuse_shed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything a deployment pays before serving: traces and instances,
  /// engines, servers, connections and cache warm-up.  Timed as setup_s.
  virtual void setup() = 0;

  /// Untimed preparation of the references checked while serving.
  virtual void prepare() {}

  /// Serve for `seconds`; keep up to `record` served requests for the
  /// replay.  Windows continue where the previous one stopped.
  virtual Window run(double seconds, std::size_t record) = 0;

  /// Check the sampled responses of every window so far against direct
  /// execute_request calls (outside the timed windows).
  virtual void verify(Gate& gate) = 0;

  /// Probe inputs: one request per sampled distinct instance, and a few
  /// mutate requests over the workload's instance sizes.
  [[nodiscard]] virtual std::vector<pslocal::service::Request>
  probe_instances() const = 0;
  [[nodiscard]] virtual std::vector<pslocal::service::Request>
  probe_mutations() const = 0;

  [[nodiscard]] virtual std::vector<pslocal::service::ServiceEngine*>
  engines() = 0;
  [[nodiscard]] virtual std::vector<pslocal::net::Server*> servers() = 0;
  /// Summed over the workload's ShardClients; zero when it has none.
  [[nodiscard]] virtual pslocal::shard::ShardClient::Stats shard_stats() {
    return {};
  }
  [[nodiscard]] virtual std::vector<std::uint64_t> routed_per_shard() {
    return {};
  }
  /// Where a round-trip probe may send: the workload's servers with its
  /// replication factor.
  [[nodiscard]] virtual pslocal::shard::Topology topology() = 0;

  /// Distinct cache keys in the workload's generated requests.
  [[nodiscard]] virtual std::size_t distinct_keys() const = 0;

  /// Fixed per workload: the latency limit goodput is counted against,
  /// the number of time slices the window metrics take a median over,
  /// and the client threads or connections used.
  [[nodiscard]] virtual double latency_limit_ms() const = 0;
  [[nodiscard]] virtual std::size_t slices() const = 0;
  [[nodiscard]] virtual std::size_t clients() const = 0;

 protected:
  /// An empty recorder for a window of `seconds`.
  [[nodiscard]] WindowRecorder blank(double seconds) const {
    return WindowRecorder(seconds, slices(), latency_limit_ms());
  }
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
