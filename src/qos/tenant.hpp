// Multi-tenant QoS policy: tenant registry, token buckets, deadlines.
//
// A tenant is a named traffic class with a weighted-fair share
// (consumed by qos::FairQueue's deficit-round-robin), an optional
// token-bucket rate limit, and an optional deadline class.  The tenant
// id travels in the wire-frame header (docs/net.md); an absent or
// unknown id resolves to the default tenant, so pre-QoS senders and
// recorded replay streams are served unchanged.
//
// Everything here is deterministic: the token bucket is clocked by the
// caller-supplied admission timestamp (Pending.submit_ns), never by its
// own clock reads, so a recorded schedule of (tenant, submit_ns) pairs
// replays to the identical admit/shed sequence — which is what the qc
// `qos_fairness` and `qos_shed_purity` properties pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pslocal::qos {

/// Per-tenant policy.  The zero-argument default is the policy of the
/// default tenant: weight 1, no rate limit, no deadline.
struct TenantConfig {
  std::string name;           // "" names the default tenant
  std::uint64_t weight = 1;   // DRR share (relative to other tenants)
  double rate_rps = 0.0;      // token-bucket refill rate; 0 = unlimited
  double burst = 0.0;         // bucket capacity in tokens; 0 = max(8, rate/10)
  std::uint64_t deadline_ms = 0;  // deadline class; 0 = no deadline
  std::size_t queue_limit = 0;    // per-tenant FIFO bound; 0 = global only
};

/// QoS knob block embedded in service::EngineConfig.  `enabled` decides
/// whether `tenants` become lanes of the engine's queue and show in its
/// stats; off, the queue keeps only the default lane.
struct QosConfig {
  bool enabled = false;
  std::vector<TenantConfig> tenants;  // default tenant added if absent
  std::uint64_t quantum = 4;  // DRR deficit credit per weight unit per visit
  std::uint64_t seed = 1;     // seeds the DRR tenant visit order
};

/// Immutable name -> policy table.  Index 0 is always the default
/// tenant; unknown names resolve to it.
class TenantRegistry {
 public:
  /// Builds the table.  A config named "" overrides the default
  /// tenant's policy; duplicate names are a contract violation.
  explicit TenantRegistry(std::vector<TenantConfig> tenants = {});

  /// Registry index for a wire tenant id (unknown -> 0, the default).
  [[nodiscard]] std::size_t resolve(std::string_view name) const;

  [[nodiscard]] const TenantConfig& config(std::size_t index) const;
  [[nodiscard]] std::size_t size() const { return tenants_.size(); }

 private:
  std::vector<TenantConfig> tenants_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Deterministic token bucket.  Clocked entirely by the timestamps the
/// caller passes in (monotonically non-decreasing by contract of the
/// admission path, which stamps submit_ns under the queue lock).
class TokenBucket {
 public:
  /// rate_rps 0 disables the bucket (every acquire admits).
  TokenBucket(double rate_rps, double burst);

  struct Verdict {
    bool admitted = true;
    std::uint64_t retry_after_us = 0;  // time until the next whole token
  };

  /// Refill to `now_ns`, then take one token or compute the backoff
  /// hint: the exact time until a whole token exists, which makes the
  /// hint deterministic for a fixed timestamp schedule.
  [[nodiscard]] Verdict try_acquire(std::uint64_t now_ns);

  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double rate_per_ns_;  // 0 = unlimited
  double capacity_;
  double tokens_;
  std::uint64_t last_ns_ = 0;
};

}  // namespace pslocal::qos
