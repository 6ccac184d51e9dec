// Admission vocabulary of the serving front door: the verdict a submit
// gets and the Pending record an admitted request travels in.  The one
// queue that produces them is qos::FairQueue (qos/fair_queue.hpp);
// built from a default QosConfig it is a single bounded FIFO lane.
//
// Admission is non-blocking and total — a push either enters the queue
// or is rejected *now* with a reason (kQueueFull, kShutdown, kShed);
// clients implement their own retry policy.  Rejection is a pure
// function of queue state, so for a serial submission schedule the
// accept/reject sequence is deterministic (tests pin it by filling an
// undrained queue).
#pragma once

#include <cstdint>
#include <future>

#include "service/request.hpp"

namespace pslocal::service {

/// Admission decision for one submit.
enum class Admission : std::uint8_t {
  kAccepted,
  kQueueFull,  // bounded queue at capacity; retry or shed load
  kShutdown,   // engine stopping; no further requests served
  kShed,       // QoS load shed (over-budget tenant); retry after hint
};

/// Stable wire name ("accepted", "queue_full", "shutdown", "shed").
[[nodiscard]] const char* admission_name(Admission a);

/// Admission outcome plus the deterministic backoff hint that rides a
/// kShedRetryAfter NACK (0 for every other admission).
struct AdmissionVerdict {
  Admission admission = Admission::kShutdown;
  std::uint64_t retry_after_us = 0;
};

/// One admitted request travelling through the engine.
struct Pending {
  Request request;
  std::promise<Response> promise;
  std::uint64_t submit_ns = 0;    // now_ns() at admission
  std::size_t tenant = 0;         // registry index (0 = default tenant)
  std::uint64_t deadline_ns = 0;  // absolute deadline; 0 = none
};

}  // namespace pslocal::service
