// Shared pieces of the serving benchmark: run options, the window
// recorder and the statistics taken over it, failure accounting, the
// payload self-check, and the metric sink printed as the final JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "service/request.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   // Chrome-trace JSON of the traced run ("" = none)
  std::string result_out;  // result JSON with provenance ("" = none)
};

/// Outcome tallies of one phase.  `attempted` counts requests, not
/// sends: a kQueueFull NACK that is resent counts into `retries`.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;            // designed sheds (abusive tenant)
  std::uint64_t shed_unexpected = 0; // sheds of an in-SLO request
  std::uint64_t nacked = 0;          // NACKs other than a retried queue_full
  std::uint64_t retries = 0;         // queue_full NACKs that were resent
  std::uint64_t errors = 0;          // kError / kRejected / transport
  std::uint64_t lost = 0;            // sent, never resolved
  std::uint64_t timeouts = 0;

  void merge(const Accounting& o);
  /// Requests that failed: everything but ok and designed sheds.
  [[nodiscard]] std::uint64_t failed() const {
    return shed_unexpected + nacked + errors + lost + timeouts;
  }
  [[nodiscard]] std::string describe() const;
};

/// Correctness tallies: payloads compared byte for byte against the
/// direct execute_request reference, and self-check fields inspected.
struct Gate {
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t self_checked = 0;
  std::uint64_t self_check_failures = 0;
  std::string first_problem;

  void merge(const Gate& o);
  void mismatch(const std::string& what);
  [[nodiscard]] bool passed() const {
    return mismatches == 0 && self_check_failures == 0;
  }
};

/// True when every self-check field the payload's kind carries reads
/// true ("independent", "maximal", "conflict_free", "completed",
/// "success"), and the kind's required ones are present.
[[nodiscard]] bool payload_self_check(pslocal::service::RequestKind kind,
                                      const std::string& payload);

/// Quantile of the values, interpolated between neighbours; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Log-linear histogram of nanosecond values: exact below 64, then 64
/// buckets per power of two (under 1.6% relative error), in fixed memory.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns);
  void merge(const LatencyHistogram& o);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile, placed inside its bucket by rank; 0 if empty.
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  static constexpr std::size_t kSub = 64;
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(64 * kSub, 0);
  std::uint64_t total_ = 0;
};

/// Which quartile of a window's time slices it reports.  On a shared
/// host, other tenants take CPU time from the benchmark in episodes of
/// tens of seconds ("steal"), and while they do, every slice is slower.
/// They never make a slice faster.  So the window reports its quieter
/// slices: the upper quartile of the slice rates and the lower quartile
/// of the slice latencies.  An episode that covers up to three quarters
/// of the window does not move the figures; a slower program moves every
/// slice, and so the figures too.
inline constexpr double kQuietQuantile = 0.25;

/// What a window reports, each figure taken over its time slices at
/// kQuietQuantile.  Throughput counts every ok response; latency and
/// goodput count the in-SLO ones.
struct WindowStats {
  double throughput_rps = 0.0;  // ok responses per second
  double goodput_rps = 0.0;     // ok within the latency limit per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t samples = 0;    // latencies the quantiles rest on
  std::size_t slices = 1;
  std::vector<double> slice_rps, slice_p99_ms;  // per slice, for the log
};

/// The client-side record of one timed window: per time slice, the ok
/// count, the count within the latency limit and a histogram of in-SLO
/// latencies; plus a histogram of the generator's lateness.  Its memory
/// is fixed, so the benchmark's bookkeeping does not grow with the
/// request count (and peak_rss_mb measures the program).  Latency runs
/// from send (closed loop) or from the scheduled due time (open loop) to
/// the response in hand; a response after the window lands in the last
/// slice.
class WindowRecorder {
 public:
  WindowRecorder(double seconds, std::size_t slices, double limit_ms);

  void record(std::uint64_t done_ns, std::uint64_t latency_ns, bool slo);
  void record_lag(std::uint64_t ns) { lag_.record(ns); }
  void merge(const WindowRecorder& o);

  [[nodiscard]] WindowStats stats() const;
  [[nodiscard]] double lag_p99_ms() const { return lag_.quantile_ns(0.99) / 1e6; }
  [[nodiscard]] bool empty() const { return lag_.count() == 0; }

 private:
  struct Slice {
    std::uint64_t ok = 0;
    std::uint64_t good = 0;
    LatencyHistogram slo;
  };
  double seconds_;
  std::uint64_t limit_ns_;
  std::vector<Slice> slices_;
  LatencyHistogram lag_;
};

/// Quantile of a log2-bucketed obs histogram, interpolated linearly
/// inside the bucket that holds the rank (the buckets alone would give
/// only powers of two).
[[nodiscard]] double histogram_quantile(
    const pslocal::obs::HistogramSnapshot& h, double q);

[[nodiscard]] pslocal::obs::HistogramSnapshot histogram_delta(
    const pslocal::obs::Snapshot& before, const pslocal::obs::Snapshot& after,
    const std::string& name);

[[nodiscard]] std::uint64_t counter_delta(const pslocal::obs::Snapshot& before,
                                          const pslocal::obs::Snapshot& after,
                                          const std::string& name);

/// The machine's CPU time so far, from the "cpu" line of /proc/stat, in
/// clock ticks: all of it, and the part a hypervisor gave to other
/// guests (steal).  Both read 0 where the file is missing.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Share of the machine's CPU time between two readings that was stolen.
[[nodiscard]] double steal_frac(const CpuTicks& before, const CpuTicks& after);

/// CPU time this process has used so far, user and system, in ns.
[[nodiscard]] std::uint64_t process_cpu_ns();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::uint64_t now_ns();

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
