#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

using pslocal::service::RequestKind;

void Accounting::merge(const Accounting& o) {
  attempted += o.attempted;
  ok += o.ok;
  shed += o.shed;
  shed_unexpected += o.shed_unexpected;
  nacked += o.nacked;
  retries += o.retries;
  errors += o.errors;
  lost += o.lost;
  timeouts += o.timeouts;
}

std::string Accounting::describe() const {
  std::ostringstream os;
  os << "attempted " << attempted << " ok " << ok << " shed " << shed
     << " shed_unexpected " << shed_unexpected << " nacked " << nacked
     << " retries " << retries << " errors " << errors << " lost " << lost
     << " timeouts " << timeouts;
  return os.str();
}

void Gate::merge(const Gate& o) {
  compared += o.compared;
  mismatches += o.mismatches;
  self_checked += o.self_checked;
  self_check_failures += o.self_check_failures;
  if (first_problem.empty()) first_problem = o.first_problem;
}

void Gate::mismatch(const std::string& what) {
  mismatches++;
  if (first_problem.empty()) first_problem = what;
}

namespace {

bool has(const std::string& payload, const char* needle) {
  return payload.find(needle) != std::string::npos;
}

}  // namespace

bool payload_self_check(RequestKind kind, const std::string& payload) {
  for (const char* bad :
       {"\"independent\":false", "\"maximal\":false",
        "\"conflict_free\":false", "\"completed\":false",
        "\"success\":false"}) {
    if (has(payload, bad)) return false;
  }
  switch (kind) {
    case RequestKind::kGreedyMaxis:
      return has(payload, "\"independent\":true");
    case RequestKind::kLubyMis: return has(payload, "\"completed\":true");
    case RequestKind::kCfColor: return has(payload, "\"conflict_free\":true");
    case RequestKind::kRunReduction: return has(payload, "\"success\":true");
    case RequestKind::kMutateHypergraph:
      return has(payload, "\"independent\":true") &&
             has(payload, "\"maximal\":true");
    case RequestKind::kBuildConflictGraph:
      return has(payload, "\"graph_hash\":");
    case RequestKind::kExactCertificate:
      return has(payload, "\"independent\":true");
  }
  return false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

namespace {

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < 64) return static_cast<std::size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // >= 6
  const auto mantissa = static_cast<std::size_t>((ns >> (e - 6)) & 63);
  return static_cast<std::size_t>(e - 5) * 64 + mantissa;
}

double bucket_width(std::size_t b) {
  return b < 64 ? 1.0 : std::ldexp(1.0, static_cast<int>(b / 64) - 1);
}

double bucket_lower(std::size_t b) {
  return b < 64 ? static_cast<double>(b)
                : static_cast<double>(64 + b % 64) * bucket_width(b);
}

}  // namespace

void LatencyHistogram::record(std::uint64_t ns) {
  counts_[bucket_of(ns)]++;
  total_++;
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += o.counts_[b];
  total_ += o.total_;
}

double LatencyHistogram::quantile_ns(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::llround(q * static_cast<double>(total_ - 1)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (seen + counts_[b] > rank) {
      // Spread the bucket's values evenly across its width.
      const double within = (static_cast<double>(rank - seen) + 0.5) /
                            static_cast<double>(counts_[b]);
      return bucket_lower(b) + within * bucket_width(b);
    }
    seen += counts_[b];
  }
  return bucket_lower(counts_.size() - 1);
}

WindowRecorder::WindowRecorder(double seconds, std::size_t slices,
                               double limit_ms)
    : seconds_(seconds),
      limit_ns_(static_cast<std::uint64_t>(limit_ms * 1e6)),
      slices_(std::max<std::size_t>(1, slices)) {}

void WindowRecorder::record(std::uint64_t done_ns, std::uint64_t latency_ns,
                            bool slo) {
  auto i = static_cast<std::size_t>(static_cast<double>(done_ns) /
                                    (seconds_ * 1e9) *
                                    static_cast<double>(slices_.size()));
  Slice& s = slices_[std::min(i, slices_.size() - 1)];
  s.ok++;
  if (!slo) return;
  s.slo.record(latency_ns);
  if (latency_ns <= limit_ns_) s.good++;
}

void WindowRecorder::merge(const WindowRecorder& o) {
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    slices_[i].ok += o.slices_[i].ok;
    slices_[i].good += o.slices_[i].good;
    slices_[i].slo.merge(o.slices_[i].slo);
  }
  lag_.merge(o.lag_);
}

WindowStats WindowRecorder::stats() const {
  WindowStats out;
  out.slices = slices_.size();
  const double slice_s = seconds_ / static_cast<double>(slices_.size());
  std::vector<double> gps, p50;
  for (const Slice& s : slices_) {
    out.slice_rps.push_back(static_cast<double>(s.ok) / slice_s);
    gps.push_back(static_cast<double>(s.good) / slice_s);
    out.samples += s.slo.count();
    if (s.slo.count() == 0) continue;
    p50.push_back(s.slo.quantile_ns(0.50) / 1e6);
    out.slice_p99_ms.push_back(s.slo.quantile_ns(0.99) / 1e6);
  }
  out.throughput_rps = quantile(out.slice_rps, 1.0 - kQuietQuantile);
  out.goodput_rps = quantile(gps, 1.0 - kQuietQuantile);
  out.p50_ms = quantile(p50, kQuietQuantile);
  out.p99_ms = quantile(out.slice_p99_ms, kQuietQuantile);
  return out;
}

double histogram_quantile(const pslocal::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < pslocal::obs::HistogramSnapshot::kBuckets; ++b) {
    const auto in_bucket = static_cast<double>(h.buckets[b]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      const double lo =
          b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
      const double frac = (rank - seen) / in_bucket;
      return std::min(lo + (hi - lo) * frac, static_cast<double>(h.max));
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max);
}

pslocal::obs::HistogramSnapshot histogram_delta(
    const pslocal::obs::Snapshot& before, const pslocal::obs::Snapshot& after,
    const std::string& name) {
  const auto a = before.histogram(name);
  auto d = after.histogram(name);
  d.count -= a.count;
  d.sum -= a.sum;
  for (std::size_t b = 0; b < pslocal::obs::HistogramSnapshot::kBuckets; ++b)
    d.buckets[b] -= a.buckets[b];
  return d;
}

std::uint64_t counter_delta(const pslocal::obs::Snapshot& before,
                            const pslocal::obs::Snapshot& after,
                            const std::string& name) {
  return after.counter(name) - before.counter(name);
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(f >> label) || label != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && f >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(t.tv_usec) * 1000u;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    os << (i ? "," : "") << '"' << entries_[i].name << "\":{\"value\":" << v
       << ",\"unit\":\"" << entries_[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

std::string Metrics::table() const {
  std::ostringstream os;
  os << std::setprecision(6);
  for (const Entry& e : entries_)
    os << "  " << std::left << std::setw(40) << e.name << ' ' << e.value
       << ' ' << e.unit << '\n';
  return os.str();
}

}  // namespace perfbench
