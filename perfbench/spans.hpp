// In-memory span recorder for the traced run.
//
// The benchmark records spans only around its own calls into the
// library's public functions (no instrumentation inside src/).  A span
// holds its name, start, end, the span that was open on the same thread
// when it began (its parent) and the request id it belongs to.  Spans
// are buffered per thread while recording is on and written out as
// Chrome-trace JSON at the end; a layer's self time is its spans'
// duration minus the part covered by their child spans, where the layer
// is the name up to the first '.' ("core.gk_build" -> "core").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t group = 0;    // which phase recorded it (Chrome "pid")
};

/// Span groups: the traced serving window, the served-order replay and
/// the per-call layer probe.
enum SpanGroup : std::uint32_t { kServed = 1, kReplay = 2, kProbe = 3 };

/// Turn recording on for spans begun from now on, tagged with `group`.
void spans_start(SpanGroup group);
void spans_stop();

/// Every span recorded so far (all threads), in no particular order.
[[nodiscard]] std::vector<SpanRecord> spans_collect();

/// RAII span; a no-op while recording is off.
class Span {
 public:
  Span(const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
  bool on_ = false;
};

/// Self time per layer, summed over the spans of `group` (ns).
[[nodiscard]] std::map<std::string, double> self_ns_by_layer(
    const std::vector<SpanRecord>& spans, SpanGroup group);

/// Durations (ns) of every span named `name` in `group`.
[[nodiscard]] std::vector<double> span_durations(
    const std::vector<SpanRecord>& spans, SpanGroup group, const char* name);

/// Write the spans as a Chrome-trace JSON array (Perfetto-loadable).
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

}  // namespace perfbench
