#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;
  std::atomic<std::uint32_t> group{0};  // 0 = recording off
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_tid{1};
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadState {
  std::shared_ptr<std::vector<SpanRecord>> buffer;
  std::uint64_t current = 0;  // innermost open span on this thread
  std::uint32_t tid = 0;
};

ThreadState& thread_state() {
  thread_local ThreadState ts;
  if (ts.buffer == nullptr) {
    ts.buffer = std::make_shared<std::vector<SpanRecord>>();
    ts.buffer->reserve(1 << 14);
    Registry& r = registry();
    ts.tid = r.next_tid.fetch_add(1);
    const std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(ts.buffer);
  }
  return ts;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<std::size_t>(dot - name));
}

}  // namespace

void spans_start(SpanGroup group) { registry().group.store(group); }
void spans_stop() { registry().group.store(0); }

std::vector<SpanRecord> spans_collect() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

Span::Span(const char* name, std::uint64_t request) {
  const std::uint32_t group =
      registry().group.load(std::memory_order_relaxed);
  if (group == 0) return;
  on_ = true;
  ThreadState& ts = thread_state();
  rec_.name = name;
  rec_.id = registry().next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = ts.current;
  rec_.request = request;
  rec_.tid = ts.tid;
  rec_.group = group;
  saved_parent_ = ts.current;
  ts.current = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  ThreadState& ts = thread_state();
  ts.current = saved_parent_;
  // Only the owning thread appends; spans_collect reads after the
  // recording threads have joined or gone quiet.
  ts.buffer->push_back(rec_);
}

std::map<std::string, double> self_ns_by_layer(
    const std::vector<SpanRecord>& spans, SpanGroup group) {
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.group == group && s.parent != 0)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    if (s.group != group) continue;
    const auto it = child_ns.find(s.id);
    const double covered = it == child_ns.end() ? 0.0 : it->second;
    out[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   SpanGroup group, const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.group == group && std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  PSL_CHECK_MSG(out.good(), "perfbench: cannot write trace " << path);
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start_ns);
  out << "[\n";
  const char* groups[] = {"", "served", "replay", "probe"};
  for (std::uint32_t g = 1; g <= 3; ++g) {
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << g
        << ",\"args\":{\"name\":\"" << groups[g] << "\"}},\n";
  }
  // The served window of a fast workload records hundreds of thousands of
  // spans; the file keeps the first kMaxPerGroup of each group.
  constexpr std::size_t kMaxPerGroup = 50000;
  std::size_t written[4] = {0, 0, 0, 0};
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (s.group > 3 || written[s.group]++ >= kMaxPerGroup) continue;
    out << (first ? "" : ",\n") << "{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"pid\":" << s.group
        << ",\"tid\":" << s.tid << ",\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace perfbench
