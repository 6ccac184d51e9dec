// pslocal_perfbench — the repository's serving benchmark.
//
//   pslocal_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <path>] [--result-out <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that gives the per-layer metrics.  Either
// way the run checks every answer it can (correctness gate), and the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A payload mismatch, a failed self-check, a lagging open-loop sender
// or a work count that does not repeat exits non-zero.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "runtime/global.hpp"
#include "service/request.hpp"
#include "shard/shard_client.hpp"
#include "spans.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace service = pslocal::service;
namespace net = pslocal::net;
namespace shard = pslocal::shard;

/// Runtime pool size: fixed, so the work counts are pinned per seed.
constexpr std::size_t kPoolThreads = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Served requests kept for the layer replay of the traced run.
constexpr std::size_t kReplayRecords = 256;
/// Round trips per layer in the traced run's call probe.
constexpr std::size_t kCallProbes = 200;
/// Length of a companion window in the traced run.
constexpr double kCompanionSeconds = 4.0;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pslocal_perfbench: " << why
            << "\nusage: pslocal_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--result-out <path>]\nworkloads:";
  for (const auto& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--result-out") {
        o.result_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds out of range");
  return o;
}

/// Wall time of a fixed single-threaded integer loop, median of three.
/// Machines differ, and a shared host's speed drifts from minute to
/// minute; this reference lets results from different hosts or periods
/// be told apart from a change in the program.
double host_ref_ms() {
  std::vector<double> times;
  std::uint64_t x = 1;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x = pslocal::mix64(x + i);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  PSL_CHECK(x != 0);  // keeps the loop
  return median(times);
}

std::string provenance_json(const Options& o, Workload& wl, double ref_ms) {
  std::uint64_t io_loops = 0;
  for (net::Server* s : wl.servers()) io_loops += s->stats().io_loops;
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << PERFBENCH_COMPILER << "\",\"workload\":\"" << o.workload
     << "\",\"seed\":" << o.seed << ",\"seconds\":" << o.seconds
     << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"runtime_pool\":" << pslocal::runtime::global_thread_count()
     << ",\"servers\":" << wl.servers().size()
     << ",\"io_loops\":" << io_loops << ",\"clients\":" << wl.clients()
     << ",\"host_ref_ms\":" << ref_ms << "}";
  return os.str();
}

/// Engine and server counters summed over a workload's backends.
struct Backends {
  std::uint64_t served = 0, cached = 0, batches = 0, cycles = 0;
  std::uint64_t graph_hits = 0, graph_builds = 0;
  std::uint64_t session_hits = 0, session_misses = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t bytes = 0, dispatched = 0, nack_queue_full = 0;

  static Backends read(Workload& wl) {
    Backends b;
    for (service::ServiceEngine* e : wl.engines()) {
      const auto s = e->stats();
      b.served += s.served;
      b.cached += s.served_cached;
      b.batches += s.batches;
      b.cycles += s.dispatch_cycles;
      b.graph_hits += s.graph_cache.hits;
      b.graph_builds += s.graph_cache.builds;
      b.session_hits += s.sessions.hits;
      b.session_misses += s.sessions.misses;
      b.shed_deadline += s.shed_deadline;
    }
    for (net::Server* srv : wl.servers()) {
      const auto s = srv->stats();
      b.bytes += s.bytes_rx + s.bytes_tx;
      b.dispatched += s.requests_dispatched;
      b.nack_queue_full += s.nacks_queue_full;
    }
    return b;
  }

  Backends operator-(const Backends& o) const {
    Backends d;
    d.served = served - o.served;
    d.cached = cached - o.cached;
    d.batches = batches - o.batches;
    d.cycles = cycles - o.cycles;
    d.graph_hits = graph_hits - o.graph_hits;
    d.graph_builds = graph_builds - o.graph_builds;
    d.session_hits = session_hits - o.session_hits;
    d.session_misses = session_misses - o.session_misses;
    d.shed_deadline = shed_deadline - o.shed_deadline;
    d.bytes = bytes - o.bytes;
    d.dispatched = dispatched - o.dispatched;
    d.nack_queue_full = nack_queue_full - o.nack_queue_full;
    return d;
  }
};

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void report_window(const char* phase, const Window& w, const WindowStats& st) {
  std::cout << phase << ": wall " << w.wall_s << " s, "
            << w.accounting.describe() << "; latency samples " << st.samples
            << " over " << st.slices << " slices\n  slice rps:";
  for (const double v : st.slice_rps) std::cout << ' ' << v;
  std::cout << "\n  slice p99 ms:";
  for (const double v : st.slice_p99_ms) std::cout << ' ' << v;
  std::cout << '\n';
}

struct Outcome {
  std::string provenance;
  double host_ref_ms = 0.0;
  bool correct = true;
  bool valid = true;
  std::string why;
  Accounting accounting;
  Gate gate;
  Metrics metrics;
};

void finish_gate(Outcome& out) {
  if (!out.gate.passed()) {
    out.correct = false;
    out.why = "correctness gate: " + out.gate.first_problem;
  }
  std::cout << "correctness gate: " << out.gate.compared
            << " payloads compared byte for byte, " << out.gate.mismatches
            << " mismatches; " << out.gate.self_checked
            << " self-checks, " << out.gate.self_check_failures
            << " failed\n";
}

void check_lag(Outcome& out, const Window& w, double limit_ms,
               double lag_p99_ms) {
  if (w.rec.empty()) return;
  if (lag_p99_ms > limit_ms) {
    out.valid = false;
    out.why = "sender lag p99 " + std::to_string(lag_p99_ms) +
              " ms exceeds the latency limit";
  }
}

Outcome untraced_run(const Options& o) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Workload> wl;
  for (int r = 0; r < kSetups; ++r) {
    wl.reset();
    const std::uint64_t t0 = now_ns();
    wl = make_workload(o.workload, o.seed);
    wl->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.host_ref_ms = host_ref_ms();
  out.provenance = provenance_json(o, *wl, out.host_ref_ms);
  std::cout << "provenance: " << out.provenance << '\n';
  wl->prepare();

  const CpuTicks cpu0 = cpu_ticks();
  const std::uint64_t used0 = process_cpu_ns();
  const Window w = wl->run(o.seconds, 0);
  const std::uint64_t used = process_cpu_ns() - used0;
  const double steal = steal_frac(cpu0, cpu_ticks());
  const WindowStats st = w.rec.stats();
  report_window("window", w, st);
  // The client figures are printed here and reported by the traced run.
  std::cout << "host steal during the window: " << steal * 100.0
            << "% of the machine's CPU time\nclient: throughput "
            << st.throughput_rps << " rps, latency p50 " << st.p50_ms
            << " ms, p99 " << st.p99_ms << " ms\n";
  out.accounting = w.accounting;
  out.gate = w.gate;
  wl->verify(out.gate);
  finish_gate(out);
  const double lag_p99_ms = w.rec.lag_p99_ms();
  check_lag(out, w, wl->latency_limit_ms(), lag_p99_ms);
  if (w.accounting.ok == 0) {
    out.valid = false;
    out.why = "no request was answered ok in the window";
  }
  std::cout << "fail_frac " << frac(static_cast<double>(out.accounting.failed()),
                                    static_cast<double>(out.accounting.attempted))
            << ", sender lag p99 " << lag_p99_ms << " ms, latency limit "
            << wl->latency_limit_ms() << " ms\n";

  Metrics& m = out.metrics;
  // Only overload-qos has a latency limit that binds; on the closed loops
  // goodput would repeat throughput.
  if (o.workload == "overload-qos")
    m.set("goodput_rps", st.goodput_rps, "1/s");
  // CPU time of the whole process, server and client, per ok response.
  m.set("cpu_us_per_request",
        frac(static_cast<double>(used) / 1e3,
             static_cast<double>(w.accounting.ok)),
        "us");
  m.set("setup_s", median(setups), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

/// A window with the backend, obs and ShardClient deltas taken across it.
struct Observed {
  Window w;
  Backends delta;
  pslocal::obs::Snapshot before, after;
  std::uint64_t shard_calls = 0, shard_sends = 0, shard_duplicates = 0;
  std::vector<std::uint64_t> routed;
};

Observed observe(Workload& wl, double seconds, std::size_t record) {
  Observed ob;
  const Backends b0 = Backends::read(wl);
  const auto sh0 = wl.shard_stats();
  const auto routed0 = wl.routed_per_shard();
  ob.before = pslocal::obs::snapshot();
  ob.w = wl.run(seconds, record);
  ob.after = pslocal::obs::snapshot();
  ob.delta = Backends::read(wl) - b0;
  const auto sh1 = wl.shard_stats();
  ob.shard_calls = sh1.calls - sh0.calls;
  ob.shard_sends = sh1.sends - sh0.sends;
  ob.shard_duplicates = sh1.duplicates_suppressed - sh0.duplicates_suppressed;
  ob.routed = wl.routed_per_shard();
  for (std::size_t i = 0; i < ob.routed.size() && i < routed0.size(); ++i)
    ob.routed[i] -= routed0[i];
  return ob;
}

/// A short window of another workload, for the qos or shard layer the
/// traced workload does not run itself.  Its answers go through the same
/// correctness gate.
Observed companion(const std::string& name, std::uint64_t seed,
                   Outcome& out) {
  auto wl = make_workload(name, seed);
  wl->setup();
  wl->prepare();
  Observed ob = observe(*wl, kCompanionSeconds, 0);
  out.accounting.merge(ob.w.accounting);
  out.gate.merge(ob.w.gate);
  wl->verify(out.gate);
  std::cout << "companion " << name << ": " << ob.w.accounting.describe()
            << '\n';
  return ob;
}

Outcome traced_run(const Options& o) {
  Outcome out;
  auto wl = make_workload(o.workload, o.seed);
  wl->setup();
  out.host_ref_ms = host_ref_ms();
  out.provenance = provenance_json(o, *wl, out.host_ref_ms);
  std::cout << "provenance: " << out.provenance << '\n';
  wl->prepare();

  // Untraced then traced half windows: their throughput ratio is the
  // tracing overhead.
  const Window plain = wl->run(o.seconds / 2, 0);
  const WindowStats plain_st = plain.rec.stats();
  report_window("untraced window", plain, plain_st);

  spans_start(kServed);
  const CpuTicks cpu0 = cpu_ticks();
  const Observed served = observe(*wl, o.seconds / 2, kReplayRecords);
  const double steal = steal_frac(cpu0, cpu_ticks());
  spans_stop();
  const Window& w = served.w;
  const Backends& bd = served.delta;
  const auto& s0 = served.before;
  const auto& s1 = served.after;
  const WindowStats st = w.rec.stats();
  report_window("traced window", w, st);

  out.accounting = plain.accounting;
  out.accounting.merge(w.accounting);
  out.gate = plain.gate;
  out.gate.merge(w.gate);
  wl->verify(out.gate);
  const double lag_p99_ms = w.rec.lag_p99_ms();
  check_lag(out, w, wl->latency_limit_ms(), lag_p99_ms);

  // Round trips of served requests through net::Client and ShardClient
  // (a one-shard topology unless the workload is sharded).
  std::vector<service::Request> probe_reqs;
  for (const ServedRecord& r : w.served) {
    probe_reqs.push_back(r.request);
    probe_reqs.back().tenant.clear();
  }
  std::vector<double> net_call_ns, shard_call_ns;
  if (!probe_reqs.empty()) {
    const shard::Topology topo = wl->topology();
    net::Client::Config cc;
    cc.port = topo.shards.front().port;
    net::Client client(cc);
    client.connect();
    shard::ShardClientConfig sc;
    sc.topology = topo;
    shard::ShardClient sclient(sc);
    sclient.connect();
    for (std::size_t i = 0; i < kCallProbes; ++i) {
      const auto& req = probe_reqs[i % probe_reqs.size()];
      std::uint64_t t = now_ns();
      const auto r1 = client.call(req);
      net_call_ns.push_back(static_cast<double>(now_ns() - t));
      t = now_ns();
      const auto r2 = sclient.call(req);
      shard_call_ns.push_back(static_cast<double>(now_ns() - t));
      if (r1.outcome != net::Client::Outcome::kOk ||
          r2.outcome != net::Client::Outcome::kOk ||
          r1.response.result != r2.response.result) {
        out.gate.mismatch("call probe: net and shard round trips disagree");
        out.correct = false;
        out.why = "call probe answers differ";
      }
    }
    sclient.drain(1000);
  }

  const Observed qos = o.workload == "overload-qos"
                           ? served
                           : companion("overload-qos", o.seed, out);
  const Observed sharded = o.workload == "shard-mutate"
                               ? served
                               : companion("shard-mutate", o.seed, out);
  finish_gate(out);

  // Layer probe twice: the work counts must repeat exactly.
  const auto instances = wl->probe_instances();
  const auto mutations = wl->probe_mutations();
  const LayerCounts first = layer_probe(instances, mutations);
  spans_start(kProbe);
  const LayerCounts counts = layer_probe(instances, mutations);
  spans_stop();
  std::cout << "work counts: " << counts.describe() << '\n';
  if (!(first == counts)) {
    out.valid = false;
    out.why = "work counts differ between probe passes: " +
              first.describe() + " vs " + counts.describe();
  }

  spans_start(kReplay);
  served_replay(w.served);
  spans_stop();

  const auto spans = spans_collect();
  if (!o.trace_out.empty()) write_chrome_trace(o.trace_out, spans);

  const auto per_call = [&spans](const char* name, double scale) {
    return mean(span_durations(spans, kProbe, name)) / scale;
  };
  const auto served_call = [&spans](const char* name) {
    return span_durations(spans, kServed, name);
  };

  Metrics& m = out.metrics;
  const double ok = static_cast<double>(w.accounting.ok);
  // net
  auto net_calls = served_call("net.call");
  if (net_calls.empty()) net_calls = net_call_ns;
  m.set("net.call_us_p50", quantile(net_calls, 0.5) / 1e3, "us");
  m.set("net.wire_encode_us", per_call("net.wire_encode", 1e3), "us");
  m.set("net.wire_decode_us", per_call("net.wire_decode", 1e3), "us");
  m.set("net.bytes_per_request",
        frac(static_cast<double>(bd.bytes), static_cast<double>(bd.dispatched)),
        "bytes");
  m.set("net.nack_queue_full", static_cast<double>(bd.nack_queue_full),
        "count");
  // service
  const auto queue = histogram_delta(s0, s1, "service.queue_ns");
  m.set("service.queue_us_p50", histogram_quantile(queue, 0.5) / 1e3, "us");
  m.set("service.queue_us_p99", histogram_quantile(queue, 0.99) / 1e3, "us");
  m.set("service.cache_hit_frac",
        frac(static_cast<double>(bd.cached), static_cast<double>(bd.served)),
        "frac");
  m.set("service.graph_cache_hit_frac",
        frac(static_cast<double>(bd.graph_hits),
             static_cast<double>(bd.graph_hits + bd.graph_builds)),
        "frac");
  m.set("service.batch_per_cycle",
        frac(static_cast<double>(bd.batches), static_cast<double>(bd.cycles)),
        "count");
  m.set("service.session_hit_frac",
        frac(static_cast<double>(bd.session_hits),
             static_cast<double>(bd.session_hits + bd.session_misses)),
        "frac");
  m.set("service.execute_ms.build_conflict_graph",
        per_call("service.execute.build_conflict_graph", 1e6), "ms");
  m.set("service.execute_ms.greedy_maxis",
        per_call("service.execute.greedy_maxis", 1e6), "ms");
  m.set("service.execute_ms.luby_mis",
        per_call("service.execute.luby_mis", 1e6), "ms");
  m.set("service.execute_ms.cf_color",
        per_call("service.execute.cf_color", 1e6), "ms");
  m.set("service.execute_ms.run_reduction",
        per_call("service.execute.run_reduction", 1e6), "ms");
  m.set("service.execute_ms.mutate_hypergraph",
        per_call("service.execute.mutate_hypergraph", 1e6), "ms");
  // core / mis / local / coloring
  m.set("core.gk_build_ms", per_call("core.gk_build", 1e6), "ms");
  m.set("core.gk_census_ms", per_call("core.gk_census", 1e6), "ms");
  m.set("core.gk_triples", static_cast<double>(counts.gk_triples), "count");
  m.set("core.gk_edges", static_cast<double>(counts.gk_edges), "count");
  m.set("core.reduction_ms", per_call("core.reduction", 1e6), "ms");
  m.set("core.reduction_phases", static_cast<double>(counts.reduction_phases),
        "count");
  m.set("core.mutation_apply_us", per_call("core.mutation_apply", 1e3), "us");
  m.set("mis.greedy_ms", per_call("mis.greedy", 1e6), "ms");
  m.set("mis.greedy_picks", static_cast<double>(counts.greedy_picks), "count");
  m.set("mis.repair_us", per_call("mis.repair", 1e3), "us");
  m.set("mis.repair_ball",
        frac(static_cast<double>(counts.repair_ball),
             static_cast<double>(counts.mutation_steps)),
        "count");
  m.set("local.luby_ms", per_call("local.luby", 1e6), "ms");
  m.set("local.luby_rounds", static_cast<double>(counts.luby_rounds), "count");
  m.set("coloring.cf_greedy_ms", per_call("coloring.cf_greedy", 1e6), "ms");
  // runtime (served window)
  const double regions =
      static_cast<double>(counter_delta(s0, s1, "runtime.regions"));
  m.set("runtime.regions_per_request", frac(regions, ok), "count");
  m.set("runtime.chunks_per_region",
        frac(static_cast<double>(counter_delta(s0, s1, "runtime.chunks")),
             regions),
        "count");
  m.set("runtime.busy_frac",
        frac(static_cast<double>(counter_delta(s0, s1, "runtime.busy_ns")),
             w.wall_s * 1e9 *
                 static_cast<double>(pslocal::runtime::global_thread_count())),
        "frac");
  m.set("runtime.replay_regions", static_cast<double>(counts.runtime_regions),
        "count");
  // qos
  // qos and shard: from this workload when it runs the layer, else from
  // its companion window.
  m.set("qos.shed_frac.abuse",
        frac(static_cast<double>(qos.w.abuse_shed),
             static_cast<double>(qos.w.abuse_sent)),
        "frac");
  m.set("qos.shed_frac.gold",
        frac(static_cast<double>(qos.w.gold_shed),
             static_cast<double>(qos.w.gold_sent)),
        "frac");
  m.set("qos.deadline_sheds", static_cast<double>(qos.delta.shed_deadline),
        "count");
  m.set("qos.gold_latency_us_p99",
        histogram_quantile(
            histogram_delta(qos.before, qos.after, "qos.latency_ns.gold"),
            0.99) /
            1e3,
        "us");
  // shard
  auto shard_calls = served_call("shard.call");
  if (shard_calls.empty()) shard_calls = shard_call_ns;
  m.set("shard.call_us_p50", quantile(shard_calls, 0.5) / 1e3, "us");
  m.set("shard.fanout_per_call",
        frac(static_cast<double>(sharded.shard_sends),
             static_cast<double>(sharded.shard_calls)),
        "count");
  m.set("shard.duplicates_suppressed",
        static_cast<double>(sharded.shard_duplicates), "count");
  const auto& routed = sharded.routed;
  double routed_max = 0, routed_sum = 0;
  for (const auto r : routed) {
    routed_max = std::max(routed_max, static_cast<double>(r));
    routed_sum += static_cast<double>(r);
  }
  m.set("shard.routed_imbalance",
        routed.empty() ? 0.0
                       : frac(routed_max * static_cast<double>(routed.size()),
                              routed_sum),
        "ratio");
  // benchmark validity and layer separation
  m.set("bench.sender_lag_p99_ms", lag_p99_ms, "ms");
  m.set("bench.trace_overhead_frac",
        frac(plain_st.throughput_rps - st.throughput_rps,
             plain_st.throughput_rps),
        "frac");
  m.set("bench.distinct_keys", static_cast<double>(wl->distinct_keys()),
        "count");
  m.set("bench.host_ref_ms", out.host_ref_ms, "ms");
  m.set("bench.host_steal_frac", steal, "frac");
  // The client figures of the untraced half window (see "Steadiness" in
  // perfbench/README.md for why they are not end-to-end metrics).
  m.set("throughput_rps", plain_st.throughput_rps, "1/s");
  m.set("latency_p50_ms", plain_st.p50_ms, "ms");
  m.set("latency_p99_ms", plain_st.p99_ms, "ms");
  m.set("fail_frac",
        frac(static_cast<double>(out.accounting.failed()),
             static_cast<double>(out.accounting.attempted)),
        "frac");
  const auto self = self_ns_by_layer(spans, kReplay);
  const double replayed = static_cast<double>(std::max<std::size_t>(1, w.served.size()));
  double total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  const auto layer_ns = [&self](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const char* layer :
       {"net", "service", "core", "mis", "local", "coloring", "bench"}) {
    m.set(std::string("bench.self_us.") + layer,
          layer_ns(layer) / replayed / 1e3, "us");
  }
  m.set("bench.compute_self_frac",
        frac(layer_ns("core") + layer_ns("mis") + layer_ns("local"), total),
        "frac");
  std::cout << "replay: " << w.served.size() << " served requests, "
            << total / replayed / 1e3 << " us per request\n";
  return out;
}

bool refuse_build() {
  if (PERFBENCH_SANITIZED) {
    std::cerr << "pslocal_perfbench: refusing to report from a sanitizer "
                 "build\n";
    return true;
  }
  if (!pslocal::obs::kEnabled) {
    std::cerr << "pslocal_perfbench: refusing to report from a "
                 "PSLOCAL_OBS=OFF build (its counters read zero)\n";
    return true;
  }
  return false;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (make_workload(o.workload, o.seed) == nullptr)
    usage("unknown workload " + o.workload);
  if (refuse_build()) return 3;
  pslocal::runtime::set_global_thread_count(kPoolThreads);

  const Outcome out = o.trace ? traced_run(o) : untraced_run(o);
  std::cout << "metrics (" << (o.trace ? "per layer" : "end to end")
            << "):\n"
            << out.metrics.table();
  if (!out.why.empty()) std::cout << "run rejected: " << out.why << '\n';

  std::ostringstream line;
  line << "{\"correct\":" << (out.correct && out.valid ? "true" : "false")
       << ",\"attempted\":" << out.accounting.attempted
       << ",\"failed\":" << out.accounting.failed()
       << ",\"metrics\":" << out.metrics.json() << '}';
  if (!o.result_out.empty()) {
    std::ofstream f(o.result_out);
    f << "{\"provenance\":" << out.provenance << ",\"result\":" << line.str()
      << ",\"accounting\":\""
      << out.accounting.describe() << "\",\"gate_compared\":"
      << out.gate.compared << ",\"gate_mismatches\":" << out.gate.mismatches
      << "}\n";
  }
  std::cout << line.str() << std::endl;
  return out.correct && out.valid ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pslocal_perfbench: " << e.what() << '\n';
    return 1;
  }
}
