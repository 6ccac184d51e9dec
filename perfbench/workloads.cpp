#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "load_gen.hpp"
#include "net/client.hpp"
#include "runtime/global.hpp"
#include "service/workload.hpp"
#include "shard/cluster.hpp"
#include "spans.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace net = pslocal::net;
namespace service = pslocal::service;
namespace shard = pslocal::shard;
namespace benchload = pslocal::benchload;
using service::Request;
using Outcome = net::Client::Outcome;

constexpr std::size_t kClients = 4;
/// Requests a pipelined worker keeps in flight, over all its connections.
/// Each of the server's threads then has work queued, so a request does
/// not wait for each of them to wake in turn, and a thread the host
/// stalls for a moment holds up only its own stage (perfbench/README.md
/// compares depths under host steal).
constexpr std::size_t kHotDepth = 64;
constexpr std::size_t kColdDepth = 4;

/// Resends of one request after NACK(queue_full) before it counts failed.
constexpr std::uint32_t kMaxResends = 1000;

std::unique_ptr<net::Client> connect_client(std::uint16_t port) {
  net::Client::Config cc;
  cc.port = port;
  auto client = std::make_unique<net::Client>(cc);
  client->connect();
  return client;
}

shard::Topology single_server(std::uint16_t port) {
  shard::Topology t;
  t.shards.push_back({"127.0.0.1", port});
  return t;
}

/// Every request of `reqs` whose cache key is seen for the first time.
std::vector<Request> first_per_key(const std::vector<Request>& reqs) {
  std::vector<Request> out;
  std::unordered_map<std::uint64_t, bool> seen;
  for (const Request& r : reqs)
    if (seen.emplace(service::cache_key(r), true).second) out.push_back(r);
  return out;
}

/// One request per distinct instance, first `count` of them.
std::vector<Request> first_per_instance(const std::vector<Request>& reqs,
                                        std::size_t count) {
  std::vector<Request> out;
  std::unordered_map<std::uint64_t, bool> seen;
  for (const Request& r : reqs) {
    if (out.size() >= count) break;
    if (seen.emplace(r.instance_hash, true).second) out.push_back(r);
  }
  return out;
}

/// `count` mutate requests over instances shaped like `params`'s.
std::vector<Request> mutate_requests(service::TraceParams params,
                                     std::size_t count) {
  params.requests = count;
  params.instance_pool = std::min<std::size_t>(params.instance_pool, 8);
  params.weight_build = params.weight_greedy = params.weight_luby = 0;
  params.weight_cf = params.weight_reduction = params.weight_exact = 0;
  params.weight_mutate = 1;
  return service::generate_trace(params).requests;
}

/// Payloads of a seeded, fixed-size sample of request indices, checked
/// against direct execute_request calls after the windows.  Callers
/// offer the claimed index, which is unique; indices past the end of
/// the list (a cyclic loop's later passes) are ignored, so each slot
/// has one writer.
class SampleStore {
 public:
  SampleStore() = default;
  SampleStore(std::size_t total, std::size_t target, std::uint64_t seed)
      : slot_(total, -1) {
    for (std::size_t i = 0; i < total && chosen_.size() < target; ++i) {
      if (pslocal::mix64(seed ^ pslocal::mix64(i + 1)) % kStride == 0) {
        slot_[i] = static_cast<std::int64_t>(chosen_.size());
        chosen_.push_back(i);
      }
    }
    payloads_.resize(chosen_.size());
    filled_.assign(chosen_.size(), 0);
  }

  void offer(std::size_t index, const std::string& payload) {
    if (index >= slot_.size() || slot_[index] < 0) return;
    const auto s = static_cast<std::size_t>(slot_[index]);
    payloads_[s] = payload;
    filled_[s] = 1;
  }

  void verify(const std::vector<Request>& reqs, Gate& gate) const {
    auto& sched = pslocal::runtime::global_scheduler();
    for (std::size_t s = 0; s < chosen_.size(); ++s) {
      if (filled_[s] == 0) continue;
      const Request& req = reqs[chosen_[s]];
      gate.compared++;
      if (service::execute_request(req, sched) != payloads_[s])
        gate.mismatch("sampled request " + std::to_string(chosen_[s]) +
                      " differs from execute_request");
    }
  }

 private:
  static constexpr std::uint64_t kStride = 4;
  std::vector<std::int64_t> slot_;
  std::vector<std::size_t> chosen_;
  std::vector<std::string> payloads_;
  std::vector<char> filled_;
};

/// Self-check fields of every ok payload.
void self_check(const Request& req, const std::string& payload, Gate& gate) {
  gate.self_checked++;
  if (!payload_self_check(req.kind, payload)) {
    gate.self_check_failures++;
    if (gate.first_problem.empty())
      gate.first_problem = std::string("self-check failed for ") +
                           service::kind_name(req.kind) + " request " +
                           std::to_string(req.id);
  }
}

/// How the closed loop reaches the program.  send() starts one request
/// and returns a ticket; wait() ends it, with Result::rtt_ns the time
/// from that send to the response in hand.  A pipelined caller may have
/// several tickets of one worker open at once.
struct Caller {
  std::function<std::uint64_t(std::size_t worker, const Request&)> send;
  std::function<net::Client::Result(std::size_t worker, std::uint64_t ticket)>
      wait;
};

/// Pipelined calls from one worker thread over all of `clients`, sent
/// round-robin.  The ticket names the client and its request id.
/// Result::rtt_ns is the client's own send-to-frame time, so a response
/// that arrived while the worker waited on an older one is not charged
/// for that wait.
Caller pipelined(const std::vector<std::unique_ptr<net::Client>>& clients) {
  return {[&clients, turn = std::size_t{0}](std::size_t,
                                            const Request& req) mutable {
            const std::size_t c = turn++ % clients.size();
            return clients[c]->send(req) * clients.size() + c;
          },
          [&clients](std::size_t, std::uint64_t ticket) {
            return clients[ticket % clients.size()]->wait(ticket /
                                                          clients.size());
          }};
}

/// Warm the caches: each request once, pipelined over the clients like
/// the closed loops.
void warm(const std::vector<Request>& reqs,
          const std::vector<std::unique_ptr<net::Client>>& clients) {
  const Caller caller = pipelined(clients);
  std::deque<std::pair<std::size_t, std::uint64_t>> open;
  std::size_t next = 0;
  std::uint64_t failures = 0;
  while (next < reqs.size() || !open.empty()) {
    for (; next < reqs.size() && open.size() < kHotDepth; ++next)
      open.emplace_back(next, caller.send(0, reqs[next]));
    const auto [i, ticket] = open.front();
    open.pop_front();
    const net::Client::Result r = caller.wait(0, ticket);
    if (r.outcome == Outcome::kNack &&
        r.nack_code == net::wire::NackCode::kQueueFull) {
      open.emplace_back(i, caller.send(0, reqs[i]));
    } else if (r.outcome != Outcome::kOk) {
      failures++;
    }
  }
  PSL_CHECK_MSG(failures == 0,
                "perfbench: " << failures << " warm-up requests failed");
}

using CheckFn = std::function<void(std::size_t index, const Request& req,
                                   const service::Response& resp, Gate& gate)>;

/// Closed loop: `workers` threads claim request indices in order from
/// `cursor`.  Each keeps `depth` requests in flight: it waits for its
/// oldest response, then sends the next request, until `seconds` pass.
/// Indices run on past the end of `reqs`, which is served cyclically, so
/// a faster program never runs out of requests.
Window closed_loop(const std::vector<Request>& reqs,
                   std::atomic<std::size_t>& cursor, std::size_t workers,
                   std::size_t depth, const WindowRecorder& blank,
                   double seconds, std::size_t record, const char* call_span,
                   const Caller& caller, const CheckFn& check) {
  Window w;
  w.rec = blank;
  std::mutex mu;
  std::atomic<std::size_t> recorded{0};
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);

  const auto worker = [&](std::size_t c) {
    struct Open {
      std::size_t index;
      std::uint64_t ticket;
      std::uint64_t first_sent;  // latency runs from the first send
      std::uint64_t sent;
      std::uint32_t resends;
    };
    std::deque<Open> open;
    WindowRecorder rec = blank;
    Accounting acct;
    Gate gate;
    std::uint64_t prev_done = 0;
    const auto send = [&](std::size_t i, std::uint64_t first_sent,
                          std::uint32_t resends) {
      const Span span(call_span, i);
      const std::uint64_t sent = now_ns();
      const std::uint64_t ticket = caller.send(c, reqs[i % reqs.size()]);
      open.push_back({i, ticket, first_sent == 0 ? sent : first_sent, sent,
                      resends});
    };
    for (;;) {
      const std::uint64_t t = now_ns();
      while (t < deadline && open.size() < depth) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (prev_done != 0) rec.record_lag(t - prev_done);
        acct.attempted++;
        send(i, 0, 0);
      }
      if (open.empty()) break;
      const Open o = open.front();
      open.pop_front();
      const Request& req = reqs[o.index % reqs.size()];
      net::Client::Result r;
      {
        const Span root("bench.request", o.index);
        r = caller.wait(c, o.ticket);
      }
      if (r.outcome == Outcome::kNack &&
          r.nack_code == net::wire::NackCode::kQueueFull &&
          o.resends < kMaxResends) {
        // Nothing was computed: send the same request again.
        acct.retries++;
        std::this_thread::yield();
        send(o.index, o.first_sent, o.resends + 1);
        continue;
      }
      const std::uint64_t done = now_ns();
      switch (r.outcome) {
        case Outcome::kOk:
          acct.ok++;
          rec.record(done - start, o.sent - o.first_sent + r.rtt_ns, true);
          check(o.index, req, r.response, gate);
          if (recorded.load(std::memory_order_relaxed) < record) {
            const std::lock_guard<std::mutex> lock(mu);
            if (w.served.size() < record) {
              w.served.push_back({req, r.response.cache_hit, r.response.result});
              recorded = w.served.size();
            }
          }
          break;
        case Outcome::kNack:
          if (r.nack_code == net::wire::NackCode::kShedRetryAfter)
            acct.shed_unexpected++;
          else
            acct.nacked++;
          break;
        case Outcome::kTimeout: acct.timeouts++; break;
        default: acct.errors++; break;
      }
      prev_done = now_ns();
    }
    const std::lock_guard<std::mutex> lock(mu);
    w.rec.merge(rec);
    w.accounting.merge(acct);
    w.gate.merge(gate);
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < workers; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  w.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return w;
}

// ---------------------------------------------------------------------
// hot-mix

class HotMix final : public Workload {
 public:
  explicit HotMix(std::uint64_t seed) : seed_(seed) {}
  ~HotMix() override {
    clients_.clear();
    if (server_) server_->stop();
    if (engine_) engine_->stop();
  }

  void setup() override {
    service::TraceParams tp;  // default five-kind mix, 24 instances
    tp.seed = seed_;
    trace_ = service::generate_trace(tp);
    engine_ = std::make_unique<service::ServiceEngine>(service::EngineConfig{});
    engine_->start();
    net::Server::Config sc;
    sc.io_threads = 1;
    server_ = std::make_unique<net::Server>(*engine_, sc);
    server_->start();
    for (std::size_t c = 0; c < kClients; ++c)
      clients_.push_back(connect_client(server_->port()));
    warm(first_per_key(trace_.requests), clients_);
  }

  void prepare() override {
    auto& sched = pslocal::runtime::global_scheduler();
    keys_.clear();
    for (const Request& r : trace_.requests) keys_.push_back(service::cache_key(r));
    for (const Request& r : first_per_key(trace_.requests))
      reference_[service::cache_key(r)] = service::execute_request(r, sched);
  }

  Window run(double seconds, std::size_t record) override {
    return closed_loop(
        trace_.requests, cursor_, 1, kHotDepth, blank(seconds), seconds,
        record, "net.send", pipelined(clients_),
        [this](std::size_t i, const Request& req,
               const service::Response& resp, Gate& gate) {
          const std::uint64_t key = keys_[i % keys_.size()];
          gate.compared++;
          const auto it = reference_.find(key);
          if (resp.key != key || it == reference_.end() ||
              it->second != resp.result)
            gate.mismatch("request " + std::to_string(req.id) +
                          " differs from execute_request");
          self_check(req, resp.result, gate);
        });
  }

  // Every response was compared in place.
  void verify(Gate&) override {}

  std::vector<Request> probe_instances() const override {
    return first_per_instance(trace_.requests, 12);
  }
  std::vector<Request> probe_mutations() const override {
    service::TraceParams tp;
    tp.seed = seed_;
    return mutate_requests(tp, 6);
  }
  std::vector<service::ServiceEngine*> engines() override {
    return {engine_.get()};
  }
  std::vector<net::Server*> servers() override { return {server_.get()}; }
  shard::Topology topology() override {
    return single_server(server_->port());
  }
  std::size_t distinct_keys() const override { return trace_.unique_keys; }
  double latency_limit_ms() const override { return 2.0; }
  std::size_t slices() const override { return 20; }
  std::size_t clients() const override { return kClients; }

 private:
  std::uint64_t seed_;
  service::Trace trace_;
  std::unique_ptr<service::ServiceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::string> reference_;
};

// ---------------------------------------------------------------------
// cold-gk

class ColdGk final : public Workload {
 public:
  explicit ColdGk(std::uint64_t seed) : seed_(seed) {
    params_.seed = seed;
    params_.requests = kRequests;
    params_.instance_pool = kRequests;
    params_.n = 64;
    params_.m = 64;
    params_.k = 4;
    params_.weight_cf = 0;  // the MIS family plus run_reduction
  }
  ~ColdGk() override {
    clients_.clear();
    if (server_) server_->stop();
    if (engine_) engine_->stop();
  }

  void setup() override {
    trace_ = service::generate_trace(params_);
    engine_ = std::make_unique<service::ServiceEngine>(service::EngineConfig{});
    engine_->start();
    net::Server::Config sc;
    sc.io_threads = 1;
    server_ = std::make_unique<net::Server>(*engine_, sc);
    server_->start();
    for (std::size_t c = 0; c < kClients; ++c)
      clients_.push_back(connect_client(server_->port()));
  }

  void prepare() override {
    samples_ = SampleStore(trace_.requests.size(), kSampled, seed_);
  }

  Window run(double seconds, std::size_t record) override {
    return closed_loop(
        trace_.requests, cursor_, 1, kColdDepth, blank(seconds), seconds,
        record, "net.send", pipelined(clients_),
        [this](std::size_t i, const Request& req,
               const service::Response& resp, Gate& gate) {
          samples_.offer(i, resp.result);
          self_check(req, resp.result, gate);
        });
  }

  void verify(Gate& gate) override { samples_.verify(trace_.requests, gate); }

  std::vector<Request> probe_instances() const override {
    return first_per_instance(trace_.requests, 4);
  }
  std::vector<Request> probe_mutations() const override {
    return mutate_requests(params_, 4);
  }
  std::vector<service::ServiceEngine*> engines() override {
    return {engine_.get()};
  }
  std::vector<net::Server*> servers() override { return {server_.get()}; }
  shard::Topology topology() override {
    return single_server(server_->port());
  }
  std::size_t distinct_keys() const override { return trace_.unique_keys; }
  double latency_limit_ms() const override { return 100.0; }
  std::size_t slices() const override { return 10; }
  std::size_t clients() const override { return kClients; }

 private:
  static constexpr std::size_t kRequests = 12000;
  static constexpr std::size_t kSampled = 48;
  std::uint64_t seed_;
  service::TraceParams params_;
  service::Trace trace_;
  std::unique_ptr<service::ServiceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::atomic<std::size_t> cursor_{0};
  SampleStore samples_;
};

// ---------------------------------------------------------------------
// overload-qos

class OverloadQos final : public Workload {
 public:
  explicit OverloadQos(std::uint64_t seed) : seed_(seed) {
    gold_params_.seed = seed;
    gold_params_.requests = 64;
    gold_params_.instance_pool = 8;
    gold_params_.n = 32;
    gold_params_.m = 28;
    gold_params_.k = 2;
    abuse_params_.seed = pslocal::mix64(seed);
    abuse_params_.requests = kAbuseRequests;
    abuse_params_.instance_pool = kAbuseRequests;
    abuse_params_.n = 32;
    abuse_params_.m = 28;
    abuse_params_.k = 2;
    // One kind, so the solver time abuse takes from gold varies little
    // from seed to seed (the other kinds' costs spread far wider).
    abuse_params_.weight_build = abuse_params_.weight_luby = 0;
    abuse_params_.weight_cf = abuse_params_.weight_reduction = 0;
  }
  ~OverloadQos() override {
    gold_client_.reset();
    abuse_client_.reset();
    if (server_) server_->stop();
    if (engine_) engine_->stop();
  }

  void setup() override {
    gold_ = service::generate_trace(gold_params_);
    abuse_ = service::generate_trace(abuse_params_);
    for (Request& r : gold_.requests) r.tenant = "gold";
    for (Request& r : abuse_.requests) r.tenant = "abuse";

    service::EngineConfig cfg;
    cfg.queue_capacity = 512;
    cfg.max_batch = 16;
    // Large enough that the abusive tenant's cold keys never evict gold's
    // warm ones inside a run.
    cfg.cache.max_entries = 1u << 14;
    cfg.qos.enabled = true;
    cfg.qos.seed = seed_;
    pslocal::qos::TenantConfig gold;
    gold.name = "gold";
    gold.weight = 4;
    pslocal::qos::TenantConfig abuse;
    abuse.name = "abuse";
    abuse.weight = 1;
    abuse.rate_rps = kAbuseLimitRps;
    abuse.burst = 2;
    cfg.qos.tenants = {gold, abuse};
    engine_ = std::make_unique<service::ServiceEngine>(cfg);
    engine_->start();
    net::Server::Config sc;
    sc.io_threads = 1;
    server_ = std::make_unique<net::Server>(*engine_, sc);
    server_->start();
    gold_client_ = connect_client(server_->port());
    abuse_client_ = connect_client(server_->port());
    std::vector<std::unique_ptr<net::Client>> warmers;
    warmers.push_back(connect_client(server_->port()));
    warm(first_per_key(gold_.requests), warmers);
  }

  void prepare() override {
    auto& sched = pslocal::runtime::global_scheduler();
    for (const Request& r : first_per_key(gold_.requests))
      reference_[service::cache_key(r)] = service::execute_request(r, sched);
    samples_ = SampleStore(abuse_.requests.size(), kSampled, seed_);
  }

  Window run(double seconds, std::size_t record) override;

  void verify(Gate& gate) override { samples_.verify(abuse_.requests, gate); }

  std::vector<Request> probe_instances() const override {
    auto out = first_per_instance(gold_.requests, 4);
    const auto cold = first_per_instance(abuse_.requests, 6);
    out.insert(out.end(), cold.begin(), cold.end());
    return out;
  }
  std::vector<Request> probe_mutations() const override {
    return mutate_requests(abuse_params_, 4);
  }
  std::vector<service::ServiceEngine*> engines() override {
    return {engine_.get()};
  }
  std::vector<net::Server*> servers() override { return {server_.get()}; }
  shard::Topology topology() override {
    return single_server(server_->port());
  }
  std::size_t distinct_keys() const override {
    return gold_.unique_keys + abuse_.unique_keys;
  }
  double latency_limit_ms() const override { return kLimitMs; }
  std::size_t slices() const override { return 5; }
  std::size_t clients() const override { return 2; }

 private:
  static constexpr double kGoldRps = 400.0;
  static constexpr double kAbuseRps = 200.0;  // offered, bounded Pareto
  static constexpr double kAbuseLimitRps = 40.0;  // token-bucket refill
  static constexpr double kLimitMs = 25.0;
  static constexpr std::size_t kAbuseRequests = 16000;
  static constexpr std::size_t kSampled = 32;

  struct Tenant {
    bool in_slo = false;
    net::Client* client = nullptr;
    std::vector<std::uint64_t> at_ns;   // due offsets from window start
    std::vector<std::size_t> index;     // request per arrival
    const std::vector<Request>* reqs = nullptr;
  };

  void serve_tenant(const Tenant& t, std::uint64_t start,
                    const WindowRecorder& blank, std::size_t record, Window& w,
                    std::mutex& mu);

  std::uint64_t seed_;
  service::TraceParams gold_params_, abuse_params_;
  service::Trace gold_, abuse_;
  std::unique_ptr<service::ServiceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> gold_client_, abuse_client_;
  std::unordered_map<std::uint64_t, std::string> reference_;
  SampleStore samples_;
  std::size_t abuse_cursor_ = 0;
  std::uint64_t windows_ = 0;
};

Window OverloadQos::run(double seconds, std::size_t record) {
  const auto horizon = static_cast<std::uint64_t>(seconds * 1e9);
  const auto cut = [horizon](std::vector<std::uint64_t> at) {
    at.erase(std::find_if(at.begin(), at.end(),
                          [horizon](std::uint64_t t) { return t >= horizon; }),
             at.end());
    return at;
  };
  // Schedules are seeded per window, so a window's offered load is a
  // pure function of (seed, window number, seconds).
  pslocal::Rng rng = pslocal::Rng(seed_).fork(1000 + windows_++);
  pslocal::Rng gold_rng = rng.fork(1), abuse_rng = rng.fork(2),
               pick_rng = rng.fork(3);
  const auto expect = [seconds](double rps) {
    return static_cast<std::size_t>(rps * seconds * 1.5) + 16;
  };

  Tenant gold;
  gold.in_slo = true;
  gold.client = gold_client_.get();
  gold.reqs = &gold_.requests;
  gold.at_ns = cut(benchload::poisson_arrivals_ns(gold_rng, kGoldRps,
                                                  expect(kGoldRps)));
  const benchload::ZipfPicker zipf(gold_.requests.size(), 1.1);
  for (std::size_t j = 0; j < gold.at_ns.size(); ++j)
    gold.index.push_back(zipf.pick(pick_rng));

  Tenant abuse;
  abuse.client = abuse_client_.get();
  abuse.reqs = &abuse_.requests;
  abuse.at_ns = cut(benchload::pareto_arrivals_ns(abuse_rng, kAbuseRps, 1.5,
                                                  64.0, expect(kAbuseRps)));
  for (std::size_t j = 0; j < abuse.at_ns.size(); ++j)
    abuse.index.push_back(abuse_cursor_++);
  PSL_CHECK_MSG(abuse_cursor_ <= abuse_.requests.size(),
                "perfbench: the abusive tenant ran out of cold keys");

  Window w;
  w.rec = blank(seconds);
  std::mutex mu;
  // Give both senders time to start before the first arrival is due.
  const std::uint64_t start = now_ns() + 2'000'000;
  std::thread abuse_thread(
      [&] { serve_tenant(abuse, start, w.rec, record / 2, w, mu); });
  serve_tenant(gold, start, blank(seconds), record - record / 2, w, mu);
  abuse_thread.join();
  w.wall_s = seconds;
  w.gold_sent = gold.at_ns.size();
  w.abuse_sent = abuse.at_ns.size();
  return w;
}

void OverloadQos::serve_tenant(const Tenant& t, std::uint64_t start,
                               const WindowRecorder& blank, std::size_t record,
                               Window& w, std::mutex& mu) {
  struct Inflight {
    std::uint64_t id;
    std::uint64_t due;
    std::size_t index;
  };
  std::vector<Inflight> inflight;
  WindowRecorder rec = blank;
  Accounting acct;
  Gate gate;
  std::vector<ServedRecord> served;
  std::uint64_t shed = 0;

  const auto settle = [&](const Inflight& f, const net::Client::Result& r) {
    const std::uint64_t done = now_ns();
    const Request& req = (*t.reqs)[f.index];
    switch (r.outcome) {
      case Outcome::kOk: {
        acct.ok++;
        rec.record(done > start ? done - start : 0, done - f.due, t.in_slo);
        if (t.in_slo) {
          gate.compared++;
          const auto it = reference_.find(service::cache_key(req));
          if (it == reference_.end() || it->second != r.response.result)
            gate.mismatch("gold request differs from execute_request");
        } else {
          samples_.offer(f.index, r.response.result);
        }
        self_check(req, r.response.result, gate);
        if (served.size() < record)
          served.push_back({req, r.response.cache_hit, r.response.result});
        break;
      }
      case Outcome::kNack:
        if (r.nack_code == net::wire::NackCode::kShedRetryAfter) {
          shed++;
          if (t.in_slo)
            acct.shed_unexpected++;
          else
            acct.shed++;
        } else {
          acct.nacked++;
        }
        break;
      case Outcome::kTimeout: acct.lost++; break;
      default: acct.errors++; break;
    }
  };
  const auto pump = [&] {
    for (auto it = inflight.begin(); it != inflight.end();) {
      const net::Client::Result r = t.client->try_wait(it->id);
      if (r.outcome == Outcome::kTimeout) {
        ++it;
        continue;
      }
      settle(*it, r);
      it = inflight.erase(it);
    }
  };

  for (std::size_t j = 0; j < t.at_ns.size(); ++j) {
    const std::uint64_t due = start + t.at_ns[j];
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= due) break;
      pump();
      if (due - now > 200'000)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const std::uint64_t sent = now_ns();
    rec.record_lag(sent - due);
    acct.attempted++;
    const Span span(t.in_slo ? "bench.send_gold" : "bench.send_abuse",
                    t.index[j]);
    inflight.push_back({t.client->send((*t.reqs)[t.index[j]]), due,
                        t.index[j]});
    pump();
  }
  for (const Inflight& f : inflight) settle(f, t.client->wait(f.id, 10000));

  const std::lock_guard<std::mutex> lock(mu);
  w.rec.merge(rec);
  w.accounting.merge(acct);
  w.gate.merge(gate);
  w.served.insert(w.served.end(), served.begin(), served.end());
  (t.in_slo ? w.gold_shed : w.abuse_shed) += shed;
}

// ---------------------------------------------------------------------
// shard-mutate

class ShardMutate final : public Workload {
 public:
  explicit ShardMutate(std::uint64_t seed) : seed_(seed) {
    params_.seed = seed;
    params_.requests = kRequests;
    params_.instance_pool = kPool;
    params_.n = 32;
    params_.m = 28;
    params_.k = 2;
    params_.weight_mutate = 25;
  }
  ~ShardMutate() override {
    for (auto& c : clients_) c->drain(200);
    clients_.clear();
    if (cluster_) cluster_->stop();
  }

  void setup() override {
    trace_ = service::generate_trace(params_);
    shard::LocalClusterConfig cc;
    cc.shards = 2;
    cc.replication = 2;
    cc.io_threads = 1;
    cluster_ = std::make_unique<shard::LocalCluster>(cc);
    cluster_->start();
    for (std::size_t c = 0; c < kClients; ++c) {
      shard::ShardClientConfig sc;
      sc.topology = cluster_->topology();
      sc.retry.seed = seed_ + c;
      clients_.push_back(std::make_unique<shard::ShardClient>(sc));
      clients_.back()->connect();
    }
  }

  void prepare() override {
    samples_ = SampleStore(trace_.requests.size(), kSampled, seed_);
  }

  Window run(double seconds, std::size_t record) override {
    // ShardClient::call blocks, so each worker has one request open and
    // send() makes the whole call; its rtt_ns is the call's duration.
    std::vector<net::Client::Result> results(kClients);
    const Caller caller{
        [this, &results](std::size_t c, const Request& req) {
          const std::uint64_t t0 = now_ns();
          results[c] = clients_[c]->call(req);
          results[c].rtt_ns = now_ns() - t0;
          return std::uint64_t{0};
        },
        [&results](std::size_t c, std::uint64_t) { return results[c]; }};
    Window w = closed_loop(
        trace_.requests, cursor_, kClients, 1, blank(seconds), seconds,
        record, "shard.call", caller,
        [this](std::size_t i, const Request& req,
               const service::Response& resp, Gate& gate) {
          samples_.offer(i, resp.result);
          self_check(req, resp.result, gate);
        });
    for (auto& c : clients_) c->drain(1000);
    return w;
  }

  void verify(Gate& gate) override { samples_.verify(trace_.requests, gate); }

  std::vector<Request> probe_instances() const override {
    return first_per_instance(trace_.requests, 8);
  }
  std::vector<Request> probe_mutations() const override {
    std::vector<Request> out;
    for (const Request& r : trace_.requests) {
      if (r.kind == service::RequestKind::kMutateHypergraph) out.push_back(r);
      if (out.size() == 8) break;
    }
    return out;
  }
  std::vector<service::ServiceEngine*> engines() override {
    return {&cluster_->engine(0), &cluster_->engine(1)};
  }
  std::vector<net::Server*> servers() override {
    return {&cluster_->server(0), &cluster_->server(1)};
  }
  shard::ShardClient::Stats shard_stats() override {
    shard::ShardClient::Stats sum;
    for (const auto& c : clients_) {
      const auto s = c->stats();
      sum.calls += s.calls;
      sum.sends += s.sends;
      sum.fanout_sends += s.fanout_sends;
      sum.duplicates_suppressed += s.duplicates_suppressed;
      sum.reroutes_queue_full += s.reroutes_queue_full;
      sum.reroutes_shed += s.reroutes_shed;
      sum.failovers += s.failovers;
      sum.reconnects += s.reconnects;
      sum.pending_duplicates += s.pending_duplicates;
    }
    return sum;
  }
  std::vector<std::uint64_t> routed_per_shard() override {
    std::vector<std::uint64_t> sum(cluster_->shards(), 0);
    for (const auto& c : clients_) {
      const auto r = c->routed_per_shard();
      for (std::size_t i = 0; i < r.size() && i < sum.size(); ++i)
        sum[i] += r[i];
    }
    return sum;
  }
  shard::Topology topology() override { return cluster_->topology(); }
  std::size_t distinct_keys() const override { return trace_.unique_keys; }
  double latency_limit_ms() const override { return 25.0; }
  std::size_t slices() const override { return 10; }
  std::size_t clients() const override { return kClients; }

 private:
  static constexpr std::size_t kRequests = 100000;
  static constexpr std::size_t kPool = 2048;
  static constexpr std::size_t kSampled = 128;
  std::uint64_t seed_;
  service::TraceParams params_;
  service::Trace trace_;
  std::unique_ptr<shard::LocalCluster> cluster_;
  std::vector<std::unique_ptr<shard::ShardClient>> clients_;
  std::atomic<std::size_t> cursor_{0};
  SampleStore samples_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hot-mix", "cold-gk",
                                                 "overload-qos", "shard-mutate"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "hot-mix") return std::make_unique<HotMix>(seed);
  if (name == "cold-gk") return std::make_unique<ColdGk>(seed);
  if (name == "overload-qos") return std::make_unique<OverloadQos>(seed);
  if (name == "shard-mutate") return std::make_unique<ShardMutate>(seed);
  return nullptr;
}

}  // namespace perfbench
