#include "service/engine.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/batch.hpp"
#include "service/stages.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace pslocal::service {

namespace {
const obs::Counter g_served("service.responses.served");
const obs::Counter g_served_cached("service.responses.cached");
const obs::Counter g_errors("service.responses.errors");
const obs::Counter g_batches("service.batches");
const obs::Histogram g_latency_ns("service.latency_ns");
const obs::Histogram g_queue_ns("service.queue_ns");
const obs::Histogram g_compute_ns("service.compute_ns");
}  // namespace

ServiceEngine::ServiceEngine(EngineConfig config)
    : config_(config),
      sched_(config.scheduler != nullptr ? config.scheduler
                                         : &runtime::global_scheduler()),
      queue_(config.qos.enabled ? config.qos : qos::QosConfig{},
             config.queue_capacity),
      cache_(config.cache),
      graph_cache_(config.graph_cache_entries),
      sessions_(config.mutation_sessions) {
  if (config_.qos.enabled) {
    const qos::TenantRegistry& reg = queue_.registry();
    tenant_latency_.reserve(reg.size());
    for (std::size_t i = 0; i < reg.size(); ++i) {
      const std::string& name = reg.config(i).name;
      const std::string metric =
          "qos.latency_ns." + (name.empty() ? std::string("default") : name);
      tenant_latency_.emplace_back(metric.c_str());
    }
  }
}

ServiceEngine::~ServiceEngine() { stop(); }

void ServiceEngine::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

void ServiceEngine::stop(StopMode mode) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (mode == StopMode::kReject)
    reject_drained_.store(true, std::memory_order_release);
  queue_.shutdown();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Anything still queued was never dispatched (engine not started, or
  // raced the shutdown): answer it rather than abandoning the future.
  std::vector<Pending> stragglers;
  queue_.drain(stragglers);
  reject_all(stragglers, "shutdown");
}

ServiceEngine::Submitted ServiceEngine::submit(Request request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (request.instance_hash == 0 && request.instance != nullptr)
    request.instance_hash = hash_hypergraph(*request.instance);

  const RequestKind kind = request.kind;
  const std::uint64_t trace_id = request.trace_id;
  Pending pending;
  pending.request = std::move(request);
  pending.submit_ns = now_ns();
  const std::uint64_t submit_ns = pending.submit_ns;
  std::future<Response> future = pending.promise.get_future();

  Submitted out;
  const AdmissionVerdict verdict = queue_.admit(std::move(pending));
  out.admission = verdict.admission;
  out.retry_after_us = verdict.retry_after_us;
  // Admission wait is the time submit() spent getting a verdict from
  // the queue (lock contention under load); queue depth at entry is
  // how much work was already ahead of an accepted request.
  stages::record(stages::Stage::kAdmissionWait, kind, now_ns() - submit_ns,
                 trace_id);
  switch (out.admission) {
    case Admission::kAccepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      stages::record(stages::Stage::kQueueDepth, kind, queue_.depth(),
                     trace_id);
      out.response = std::move(future);
      break;
    case Admission::kQueueFull:
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kShutdown:
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return out;
}

void ServiceEngine::dispatcher_main() {
  obs::set_thread_label(config_.name + ".dispatcher");
  std::vector<Pending> drained;
  for (;;) {
    drained.clear();
    const std::size_t n = queue_.pop_batch(drained, config_.max_batch);
    if (n == 0) return;  // shutdown and empty
    if (reject_drained_.load(std::memory_order_acquire)) {
      reject_all(drained, "shutdown");
      continue;
    }
    shed_expired(drained);
    if (drained.empty()) continue;
    dispatch_cycles_.fetch_add(1, std::memory_order_relaxed);
    serve_cycle(drained);
  }
}

void ServiceEngine::shed_expired(std::vector<Pending>& drained) {
  // Deadline-aware shedding: a request that already blew its tenant's
  // deadline class gets a shed answer now instead of burning solver
  // time that cannot help it.  The net tier turns the response into a
  // kShedRetryAfter NACK carrying retry_after_us.
  const std::uint64_t now = now_ns();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < drained.size(); ++i) {
    Pending& pending = drained[i];
    if (pending.deadline_ns != 0 && now > pending.deadline_ns) {
      const qos::TenantConfig& cfg = queue_.registry().config(pending.tenant);
      Response resp;
      resp.id = pending.request.id;
      resp.status = Response::Status::kRejected;
      resp.reason = "shed";
      resp.retry_after_us = cfg.deadline_ms * 1000;
      resp.total_ns = now - pending.submit_ns;
      queue_.record_deadline_shed(pending.tenant);
      shed_.fetch_add(1, std::memory_order_relaxed);
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      pending.promise.set_value(std::move(resp));
      continue;
    }
    if (kept != i) drained[kept] = std::move(pending);
    ++kept;
  }
  drained.resize(kept);
}

void ServiceEngine::serve_cycle(std::vector<Pending>& drained) {
  PSL_OBS_SPAN("service.cycle");
  const std::uint64_t dispatch_ns = now_ns();
  const std::vector<Batch> batches = form_batches(drained);
  stages::record_batch_form(now_ns() - dispatch_ns);
  batches_.fetch_add(batches.size(), std::memory_order_relaxed);
  g_batches.add(batches.size());

  // Per-batch outcome, filled by cache lookups then the compute fan-out.
  struct Outcome {
    std::string payload;
    std::string error;
    std::uint64_t compute_ns = 0;
    bool from_cache = false;
  };
  std::vector<Outcome> outcomes(batches.size());

  std::vector<std::size_t> miss_batches;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Request& front = drained[batches[b].members.front()].request;
    const std::uint64_t probe_ns = now_ns();
    if (auto hit = cache_.lookup(batches[b].key)) {
      outcomes[b].payload = std::move(*hit);
      outcomes[b].from_cache = true;
    } else {
      miss_batches.push_back(b);
    }
    stages::record(stages::Stage::kCacheProbe, front.kind,
                   now_ns() - probe_ns, front.trace_id);
  }

  // One task per distinct missing key; heterogeneous costs, so each pool
  // lane claims whole tasks one at a time (runtime/batch.hpp).  Each
  // task writes only its own outcome slot.
  {
    PSL_OBS_SPAN("service.compute");
    std::vector<std::function<void()>> tasks;
    tasks.reserve(miss_batches.size());
    for (const std::size_t b : miss_batches) {
      tasks.push_back([this, b, &batches, &drained, &outcomes] {
        Outcome& out = outcomes[b];
        const Request& req = drained[batches[b].members.front()].request;
        // Adopt the request's wire trace context on the worker thread,
        // so the solve span nests under the client's root span even
        // though it runs far from the io loop that read the frame.
        obs::ScopedTraceContext trace_ctx(req.trace_id, req.parent_span_id);
        PSL_OBS_SPAN("service.solve");
        const std::uint64_t t0 = now_ns();
        try {
          out.payload = execute_request(req, *sched_, &graph_cache_,
                                        &sessions_);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        out.compute_ns = now_ns() - t0;
        stages::record(stages::Stage::kSolve, req.kind, out.compute_ns,
                       req.trace_id);
      });
    }
    runtime::run_task_batch(*sched_, tasks);
  }

  for (const std::size_t b : miss_batches) {
    if (outcomes[b].error.empty())
      cache_.insert(batches[b].key, outcomes[b].payload);
  }

  // Fulfill every promise in arrival order.  Within a miss batch, the
  // first member pays the compute; later members are batch-memoized hits.
  std::vector<bool> key_served_before(batches.size(), false);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    Outcome& out = outcomes[b];
    for (const std::size_t member : batch.members) {
      Pending& pending = drained[member];
      Response resp;
      resp.id = pending.request.id;
      resp.key = batch.key;
      resp.queue_ns = dispatch_ns - pending.submit_ns;
      if (!out.error.empty()) {
        resp.status = Response::Status::kError;
        resp.reason = out.error;
        errors_.fetch_add(1, std::memory_order_relaxed);
        g_errors.add();
      } else {
        resp.status = Response::Status::kOk;
        resp.result = out.payload;
        resp.cache_hit = out.from_cache || key_served_before[b];
        if (!resp.cache_hit) resp.compute_ns = out.compute_ns;
      }
      key_served_before[b] = true;
      resp.total_ns = now_ns() - pending.submit_ns;
      g_latency_ns.record(resp.total_ns);
      if (!tenant_latency_.empty())
        tenant_latency_[pending.tenant].record(resp.total_ns,
                                               pending.request.trace_id);
      g_queue_ns.record(resp.queue_ns);
      if (resp.compute_ns != 0) g_compute_ns.record(resp.compute_ns);
      served_.fetch_add(1, std::memory_order_relaxed);
      g_served.add();
      if (resp.cache_hit) {
        served_cached_.fetch_add(1, std::memory_order_relaxed);
        g_served_cached.add();
      }
      pending.promise.set_value(std::move(resp));
    }
  }
}

void ServiceEngine::reject_all(std::vector<Pending>& pendings,
                               const char* reason) {
  for (Pending& pending : pendings) {
    Response resp;
    resp.id = pending.request.id;
    resp.status = Response::Status::kRejected;
    resp.reason = reason;
    resp.total_ns = now_ns() - pending.submit_ns;
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(resp));
  }
}

ServiceEngine::Stats ServiceEngine::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.served_cached = served_cached_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.dispatch_cycles = dispatch_cycles_.load(std::memory_order_relaxed);
  s.queue_capacity = queue_.capacity();
  s.cache = cache_.stats();
  s.graph_cache = graph_cache_.stats();
  s.sessions = sessions_.stats();
  s.qos_enabled = config_.qos.enabled;
  if (s.qos_enabled) s.qos_tenants = queue_.tenant_stats();
  return s;
}

std::string stats_json(const ServiceEngine::Stats& stats) {
  std::ostringstream os;
  os << "{\"submitted\":" << stats.submitted
     << ",\"accepted\":" << stats.accepted
     << ",\"rejected_full\":" << stats.rejected_full
     << ",\"rejected_shutdown\":" << stats.rejected_shutdown
     << ",\"served\":" << stats.served
     << ",\"served_cached\":" << stats.served_cached
     << ",\"errors\":" << stats.errors << ",\"batches\":" << stats.batches
     << ",\"dispatch_cycles\":" << stats.dispatch_cycles
     << ",\"cache\":{\"hits\":" << stats.cache.hits
     << ",\"misses\":" << stats.cache.misses
     << ",\"evictions\":" << stats.cache.evictions
     << ",\"entries\":" << stats.cache.entries
     << ",\"bytes\":" << stats.cache.bytes
     << "},\"graph_cache\":{\"hits\":" << stats.graph_cache.hits
     << ",\"builds\":" << stats.graph_cache.builds
     << ",\"evictions\":" << stats.graph_cache.evictions
     << ",\"entries\":" << stats.graph_cache.entries
     << "},\"sessions\":{\"hits\":" << stats.sessions.hits
     << ",\"misses\":" << stats.sessions.misses
     << ",\"evictions\":" << stats.sessions.evictions
     << ",\"entries\":" << stats.sessions.entries
     << "},\"shed\":" << stats.shed
     << ",\"shed_deadline\":" << stats.shed_deadline
     << ",\"queue_capacity\":" << stats.queue_capacity
     << ",\"qos\":{\"enabled\":" << (stats.qos_enabled ? 1 : 0)
     << ",\"tenants\":[";
  for (std::size_t i = 0; i < stats.qos_tenants.size(); ++i) {
    const auto& t = stats.qos_tenants[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << json::escape(t.name)
       << "\",\"weight\":" << t.weight
       << ",\"depth\":" << t.depth << ",\"admitted\":" << t.admitted
       << ",\"shed_rate\":" << t.shed_rate
       << ",\"shed_deadline\":" << t.shed_deadline
       << ",\"deficit\":" << t.deficit << "}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace pslocal::service
