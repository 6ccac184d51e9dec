#include "probe.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "coloring/cf_baselines.hpp"
#include "core/conflict_graph.hpp"
#include "core/dynamic_conflict_graph.hpp"
#include "core/reduction.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "mis/repair.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runtime/global.hpp"
#include "service/cache.hpp"
#include "spans.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace service = pslocal::service;
namespace wire = pslocal::net::wire;
using pslocal::ConflictGraph;
using service::Request;
using service::RequestKind;

std::string LayerCounts::describe() const {
  std::ostringstream os;
  os << "gk_triples " << gk_triples << " gk_edges " << gk_edges
     << " greedy_picks " << greedy_picks << " luby_rounds " << luby_rounds
     << " reduction_phases " << reduction_phases << " runtime_regions "
     << runtime_regions << " mutation_steps " << mutation_steps
     << " repair_ball " << repair_ball;
  return os.str();
}

namespace {

/// Span name of execute_request per kind (span names must outlive the
/// recorder, so they are literals).
const char* execute_span(RequestKind kind) {
  switch (kind) {
    case RequestKind::kBuildConflictGraph:
      return "service.execute.build_conflict_graph";
    case RequestKind::kGreedyMaxis: return "service.execute.greedy_maxis";
    case RequestKind::kLubyMis: return "service.execute.luby_mis";
    case RequestKind::kCfColor: return "service.execute.cf_color";
    case RequestKind::kRunReduction: return "service.execute.run_reduction";
    case RequestKind::kExactCertificate:
      return "service.execute.exact_certificate";
    case RequestKind::kMutateHypergraph:
      return "service.execute.mutate_hypergraph";
  }
  return "service.execute.unknown";
}

/// Request and response through the wire codecs: encode both frames,
/// then decode both back (spans net.wire_encode / net.wire_decode).
void wire_round_trip(const Request& req, const std::string& payload) {
  service::Response resp;
  resp.id = req.id;
  resp.key = service::cache_key(req);
  resp.result = payload;
  std::string req_bytes, resp_bytes;
  {
    const Span span("net.wire_encode", req.id);
    wire::Frame f;
    f.kind = wire::FrameKind::kRequest;
    f.request_id = req.id;
    f.payload = wire::encode_request(req);
    req_bytes = wire::encode_frame(f);
    f.kind = wire::FrameKind::kResponse;
    f.payload = wire::encode_response(resp);
    resp_bytes = wire::encode_frame(f);
  }
  const Span span("net.wire_decode", req.id);
  wire::FrameDecoder decoder;
  decoder.feed(req_bytes);
  decoder.feed(resp_bytes);
  wire::Frame f;
  std::string error;
  Request decoded_req;
  service::Response decoded_resp;
  PSL_CHECK(decoder.next(f) == wire::FrameDecoder::Result::kFrame);
  PSL_CHECK_MSG(wire::decode_request(f.payload, decoded_req, &error), error);
  PSL_CHECK(decoder.next(f) == wire::FrameDecoder::Result::kFrame);
  PSL_CHECK_MSG(wire::decode_response(f.payload, decoded_resp, &error), error);
  PSL_CHECK(decoded_resp.result == payload);
}

std::shared_ptr<const ConflictGraph> build_gk(
    const Request& req, service::ConflictGraphCache* graphs,
    LayerCounts* counts) {
  auto& sched = pslocal::runtime::global_scheduler();
  const Span span("core.gk_build", req.id);
  const auto build = [&req, &sched] {
    return std::make_shared<const ConflictGraph>(*req.instance, req.k, sched);
  };
  auto cg = graphs == nullptr
                ? build()
                : graphs->get_or_build(
                      pslocal::hash_combine(req.instance_hash, req.k), build);
  if (counts != nullptr) {
    counts->gk_triples += cg->triple_count();
    counts->gk_edges += cg->graph().edge_count();
  }
  return cg;
}

void run_census(const ConflictGraph& cg, std::uint64_t id) {
  const Span span("core.gk_census", id);
  const auto classes = cg.count_edge_classes();
  PSL_CHECK(classes.total == cg.graph().edge_count());
}

void run_greedy(const ConflictGraph& cg, std::uint64_t id,
                LayerCounts* counts) {
  const Span span("mis.greedy", id);
  const auto is = pslocal::greedy_min_degree_maxis(
      cg.graph(), pslocal::runtime::global_scheduler());
  if (counts != nullptr) counts->greedy_picks += is.size();
}

void run_luby(const ConflictGraph& cg, std::uint64_t id, std::uint64_t seed,
              LayerCounts* counts) {
  const Span span("local.luby", id);
  const auto res = pslocal::luby_mis(cg.graph(), seed, 0,
                                     pslocal::runtime::global_scheduler());
  if (counts != nullptr) counts->luby_rounds += res.rounds;
}

void run_cf(const Request& req) {
  const Span span("coloring.cf_greedy", req.id);
  const auto res = pslocal::greedy_cf_coloring(
      *req.instance, pslocal::runtime::global_scheduler());
  PSL_CHECK(res.colors_used > 0);
}

/// The reduction's oracle, chosen as service::execute_request chooses
/// it; a solver name it does not know is an error there and here.
std::unique_ptr<pslocal::MaxISOracle> reduction_oracle(const Request& req) {
  if (req.solver == "greedy-mindeg")
    return std::make_unique<pslocal::GreedyMinDegreeOracle>();
  if (req.solver == "greedy-random")
    return std::make_unique<pslocal::RandomGreedyOracle>(req.seed);
  if (req.solver == "luby")
    return std::make_unique<pslocal::LubyOracle>(req.seed);
  PSL_CHECK_MSG(false, "perfbench: unknown reduction solver '" << req.solver
                                                               << "'");
  return nullptr;
}

void run_reduction(const Request& req, LayerCounts* counts) {
  const Span span("core.reduction", req.id);
  const auto oracle = reduction_oracle(req);
  pslocal::ReductionOptions opts;
  opts.k = req.k;
  const auto res = pslocal::cf_multicoloring_via_maxis(*req.instance, *oracle,
                                                       opts);
  PSL_CHECK(res.success);
  if (counts != nullptr) counts->reduction_phases += res.phases;
}

void run_mutation(const Request& req, LayerCounts* counts) {
  auto& sched = pslocal::runtime::global_scheduler();
  pslocal::DynamicConflictGraph g;
  {
    const Span span("core.mutation_seed", req.id);
    g = pslocal::DynamicConflictGraph(*req.instance, req.k, sched);
  }
  std::vector<pslocal::VertexId> mis;
  {
    const Span span("mis.mutation_initial", req.id);
    // The two legs the generated traces use; the service's exact leg
    // is not benchmarked.
    PSL_CHECK_MSG(req.solver == "greedy-mindeg" || req.solver == "luby",
                  "perfbench: mutate solver '" << req.solver
                                               << "' is not benchmarked");
    const auto snap = g.snapshot(sched);
    mis = req.solver == "luby"
              ? pslocal::luby_mis(snap, req.seed, 0, sched).independent_set
              : pslocal::greedy_min_degree_maxis(snap, sched);
    std::sort(mis.begin(), mis.end());
  }
  for (const pslocal::Mutation& mut : req.script) {
    pslocal::DynamicConflictGraph::Delta delta;
    {
      const Span span("core.mutation_apply", req.id);
      delta = g.apply(mut);
    }
    const Span span("mis.repair", req.id);
    const auto survivors = pslocal::remap_surviving(mis, delta.remap);
    auto rep = pslocal::repair_mis(g, survivors, delta.dirty);
    mis = std::move(rep.mis);
    if (counts != nullptr) {
      counts->mutation_steps++;
      counts->repair_ball += rep.ball.size();
    }
  }
}

void layers_for_kind(const Request& req, service::ConflictGraphCache* graphs,
                     LayerCounts* counts) {
  switch (req.kind) {
    case RequestKind::kBuildConflictGraph:
      run_census(*build_gk(req, graphs, counts), req.id);
      break;
    case RequestKind::kGreedyMaxis:
      run_greedy(*build_gk(req, graphs, counts), req.id, counts);
      break;
    case RequestKind::kLubyMis:
      run_luby(*build_gk(req, graphs, counts), req.id, req.seed, counts);
      break;
    case RequestKind::kCfColor: run_cf(req); break;
    case RequestKind::kRunReduction: run_reduction(req, counts); break;
    case RequestKind::kMutateHypergraph: run_mutation(req, counts); break;
    case RequestKind::kExactCertificate:
      PSL_CHECK_MSG(false, "perfbench: exact_certificate is not benchmarked");
  }
}

}  // namespace

LayerCounts layer_probe(const std::vector<Request>& instances,
                        const std::vector<Request>& mutations) {
  auto& sched = pslocal::runtime::global_scheduler();
  const auto before = pslocal::obs::snapshot().counter("runtime.regions");
  LayerCounts counts;
  for (const Request& base : instances) {
    // One fresh G_k feeds census, greedy and Luby, as the engine's graph
    // cache would; cf coloring and the reduction work on the hypergraph.
    const auto cg = build_gk(base, nullptr, &counts);
    run_census(*cg, base.id);
    run_greedy(*cg, base.id, &counts);
    run_luby(*cg, base.id, base.seed, &counts);
    run_cf(base);
    Request red = base;
    red.kind = RequestKind::kRunReduction;
    red.solver = "greedy-mindeg";
    run_reduction(red, &counts);
    for (const RequestKind kind :
         {RequestKind::kBuildConflictGraph, RequestKind::kGreedyMaxis,
          RequestKind::kLubyMis, RequestKind::kCfColor,
          RequestKind::kRunReduction}) {
      Request req = base;
      req.kind = kind;
      if (kind == RequestKind::kRunReduction) req.solver = "greedy-mindeg";
      std::string payload;
      {
        const Span span(execute_span(kind), req.id);
        payload = service::execute_request(req, sched);
      }
      wire_round_trip(req, payload);
    }
  }
  for (const Request& req : mutations) {
    run_mutation(req, &counts);
    const Span span(execute_span(req.kind), req.id);
    const auto payload = service::execute_request(req, sched);
    PSL_CHECK(!payload.empty());
  }
  counts.runtime_regions =
      pslocal::obs::snapshot().counter("runtime.regions") - before;
  return counts;
}

void served_replay(const std::vector<ServedRecord>& served) {
  // Mirrors the engine's defaults: a 64-entry graph cache shared by the
  // MIS-family kinds of one instance.
  service::ConflictGraphCache graphs(64);
  service::SolverCache cache;
  for (const ServedRecord& rec : served) {
    const Request& req = rec.request;
    const Span root("bench.request", req.id);
    {
      const Span span("service.cache_probe", req.id);
      const auto key = service::cache_key(req);
      if (!cache.lookup(key).has_value()) cache.insert(key, rec.payload);
    }
    if (!rec.cache_hit) layers_for_kind(req, &graphs, nullptr);
    wire_round_trip(req, rec.payload);
  }
}

}  // namespace perfbench
