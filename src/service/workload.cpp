#include "service/workload.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "hypergraph/generators.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pslocal::service {

namespace {

constexpr const char* kReplayFormat = "pslocal-service-replay";
constexpr int kReplayVersion = 1;

/// Deterministic mutate script for (instance, variant): a short churn of
/// duplicate-edge inserts, edge removals, and vertex appends, valid at
/// every prefix by construction.  A pure function of its arguments, so
/// repeated (instance, variant) picks repeat cache keys the way the
/// other kinds do.
std::vector<Mutation> trace_mutation_script(const Hypergraph& h,
                                            std::uint64_t variant,
                                            std::size_t steps) {
  Rng rng(hash_combine(hash_hypergraph(h), variant));
  std::size_t n = h.vertex_count();
  std::vector<std::vector<VertexId>> edges = edge_lists(h);
  std::vector<Mutation> script;
  script.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    Mutation mut;
    const std::uint64_t roll = rng.next_below(3);
    if (roll == 0 && !edges.empty()) {
      mut = Mutation::add_edge(edges[rng.next_below(edges.size())]);
    } else if (roll == 1 && !edges.empty()) {
      mut = Mutation::remove_edge(
          static_cast<EdgeId>(rng.next_below(edges.size())));
    } else {
      mut = Mutation::add_vertex();
    }
    apply_mutation(n, edges, mut);
    script.push_back(std::move(mut));
  }
  return script;
}

}  // namespace

Trace generate_trace(const TraceParams& params) {
  PSL_EXPECTS(params.instance_pool > 0);
  PSL_EXPECTS(params.seed_variants > 0);
  const std::uint64_t total_weight =
      static_cast<std::uint64_t>(params.weight_build) + params.weight_greedy +
      params.weight_luby + params.weight_cf + params.weight_reduction +
      params.weight_exact + params.weight_mutate;
  PSL_EXPECTS_MSG(total_weight > 0, "trace kind weights are all zero");

  Rng rng(params.seed);
  Trace trace;
  trace.instances.reserve(params.instance_pool);
  trace.instance_hashes.reserve(params.instance_pool);

  // Instance sizes vary mildly over the pool so cache entries differ in
  // cost, but each stays small enough that a 10k-request trace is cheap.
  Rng gen_rng = rng.fork(0);
  for (std::size_t i = 0; i < params.instance_pool; ++i) {
    PlantedCfParams p;
    p.n = params.n + (i % 5) * 8;
    p.m = params.m + (i % 7) * 4;
    p.k = params.k;
    auto inst = planted_cf_colorable(p, gen_rng);
    auto h = std::make_shared<const Hypergraph>(std::move(inst.hypergraph));
    trace.instance_hashes.push_back(hash_hypergraph(*h));
    trace.instances.push_back(std::move(h));
  }

  // Request stream: kind by weight, instance uniform over the pool, seed
  // from a small variant set (so random kinds repeat keys too).
  static constexpr const char* kSolvers[] = {"greedy-mindeg", "greedy-random",
                                             "luby"};
  Rng req_rng = rng.fork(1);
  trace.requests.reserve(params.requests);
  std::unordered_set<std::uint64_t> keys;
  for (std::size_t i = 0; i < params.requests; ++i) {
    Request req;
    req.id = i;
    const std::uint64_t pick = req_rng.next_below(total_weight);
    if (pick < params.weight_build)
      req.kind = RequestKind::kBuildConflictGraph;
    else if (pick < params.weight_build + params.weight_greedy)
      req.kind = RequestKind::kGreedyMaxis;
    else if (pick < params.weight_build + params.weight_greedy +
                        params.weight_luby)
      req.kind = RequestKind::kLubyMis;
    else if (pick < params.weight_build + params.weight_greedy +
                        params.weight_luby + params.weight_cf)
      req.kind = RequestKind::kCfColor;
    else if (pick < params.weight_build + params.weight_greedy +
                        params.weight_luby + params.weight_cf +
                        params.weight_reduction)
      req.kind = RequestKind::kRunReduction;
    else if (pick < params.weight_build + params.weight_greedy +
                        params.weight_luby + params.weight_cf +
                        params.weight_reduction + params.weight_exact)
      req.kind = RequestKind::kExactCertificate;
    else
      req.kind = RequestKind::kMutateHypergraph;
    const std::size_t which =
        static_cast<std::size_t>(req_rng.next_below(params.instance_pool));
    req.instance = trace.instances[which];
    req.instance_hash = trace.instance_hashes[which];
    req.k = params.k;
    req.seed = 1 + req_rng.next_below(params.seed_variants);
    if (req.kind == RequestKind::kRunReduction)
      req.solver = kSolvers[req_rng.next_below(3)];
    // Fixed backend, no RNG draw: the stream stays identical to traces
    // generated before this kind existed whenever weight_exact == 0.
    if (req.kind == RequestKind::kExactCertificate) req.solver = "dpll";
    if (req.kind == RequestKind::kMutateHypergraph) {
      // The leg draw and the script derivation run only on mutate picks,
      // so the stream is unchanged whenever weight_mutate == 0.
      req.solver = req_rng.next_bool(0.5) ? "greedy-mindeg" : "luby";
      req.script = trace_mutation_script(*req.instance, req.seed,
                                         params.mutate_script_len);
    }
    keys.insert(cache_key(req));
    trace.requests.push_back(std::move(req));
  }
  trace.unique_keys = keys.size();
  return trace;
}

void write_replay_file(const std::string& path,
                       const std::vector<ReplayEntry>& entries,
                       std::uint64_t trace_seed) {
  std::ofstream out(path);
  PSL_CHECK_MSG(out.good(), "replay: cannot open " << path << " for writing");
  out << "{\n  \"format\": \"" << kReplayFormat << "\",\n"
      << "  \"version\": " << kReplayVersion << ",\n"
      << "  \"trace_seed\": " << trace_seed << ",\n"
      << "  \"entries\": [";
  std::vector<const ReplayEntry*> ordered;
  ordered.reserve(entries.size());
  for (const auto& e : entries) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const ReplayEntry* a, const ReplayEntry* b) {
              return a->id < b->id;
            });
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const ReplayEntry& e = *ordered[i];
    out << (i ? ",\n" : "\n") << "    {\"id\": " << e.id << ", \"key\": \""
        << hex64(e.key) << "\", \"result\": \"" << json::escape(e.result)
        << "\"}";
  }
  out << "\n  ]\n}\n";
  PSL_CHECK_MSG(out.good(), "replay: write to " << path << " failed");
}

std::vector<ReplayEntry> read_replay_file(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  PSL_CHECK_MSG(doc.at("format").as_string() == kReplayFormat,
                "replay: " << path << " is not a service replay file");
  PSL_CHECK_MSG(static_cast<int>(doc.at("version").as_number()) ==
                    kReplayVersion,
                "replay: unsupported version in " << path);
  std::vector<ReplayEntry> entries;
  const auto& arr = doc.at("entries").as_array();
  entries.reserve(arr.size());
  for (const auto& item : arr) {
    ReplayEntry e;
    e.id = static_cast<std::uint64_t>(item.at("id").as_number());
    e.key = parse_hex64(item.at("key").as_string());
    e.result = item.at("result").as_string();
    entries.push_back(std::move(e));
  }
  return entries;
}

ReplayVerdict verify_replay(const std::vector<ReplayEntry>& recorded,
                            const std::vector<ReplayEntry>& observed) {
  ReplayVerdict verdict;
  std::unordered_map<std::uint64_t, const ReplayEntry*> by_id;
  by_id.reserve(recorded.size());
  for (const auto& e : recorded) by_id.emplace(e.id, &e);
  PSL_CHECK_MSG(observed.size() == recorded.size(),
                "replay: recorded " << recorded.size() << " responses but "
                                    << observed.size() << " observed");
  // Walk in ascending id order so first_mismatch_id is stable.
  std::vector<const ReplayEntry*> ordered;
  ordered.reserve(observed.size());
  for (const auto& e : observed) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const ReplayEntry* a, const ReplayEntry* b) {
              return a->id < b->id;
            });
  for (const ReplayEntry* obs : ordered) {
    const auto it = by_id.find(obs->id);
    PSL_CHECK_MSG(it != by_id.end(),
                  "replay: response id " << obs->id << " not in recording");
    ++verdict.compared;
    const ReplayEntry& rec = *it->second;
    if (rec.key != obs->key || rec.result != obs->result) {
      if (verdict.mismatches == 0) verdict.first_mismatch_id = obs->id;
      ++verdict.mismatches;
    }
  }
  verdict.identical = verdict.mismatches == 0;
  return verdict;
}

}  // namespace pslocal::service
