#include "qc/gen.hpp"

#include <algorithm>
#include <sstream>

#include "coloring/cf_baselines.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "util/check.hpp"

namespace pslocal::qc {

namespace {

/// The repeating 1,2,3 pattern colors every closed neighborhood
/// {v-1, v, v+1} rainbow on paths, and on rings whose length is a
/// multiple of 3.
CfColoring mod3_pattern(std::size_t n) {
  CfColoring f(n);
  for (std::size_t v = 0; v < n; ++v) f[v] = v % 3 + 1;
  return f;
}

HyperInstance planted_family(const std::string& family, std::uint64_t seed,
                             std::size_t n, std::size_t m, std::size_t k,
                             double epsilon) {
  Rng rng(seed);
  PlantedCfParams params;
  params.n = n;
  params.m = m;
  params.k = k;
  params.epsilon = epsilon;
  auto inst = planted_cf_colorable(params, rng);
  HyperInstance out;
  out.family = family;
  out.seed = seed;
  out.hypergraph = std::move(inst.hypergraph);
  out.k = inst.k;
  out.witness = inst.planted_coloring;
  return out;
}

/// Does some vertex of `edge` carry a color unique within the edge?
/// (The raw-state form of is_edge_happy, usable mid-generation before a
/// Hypergraph is materialized.)
bool raw_edge_happy(const std::vector<VertexId>& edge, const CfColoring& f) {
  for (const VertexId v : edge) {
    std::size_t count = 0;
    for (const VertexId u : edge) count += static_cast<std::size_t>(f[u] == f[v]);
    if (count == 1) return true;
  }
  return false;
}

/// Would removing `v` leave every incident edge happy under f?  Edges
/// emptied by the removal are erased (mutation.hpp semantics) and impose
/// no constraint.
bool removal_keeps_witness(const std::vector<std::vector<VertexId>>& edges,
                           VertexId v, const CfColoring& f) {
  for (const auto& edge : edges) {
    if (std::find(edge.begin(), edge.end(), v) == edge.end()) continue;
    std::vector<VertexId> shrunk;
    shrunk.reserve(edge.size() - 1);
    for (const VertexId u : edge)
      if (u != v) shrunk.push_back(u);
    if (!shrunk.empty() && !raw_edge_happy(shrunk, f)) return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& hyper_family_names() {
  static const std::vector<std::string> kNames = {
      "planted-k2",         "planted-k3",         "planted-k4",
      "interval",           "ring-neighborhoods", "path-neighborhoods",
  };
  return kNames;
}

HyperInstance make_family(const std::string& family, std::uint64_t seed) {
  if (family == "planted-k2")
    return planted_family(family, seed, 28, 20, 2, 1.0);
  if (family == "planted-k3")
    return planted_family(family, seed, 36, 26, 3, 0.75);
  if (family == "planted-k4")
    return planted_family(family, seed, 48, 24, 4, 0.5);
  if (family == "interval") {
    // Dyadic witness: intervals over 32 points admit CF 6-coloring.
    Rng rng(seed);
    HyperInstance out;
    out.family = family;
    out.seed = seed;
    out.hypergraph = interval_hypergraph(32, 40, 2, 8, rng);
    out.k = 6;
    out.witness = dyadic_interval_cf_coloring(32);
    return out;
  }
  if (family == "ring-neighborhoods") {
    // Ring length a multiple of 3 so the mod-3 pattern wraps cleanly.
    const std::size_t n = 9 + 3 * (SplitMix64(seed).next() % 5);
    HyperInstance out;
    out.family = family;
    out.seed = seed;
    out.hypergraph = closed_neighborhood_hypergraph(ring(n));
    out.k = 3;
    out.witness = mod3_pattern(n);
    return out;
  }
  if (family == "path-neighborhoods") {
    const std::size_t n = 7 + SplitMix64(seed).next() % 18;
    HyperInstance out;
    out.family = family;
    out.seed = seed;
    out.hypergraph = closed_neighborhood_hypergraph(path(n));
    out.k = 3;
    out.witness = mod3_pattern(n);
    return out;
  }
  PSL_CHECK_MSG(false, "unknown hypergraph family " << family);
  return {};  // unreachable
}

HyperInstance arbitrary_instance(Rng& rng, const std::string& force_family) {
  const auto& names = hyper_family_names();
  const std::string family =
      force_family.empty()
          ? names[static_cast<std::size_t>(rng.next_below(names.size()))]
          : force_family;
  return make_family(family, rng.next_u64());
}

Graph arbitrary_graph(Rng& rng, std::size_t max_n) {
  PSL_EXPECTS(max_n >= 8);
  // Multi-draw cases hoist every rng call into a named local: function
  // arguments are indeterminately sequenced, and the draw order must not
  // depend on the compiler.
  switch (rng.next_below(12)) {
    case 0:
      return Graph::from_edges(rng.next_below(max_n + 1), {});
    case 1:
      return ring(3 + rng.next_below(max_n - 2));
    case 2:
      return path(1 + rng.next_below(max_n));
    case 3: {
      const std::size_t rows = 1 + rng.next_below(6);
      const std::size_t cols = 1 + rng.next_below(6);
      return grid(rows, cols);
    }
    case 4:
      return complete(1 + rng.next_below(std::min<std::size_t>(max_n, 10)));
    case 5: {
      const std::size_t a = 1 + rng.next_below(5);
      const std::size_t b = 1 + rng.next_below(5);
      return complete_bipartite(a, b);
    }
    case 6: {
      const std::size_t n = 1 + rng.next_below(max_n);
      const double p = 0.05 + 0.1 * rng.next_double();
      return gnp(n, p, rng);
    }
    case 7: {
      const std::size_t n = 1 + rng.next_below(max_n / 2);
      const double p = 0.3 + 0.4 * rng.next_double();
      return gnp(n, p, rng);
    }
    case 8:
      return random_tree(1 + rng.next_below(max_n), rng);
    case 9: {
      const std::size_t n = 8 + rng.next_below(max_n - 7);
      const double beta = 2.0 + rng.next_double();
      const double avg_deg = 2.0 + 2.0 * rng.next_double();
      return power_law(n, beta, avg_deg, rng);
    }
    case 10: {
      const std::size_t n = 4 + rng.next_below(max_n - 3);
      const std::size_t d =
          1 + rng.next_below(std::min<std::size_t>(4, n - 1));
      return random_near_regular(n, d, rng);
    }
    default: {
      std::vector<std::size_t> sizes(1 + rng.next_below(5));
      for (auto& s : sizes) s = 1 + rng.next_below(4);
      return disjoint_cliques(sizes);
    }
  }
}

Hypergraph arbitrary_tiny_hypergraph(Rng& rng, std::size_t max_n) {
  PSL_EXPECTS(max_n >= 1);
  const std::size_t n = 1 + rng.next_below(max_n);
  const std::size_t m = rng.next_below(8);
  std::vector<std::vector<VertexId>> edges;
  edges.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t s =
        1 + rng.next_below(std::min<std::size_t>(n, 4));
    std::vector<VertexId> edge;
    for (const std::size_t v : rng.sample_without_replacement(n, s))
      edge.push_back(static_cast<VertexId>(v));
    edges.push_back(std::move(edge));
  }
  return Hypergraph(n, std::move(edges));
}

const std::vector<std::string>& mutation_family_names() {
  static const std::vector<std::string> kNames = {"mutation_heavy",
                                                  "churn_burst"};
  return kNames;
}

MutationScript make_mutation_family(const std::string& family,
                                    std::uint64_t seed) {
  PSL_CHECK_MSG(family == "mutation_heavy" || family == "churn_burst",
                "unknown mutation family " << family);
  Rng rng(seed);
  MutationScript out;
  out.family = family;
  out.seed = seed;

  // Small planted base: the exact differential leg re-solves G_k after
  // every step, so keep triples in the hundreds.
  PlantedCfParams params;
  params.n = 12 + rng.next_below(5);  // 12..16
  params.m = 8 + rng.next_below(5);   // 8..12
  params.k = 2 + rng.next_below(2);   // 2..3
  params.epsilon = 1.0;
  auto inst = planted_cf_colorable(params, rng);
  out.base.family = family;
  out.base.seed = seed;
  out.base.hypergraph = std::move(inst.hypergraph);
  out.base.k = inst.k;
  out.base.witness = inst.planted_coloring;
  out.witness = out.base.witness;

  // Tracked raw state: every emitted mutation is applied here first, so
  // validity at each prefix holds by construction.
  std::size_t n = out.base.hypergraph.vertex_count();
  std::vector<std::vector<VertexId>> edges = edge_lists(out.base.hypergraph);
  const auto push = [&](Mutation mut) {
    apply_mutation(n, edges, mut);
    out.script.push_back(std::move(mut));
  };
  const auto push_vertex = [&] {
    const std::size_t color = 1 + rng.next_below(out.base.k);
    push(Mutation::add_vertex());
    out.witness.push_back(color);
  };

  if (family == "mutation_heavy") {
    const std::size_t steps = 4 + rng.next_below(5);  // 4..8
    for (std::size_t i = 0; i < steps; ++i) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 50) {
        // Witness-respecting insert: rejection-sample a small vertex set
        // that stays happy under the witness; fall back to duplicating an
        // existing edge (trivially happy under the same coloring).
        bool placed = false;
        for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
          const std::size_t size =
              2 + rng.next_below(std::min<std::size_t>(3, n - 1));
          std::vector<VertexId> vs;
          for (const std::size_t v : rng.sample_without_replacement(n, size))
            vs.push_back(static_cast<VertexId>(v));
          std::sort(vs.begin(), vs.end());
          if (raw_edge_happy(vs, out.witness)) {
            push(Mutation::add_edge(std::move(vs)));
            placed = true;
          }
        }
        if (!placed && !edges.empty()) {
          const std::size_t e = rng.next_below(edges.size());
          push(Mutation::add_edge(edges[e]));
        }
      } else if (roll < 75) {
        if (edges.empty())
          push_vertex();
        else
          push(Mutation::remove_edge(
              static_cast<EdgeId>(rng.next_below(edges.size()))));
      } else if (roll < 90) {
        // remove_vertex shrinks incident edges; accept only if every
        // survivor stays happy, else degrade to remove_edge.
        bool placed = false;
        for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
          const auto v = static_cast<VertexId>(rng.next_below(n));
          if (removal_keeps_witness(edges, v, out.witness)) {
            push(Mutation::remove_vertex(v));
            placed = true;
          }
        }
        if (!placed) {
          if (edges.empty())
            push_vertex();
          else
            push(Mutation::remove_edge(
                static_cast<EdgeId>(rng.next_below(edges.size()))));
        }
      } else {
        push_vertex();
      }
    }
  } else {  // churn_burst
    const std::size_t bursts = 1 + rng.next_below(2);  // 1..2
    for (std::size_t b = 0; b < bursts; ++b) {
      if (edges.empty()) {
        push_vertex();
        continue;
      }
      const std::size_t width = std::min<std::size_t>(
          edges.size(), 2 + rng.next_below(3));  // 2..4
      auto ids = rng.sample_without_replacement(edges.size(), width);
      std::sort(ids.begin(), ids.end());
      std::vector<std::vector<VertexId>> contents;
      for (const std::size_t id : ids) contents.push_back(edges[id]);
      // Tear out highest id first so the remaining targets stay valid,
      // then re-add the recorded contents: the epoch chain and caches
      // churn, but the endpoint hypergraph is content-identical.
      for (std::size_t j = ids.size(); j-- > 0;)
        push(Mutation::remove_edge(static_cast<EdgeId>(ids[j])));
      const bool interleave = rng.next_bool(0.5);
      if (interleave) push_vertex();
      for (auto& content : contents)
        push(Mutation::add_edge(std::move(content)));
    }
  }
  return out;
}

MutationScript arbitrary_mutation_script(Rng& rng,
                                         const std::string& force_family) {
  const auto& names = mutation_family_names();
  const std::string family =
      force_family.empty()
          ? names[static_cast<std::size_t>(rng.next_below(names.size()))]
          : force_family;
  return make_mutation_family(family, rng.next_u64());
}

service::TraceParams arbitrary_trace_params(Rng& rng) {
  service::TraceParams tp;
  tp.seed = rng.next_u64();
  tp.requests = 16 + rng.next_below(25);
  tp.instance_pool = 2 + rng.next_below(3);
  tp.n = 24 + rng.next_below(17);
  tp.m = 18 + rng.next_below(13);
  tp.k = 2 + rng.next_below(2);
  tp.seed_variants = 1 + rng.next_below(2);
  // Random mix; keep every weight positive so all five kinds stay covered.
  tp.weight_build = 1 + static_cast<unsigned>(rng.next_below(8));
  tp.weight_greedy = 1 + static_cast<unsigned>(rng.next_below(8));
  tp.weight_luby = 1 + static_cast<unsigned>(rng.next_below(8));
  tp.weight_cf = 1 + static_cast<unsigned>(rng.next_below(8));
  tp.weight_reduction = 1 + static_cast<unsigned>(rng.next_below(4));
  // Sometimes zero: traces both with and without interleaved mutations.
  tp.weight_mutate = static_cast<unsigned>(rng.next_below(5));
  tp.mutate_script_len = 2 + rng.next_below(3);
  return tp;
}

std::string describe(const Graph& g) {
  std::ostringstream os;
  os << "graph n=" << g.vertex_count() << " edges=[";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) os << " ";
    os << "(" << u << "," << v << ")";
    first = false;
  }
  os << "]";
  return os.str();
}

std::string describe(const Hypergraph& h) {
  std::ostringstream os;
  os << "hypergraph n=" << h.vertex_count() << " edges=[";
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    if (e > 0) os << " ";
    os << "{";
    bool first = true;
    for (const VertexId v : h.edge(e)) {
      if (!first) os << ",";
      os << v;
      first = false;
    }
    os << "}";
  }
  os << "]";
  return os.str();
}

std::string describe(const MutationScript& ms) {
  std::ostringstream os;
  os << "mutation-script family=" << ms.family << " seed=" << ms.seed
     << " k=" << ms.base.k << " base=" << describe(ms.base.hypergraph)
     << " script=" << describe(ms.script);
  return os.str();
}

}  // namespace pslocal::qc
