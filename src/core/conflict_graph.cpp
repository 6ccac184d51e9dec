// G_k construction.  append_block_neighbors is the one enumeration of
// the three edge classes: ConflictGraph runs it over every hyperedge
// against all later blocks, DynamicConflictGraph over the fresh blocks
// of a mutation against all blocks (core/dynamic_conflict_graph.cpp).
#include "core/conflict_graph.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace pslocal {

namespace {
struct ConflictGraphMetrics {
  obs::Counter builds{"conflict_graph.builds"};
  obs::Counter triples{"conflict_graph.triples"};
  obs::Counter candidate_pairs{"conflict_graph.candidate_pairs"};
  obs::Counter edges{"conflict_graph.edges"};
};

const ConflictGraphMetrics& cg_metrics() {
  static ConflictGraphMetrics m;
  return m;
}
}  // namespace

// E_color reading note (erratum level): the set notation "{u,v} ⊆ e"
// admits u = v, but the proofs of Lemma 2.1 treat u and v as distinct
// ("assume that there is a further node u ∈ e, u != v ...").  Indeed with
// u = v the lemma's part (a) is FALSE: if two hyperedges share their
// unique-color witness vertex v, I_f would contain (e, v, c) and
// (g, v, c) and an u = v E_color edge would join them.  We therefore
// require u != v; see ConflictGraphTest.
// SharedWitnessAcrossEdgesStaysIndependent for the counterexample.
//
// Outside its own block, a triple (e, v, c) only has neighbors in blocks
// g that share a vertex with e, and there the three classes collapse to:
//   v ∈ g:  (g, u, c) for u ∈ g, u != v    E_color, witness g
//           (g, v, d) for d != c           E_vertex
//   v ∉ g:  (g, u, c) for u ∈ e ∩ g        E_color, witness e
// These sets are disjoint, so no candidate is emitted twice.
void append_block_neighbors(const Hypergraph& h, std::size_t k,
                            std::span<const std::size_t> pair_offset,
                            EdgeId e, EdgeId first_partner,
                            std::vector<std::uint64_t>& out) {
  const auto tid = [k](std::size_t pair, std::size_t c) {
    return static_cast<VertexId>(pair * k + c);  // c is 0-based here
  };
  const auto emit = [&out](VertexId a, VertexId b) {
    out.push_back(pack_edge(a, b));
  };

  // E_edge: the triples of one hyperedge form a clique.
  const std::size_t first = pair_offset[e] * k;
  const std::size_t last = pair_offset[e + 1] * k;
  for (std::size_t a = first; a < last; ++a)
    for (std::size_t b = a + 1; b < last; ++b)
      emit(static_cast<VertexId>(a), static_cast<VertexId>(b));

  const auto ve = h.edge(e);
  std::vector<EdgeId> partners;
  for (const VertexId v : ve)
    for (const EdgeId g : h.edges_of(v))
      if (g != e && g >= first_partner) partners.push_back(g);
  std::sort(partners.begin(), partners.end());
  partners.erase(std::unique(partners.begin(), partners.end()),
                 partners.end());

  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pos_in_g(ve.size());  // e's i-th vertex in g
  std::vector<std::size_t> shared;               // positions of e ∩ g in g
  for (const EdgeId g : partners) {
    const auto vg = h.edge(g);
    shared.clear();
    for (std::size_t i = 0, j = 0; i < ve.size(); ++i) {
      while (j < vg.size() && vg[j] < ve[i]) ++j;
      pos_in_g[i] = j < vg.size() && vg[j] == ve[i] ? j : kAbsent;
      if (pos_in_g[i] != kAbsent) shared.push_back(j);
    }
    const std::size_t pg = pair_offset[g];
    for (std::size_t i = 0; i < ve.size(); ++i) {
      const std::size_t jv = pos_in_g[i];
      for (std::size_t c = 0; c < k; ++c) {
        const VertexId a = tid(pair_offset[e] + i, c);
        if (jv == kAbsent) {
          for (const std::size_t j : shared) emit(a, tid(pg + j, c));
          continue;
        }
        for (std::size_t j = 0; j < vg.size(); ++j)
          if (j != jv) emit(a, tid(pg + j, c));
        for (std::size_t d = 0; d < k; ++d)
          if (d != c) emit(a, tid(pg + jv, d));
      }
    }
  }
}

ConflictGraph::ConflictGraph(Hypergraph h, std::size_t k,
                             runtime::Scheduler& sched)
    : h_(std::move(h)), k_(k) {
  PSL_EXPECTS(k_ >= 1);
  PSL_OBS_SPAN("conflict_graph.build");
  const std::size_t m = h_.edge_count();

  // Lay out incidence pairs (e, v) edge by edge.
  edge_pair_offset_.assign(m + 1, 0);
  for (EdgeId e = 0; e < m; ++e)
    edge_pair_offset_[e + 1] = edge_pair_offset_[e] + h_.edge_size(e);
  const std::size_t pair_count = edge_pair_offset_[m];
  pair_edge_.resize(pair_count);
  pair_vertex_.resize(pair_count);
  for (EdgeId e = 0; e < m; ++e) {
    std::size_t p = edge_pair_offset_[e];
    for (VertexId v : h_.edge(e)) {
      pair_edge_[p] = e;
      pair_vertex_[p] = v;
      ++p;
    }
  }

  const std::size_t n_triples = pair_count * k_;
  PSL_EXPECTS_MSG(n_triples < (std::uint64_t{1} << 32),
                  "conflict graph too large for 32-bit triple ids");

  // One runtime region: each chunk appends the edges from its hyperedges'
  // blocks to every later block into a private sink
  // (runtime/parallel.hpp).  Every edge of G_k is emitted exactly once.
  std::vector<std::uint64_t> packed = runtime::parallel_collect<std::uint64_t>(
      sched, {m, 0},
      [&](std::size_t lo, std::size_t hi, std::vector<std::uint64_t>& sink) {
        for (EdgeId e = lo; e < hi; ++e)
          append_block_neighbors(h_, k_, edge_pair_offset_, e, e + 1, sink);
      });

  cg_metrics().builds.add(1);
  cg_metrics().triples.add(n_triples);
  cg_metrics().candidate_pairs.add(packed.size());
  graph_ = Graph::from_packed_edges(n_triples, std::move(packed));
  cg_metrics().edges.add(graph_.edge_count());
}

Triple ConflictGraph::triple(TripleId t) const {
  PSL_EXPECTS(t < triple_count());
  const std::size_t pair = t / k_;
  Triple out;
  out.e = pair_edge_[pair];
  out.v = pair_vertex_[pair];
  out.c = t % k_ + 1;
  return out;
}

TripleId ConflictGraph::triple_id(EdgeId e, VertexId v, std::size_t c) const {
  PSL_EXPECTS(c >= 1 && c <= k_);
  return pair_of(e, v) * k_ + (c - 1);
}

std::size_t ConflictGraph::pair_of(EdgeId e, VertexId v) const {
  PSL_EXPECTS(e < h_.edge_count());
  const auto verts = h_.edge(e);
  const auto it = std::lower_bound(verts.begin(), verts.end(), v);
  PSL_EXPECTS_MSG(it != verts.end() && *it == v,
                  "vertex " << v << " not in hyperedge " << e);
  return edge_pair_offset_[e] +
         static_cast<std::size_t>(std::distance(verts.begin(), it));
}

unsigned ConflictGraph::edge_class_mask(TripleId a, TripleId b) const {
  const Triple ta = triple(a);
  const Triple tb = triple(b);
  PSL_EXPECTS(!(ta == tb));
  unsigned mask = 0;
  if (ta.v == tb.v && ta.c != tb.c) mask |= kEVertex;
  if (ta.e == tb.e) mask |= kEEdge;
  // E_color requires two *distinct* vertices u != v (see constructor note).
  if (ta.c == tb.c && ta.v != tb.v &&
      (h_.edge_contains(ta.e, tb.v) || h_.edge_contains(tb.e, ta.v)))
    mask |= kEColor;
  return mask;
}

// The census in closed form, over the disjoint cases of
// append_block_neighbors.  Inside a block of s = |e| vertices every pair
// is in E_edge; s C(k,2) of them also share v (E_vertex) and k C(s,2)
// share c (E_color).  Between e and a later g with t = |e ∩ g|, every
// edge is in exactly one class: t k(k-1) in E_vertex and
// k (t (|g|-1) + (s-t) t) in E_color.
ConflictGraph::ClassCounts ConflictGraph::count_edge_classes() const {
  const auto pairs = [](std::size_t x) { return x * (x - 1) / 2; };
  const std::size_t m = h_.edge_count();
  ClassCounts counts;
  std::vector<std::size_t> shared(m, 0);  // t per partner of the current e
  std::vector<EdgeId> partners;
  for (EdgeId e = 0; e < m; ++e) {
    const std::size_t s = h_.edge_size(e);
    counts.e_edge += pairs(s * k_);
    counts.e_vertex += s * pairs(k_);
    counts.e_color += k_ * pairs(s);
    counts.total += pairs(s * k_);

    partners.clear();
    for (const VertexId v : h_.edge(e))
      for (const EdgeId g : h_.edges_of(v))
        if (g > e && shared[g]++ == 0) partners.push_back(g);
    for (const EdgeId g : partners) {
      const std::size_t t = std::exchange(shared[g], 0);
      const std::size_t vertex = t * k_ * (k_ - 1);
      const std::size_t color = k_ * (t * (h_.edge_size(g) - 1) + (s - t) * t);
      counts.e_vertex += vertex;
      counts.e_color += color;
      counts.total += vertex + color;
    }
  }
  PSL_CHECK_MSG(counts.total == graph_.edge_count(),
                "edge-class census " << counts.total << " != G_k edge count "
                                     << graph_.edge_count());
  return counts;
}

}  // namespace pslocal
