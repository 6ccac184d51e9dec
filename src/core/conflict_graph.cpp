// G_k construction.  append_block_rows is the one enumeration of the
// three edge classes: ConflictGraph runs it over every hyperedge, and
// DynamicConflictGraph over the fresh blocks of a mutation
// (core/dynamic_conflict_graph.cpp).  Rows come out sorted, so no G_k
// build path sorts an edge.
#include "core/conflict_graph.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
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
// Inside its own block a triple is adjacent to every other triple
// (E_edge).  Outside it, a triple (e, v, c) only has neighbors in blocks
// g that share a vertex with e, and there the three classes collapse to:
//   v ∈ g:  (g, u, c) for u ∈ g, u != v    E_color, witness g
//           (g, v, d) for d != c           E_vertex
//   v ∉ g:  (g, u, c) for u ∈ e ∩ g        E_color, witness e
// These sets are disjoint, and each lists g's triples in ascending id
// order when walked by ascending position j in g.  Blocks are laid out
// in edge order, so a row is: the partners g < e, e's own block without
// the triple itself, the partners g > e — ascending with no sort.
void append_block_rows(const Hypergraph& h, std::size_t k,
                       std::span<const std::size_t> pair_offset,
                       EdgeId e_begin, EdgeId e_end,
                       std::vector<std::size_t>& offsets,
                       std::vector<VertexId>& neighbors) {
  // Per block e, per partner p: base[p] = g's first triple id,
  // pos[i * np + p] = the position of e's i-th vertex in g times k (or
  // kAbsent), and shared[shared_end[p-1], shared_end[p]) the positions
  // of e ∩ g in g times k, ascending.  row_len[i] is the length of the
  // row of every (e, v_i, c).  The buffers are reused across blocks.
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<EdgeId> partners;
  std::vector<std::size_t> base, pos, shared, shared_end, row_len;
  std::vector<std::size_t> vertex_runs;
  for (EdgeId e = e_begin; e < e_end; ++e) {
    const auto ve = h.edge(e);
    const std::size_t s = ve.size();
    partners.clear();
    for (const VertexId v : ve)
      for (const EdgeId g : h.edges_of(v))
        if (g != e) partners.push_back(g);
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    const std::size_t np = partners.size();

    base.resize(np);
    pos.resize(s * np);
    shared.clear();
    shared_end.resize(np);
    row_len.assign(s, s * k - 1);
    for (std::size_t p = 0; p < np; ++p) {
      const auto vg = h.edge(partners[p]);
      base[p] = pair_offset[partners[p]] * k;
      const std::size_t shared_begin = shared.size();
      for (std::size_t i = 0, j = 0; i < s; ++i) {
        while (j < vg.size() && vg[j] < ve[i]) ++j;
        const bool in_g = j < vg.size() && vg[j] == ve[i];
        pos[i * np + p] = in_g ? j * k : kAbsent;
        if (in_g) shared.push_back(j * k);
      }
      shared_end[p] = shared.size();
      const std::size_t t = shared.size() - shared_begin;
      for (std::size_t i = 0; i < s; ++i)
        row_len[i] += pos[i * np + p] == kAbsent ? t : vg.size() + k - 2;
    }

    std::size_t total = 0;
    for (const std::size_t len : row_len) total += len * k;
    const std::size_t start = neighbors.size();
    neighbors.resize(start + total);
    VertexId* const row0 = neighbors.data();
    VertexId* out = row0 + start;

    const std::size_t before_e = static_cast<std::size_t>(
        std::lower_bound(partners.begin(), partners.end(), e) -
        partners.begin());
    const std::size_t first = pair_offset[e] * k;
    const std::size_t last = pair_offset[e + 1] * k;
    const auto own_block = [&](VertexId* w, std::size_t a) {
      for (std::size_t b = first; b < a; ++b) *w++ = static_cast<VertexId>(b);
      for (std::size_t b = a + 1; b < last; ++b)
        *w++ = static_cast<VertexId>(b);
    };
    for (std::size_t i = 0; i < s; ++i) {
      // The row of (e, v_i, 0), recording where each E_vertex run
      // (g, v_i, 1..k-1) starts.
      VertexId* const row = out;
      vertex_runs.clear();
      const auto emit_partner = [&](std::size_t p) {
        const std::size_t jv = pos[i * np + p];
        if (jv == kAbsent) {
          for (std::size_t x = p == 0 ? 0 : shared_end[p - 1];
               x < shared_end[p]; ++x)
            *out++ = static_cast<VertexId>(base[p] + shared[x]);
          return;
        }
        const std::size_t own = base[p] + jv;  // (g, v_i, 0)
        const std::size_t end = base[p] + h.edge_size(partners[p]) * k;
        for (std::size_t t = base[p]; t < own; t += k)
          *out++ = static_cast<VertexId>(t);
        vertex_runs.push_back(static_cast<std::size_t>(out - row));
        for (std::size_t d = 1; d < k; ++d)
          *out++ = static_cast<VertexId>(own + d);
        for (std::size_t t = own + k; t < end; t += k)
          *out++ = static_cast<VertexId>(t);
      };
      for (std::size_t p = 0; p < before_e; ++p) emit_partner(p);
      const std::size_t own_at = static_cast<std::size_t>(out - row);
      own_block(out, first + i * k);
      out += last - first - 1;
      for (std::size_t p = before_e; p < np; ++p) emit_partner(p);
      const std::size_t len = static_cast<std::size_t>(out - row);
      offsets.push_back(static_cast<std::size_t>(out - row0));

      // Color c shifts every E_color entry by c; only the own block and
      // the E_vertex runs (g, v_i, d != c) are rewritten.
      for (std::size_t c = 1; c < k; ++c) {
        for (std::size_t x = 0; x < len; ++x)
          out[x] = static_cast<VertexId>(row[x] + c);
        own_block(out + own_at, first + i * k + c);
        for (const std::size_t run : vertex_runs) {
          const std::size_t own = row[run] - 1;
          VertexId* w = out + run;
          for (std::size_t d = 0; d < k; ++d)
            if (d != c) *w++ = static_cast<VertexId>(own + d);
        }
        out += len;
        offsets.push_back(static_cast<std::size_t>(out - row0));
      }
    }
    PSL_CHECK(out == row0 + neighbors.size());
  }
}

ConflictGraph::ConflictGraph(Hypergraph h, std::size_t k,
                             runtime::Scheduler& /*sched*/)
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

  // One sequential pass writes every CSR row, ascending, into arrays of
  // exactly the census size.
  const std::size_t edges = census(h_, k_).total;
  std::vector<std::size_t> offsets;
  offsets.reserve(n_triples + 1);
  offsets.push_back(0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(2 * edges);
  append_block_rows(h_, k_, edge_pair_offset_, 0, m, offsets, neighbors);
  PSL_CHECK_MSG(neighbors.size() == 2 * edges,
                "G_k rows hold " << neighbors.size() << " entries, census "
                                 << edges << " edges");

  cg_metrics().builds.add(1);
  cg_metrics().triples.add(n_triples);
  cg_metrics().candidate_pairs.add(edges);
  graph_ = Graph::from_sorted_rows(std::move(offsets), std::move(neighbors));
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
// append_block_rows.  Inside a block of s = |e| vertices every pair is
// in E_edge; s C(k,2) of them also share v (E_vertex) and k C(s,2)
// share c (E_color).  Between e and a later g with t = |e ∩ g|, every
// edge is in exactly one class: t k(k-1) in E_vertex and
// k (t (|g|-1) + (s-t) t) in E_color.
ConflictGraph::ClassCounts ConflictGraph::census(const Hypergraph& h,
                                                 std::size_t k) {
  const auto pairs = [](std::size_t x) { return x * (x - 1) / 2; };
  const std::size_t m = h.edge_count();
  ClassCounts counts;
  std::vector<std::size_t> shared(m, 0);  // t per partner of the current e
  std::vector<EdgeId> partners;
  for (EdgeId e = 0; e < m; ++e) {
    const std::size_t s = h.edge_size(e);
    counts.e_edge += pairs(s * k);
    counts.e_vertex += s * pairs(k);
    counts.e_color += k * pairs(s);
    counts.total += pairs(s * k);

    partners.clear();
    for (const VertexId v : h.edge(e))
      for (const EdgeId g : h.edges_of(v))
        if (g > e && shared[g]++ == 0) partners.push_back(g);
    for (const EdgeId g : partners) {
      const std::size_t t = std::exchange(shared[g], 0);
      const std::size_t vertex = t * k * (k - 1);
      const std::size_t color = k * (t * (h.edge_size(g) - 1) + (s - t) * t);
      counts.e_vertex += vertex;
      counts.e_color += color;
      counts.total += vertex + color;
    }
  }
  return counts;
}

ConflictGraph::ClassCounts ConflictGraph::count_edge_classes() const {
  const ClassCounts counts = census(h_, k_);
  PSL_CHECK_MSG(counts.total == graph_.edge_count(),
                "edge-class census " << counts.total << " != G_k edge count "
                                     << graph_.edge_count());
  return counts;
}

}  // namespace pslocal
