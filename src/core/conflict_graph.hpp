// The conflict graph G_k of conflict-free k-coloring a hypergraph H —
// the central construction of the paper (Section 2):
//
//   "The vertex set V(G_k) consists of all triples (e, v, c), e ∈ E(H),
//    v ∈ e, 1 <= c <= k.  The edge set E(G_k) is
//      E_vertex = {{(e,v,c),(g,v,d)} | v ∈ V(H), 1 <= c != d <= k}  ∪
//      E_edge   = {{(e,v,c),(e,u,d)} | e ∈ E(H), u,v ∈ e, 1 <= c,d <= k} ∪
//      E_color  = {{(e,v,c),(g,u,c)} | e,g ∈ E(H), 1 <= c <= k,
//                                      {u,v} ⊆ e or {u,v} ⊆ g}."
//
// Intuition: a triple (e, v, c) proposes "edge e is made happy by vertex v
// carrying color c".  E_vertex forbids giving one vertex two colors,
// E_edge forbids serving one edge twice, E_color forbids claiming c is
// unique for v while another vertex of the same edge also carries c.
//
// Reading note: in E_color we require u != v.  The paper's set notation
// "{u,v} ⊆ e" would admit u = v, but Lemma 2.1 a) only holds for the
// u != v reading (the proofs also argue with "a further node u != v");
// see append_block_neighbors in conflict_graph.cpp for the derivation.
//
// Triples are densely indexed: the incidence pairs (e, v) are laid out
// edge-by-edge (in edge-vertex order), and triple_id = pair * k + (c-1),
// so the coloring<->IS correspondence maps are O(1)/O(log) per query.
//
// |V(G_k)| = k * sum_e |e|.  A single conflict-graph edge may fall into
// several of the three classes; edge_class_mask exposes the full tag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "runtime/global.hpp"

namespace pslocal {

using TripleId = std::size_t;

/// A conflict-graph vertex: edge e of H, vertex v in e, color c in [1, k].
struct Triple {
  EdgeId e = 0;
  VertexId v = 0;
  std::size_t c = 1;

  [[nodiscard]] bool operator==(const Triple&) const = default;
};

/// The one G_k candidate generator.  `pair_offset[g]` is the first
/// incidence pair of hyperedge g of h (size m + 1; triple ids are
/// pair * k + (c - 1), the layout above).  Appends to `out` every G_k
/// edge {a, b} (pack_edge-encoded) with a a triple of hyperedge e and b
/// a triple of a hyperedge g >= first_partner, g != e, plus the E_edge
/// clique of e itself.  Each such edge is appended exactly once, so
/// calling it for every e with first_partner = e + 1 emits E(G_k)
/// without duplicates.
void append_block_neighbors(const Hypergraph& h, std::size_t k,
                            std::span<const std::size_t> pair_offset,
                            EdgeId e, EdgeId first_partner,
                            std::vector<std::uint64_t>& out);

class ConflictGraph {
 public:
  /// Build G_k for conflict-free k-coloring of h.  The hypergraph is
  /// copied so the conflict graph stays valid independently of h.
  /// Candidate enumeration (append_block_neighbors per hyperedge) fans
  /// out on `sched`; the resulting graph is bit-identical at every
  /// thread count (tests/test_parallel_determinism.cpp).
  explicit ConflictGraph(Hypergraph h, std::size_t k,
                         runtime::Scheduler& sched =
                             runtime::global_scheduler());

  [[nodiscard]] const Hypergraph& hypergraph() const { return h_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }

  [[nodiscard]] std::size_t triple_count() const {
    return graph_.vertex_count();
  }

  /// Decode a conflict-graph vertex id.
  [[nodiscard]] Triple triple(TripleId t) const;

  /// Encode (e, v, c); v must belong to edge e and 1 <= c <= k.
  [[nodiscard]] TripleId triple_id(EdgeId e, VertexId v, std::size_t c) const;

  /// Classification of a conflict-graph edge (a, b must be adjacent or at
  /// least valid triples): bit-or of the classes whose defining predicate
  /// the pair satisfies.  The reference predicate of the census below.
  enum EdgeClass : unsigned {
    kEVertex = 1u,
    kEEdge = 2u,
    kEColor = 4u,
  };
  [[nodiscard]] unsigned edge_class_mask(TripleId a, TripleId b) const;

  struct ClassCounts {
    std::size_t e_vertex = 0;  // edges satisfying the E_vertex predicate
    std::size_t e_edge = 0;
    std::size_t e_color = 0;
    std::size_t total = 0;     // distinct edges of G_k
  };
  /// Tally the classes over all edges of G_k (an edge counts once per
  /// class it belongs to; total counts it once).  Computed in closed form
  /// from the hypergraph in O(sum_e sum_{v in e} deg v), not per edge;
  /// the tests check it against a per-edge edge_class_mask tally.
  [[nodiscard]] ClassCounts count_edge_classes() const;

  /// alpha(G_k) <= m: the E_edge cliques {(e,?,?)} partition V(G_k) into
  /// m cliques (proof of Lemma 2.1 a).  With Lemma 2.1 a), equality holds
  /// whenever H admits a conflict-free k-coloring.
  [[nodiscard]] std::size_t independence_upper_bound() const {
    return h_.edge_count();
  }

 private:
  [[nodiscard]] std::size_t pair_of(EdgeId e, VertexId v) const;

  Hypergraph h_;
  std::size_t k_;
  Graph graph_;
  std::vector<std::size_t> edge_pair_offset_;  // edge -> first pair index
  std::vector<EdgeId> pair_edge_;              // pair -> edge
  std::vector<VertexId> pair_vertex_;          // pair -> vertex
};

}  // namespace pslocal
