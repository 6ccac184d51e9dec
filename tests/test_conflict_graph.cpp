#include "core/conflict_graph.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/correspondence.hpp"
#include "hypergraph/generators.hpp"
#include "obs/obs.hpp"

namespace pslocal {
namespace {

// Independent brute-force construction of E(G_k) straight from the paper's
// definition, used as ground truth against the optimized builder.
std::set<std::pair<TripleId, TripleId>> brute_force_edges(
    const ConflictGraph& cg) {
  const Hypergraph& h = cg.hypergraph();
  std::set<std::pair<TripleId, TripleId>> edges;
  const std::size_t n = cg.triple_count();
  for (TripleId a = 0; a < n; ++a) {
    const Triple ta = cg.triple(a);
    for (TripleId b = a + 1; b < n; ++b) {
      const Triple tb = cg.triple(b);
      const bool e_vertex = ta.v == tb.v && ta.c != tb.c;
      const bool e_edge = ta.e == tb.e;
      const auto both_in = [&](EdgeId e) {
        return h.edge_contains(e, ta.v) && h.edge_contains(e, tb.v);
      };
      // u != v is required for E_color (see the note on
      // append_block_rows — with u = v Lemma 2.1 a) would fail).
      const bool e_color =
          ta.c == tb.c && ta.v != tb.v && (both_in(ta.e) || both_in(tb.e));
      if (e_vertex || e_edge || e_color) edges.emplace(a, b);
    }
  }
  return edges;
}

// Per-edge reference for the closed-form census: tally edge_class_mask
// over every edge of G_k.
ConflictGraph::ClassCounts tally_edge_classes(const ConflictGraph& cg) {
  ConflictGraph::ClassCounts counts;
  for (auto [a, b] : cg.graph().edges()) {
    const unsigned mask = cg.edge_class_mask(a, b);
    EXPECT_NE(mask, 0u) << "conflict-graph edge outside all classes";
    if (mask & ConflictGraph::kEVertex) ++counts.e_vertex;
    if (mask & ConflictGraph::kEEdge) ++counts.e_edge;
    if (mask & ConflictGraph::kEColor) ++counts.e_color;
    ++counts.total;
  }
  return counts;
}

void expect_census_matches_tally(const ConflictGraph& cg) {
  const auto census = cg.count_edge_classes();
  const auto tally = tally_edge_classes(cg);
  EXPECT_EQ(census.e_vertex, tally.e_vertex);
  EXPECT_EQ(census.e_edge, tally.e_edge);
  EXPECT_EQ(census.e_color, tally.e_color);
  EXPECT_EQ(census.total, tally.total);
}

TEST(ConflictGraphTest, SingleEdgeIsCompleteBlock) {
  // One hyperedge {0,1}, k=2: 4 triples forming a K4 via E_edge.
  const Hypergraph h(2, {{0, 1}});
  const ConflictGraph cg(h, 2);
  EXPECT_EQ(cg.triple_count(), 4u);
  EXPECT_EQ(cg.graph().edge_count(), 6u);
  EXPECT_EQ(cg.independence_upper_bound(), 1u);
}

#if PSLOCAL_OBS_ENABLED
// Exact work-counter pin: the block generator emits every G_k edge
// exactly once, so conflict_graph.candidate_pairs equals the edge count.
TEST(ConflictGraphTest, CandidatePairsEqualEdgeCount) {
  const auto candidates = [] {
    return obs::snapshot().counter("conflict_graph.candidate_pairs");
  };
  std::uint64_t before = candidates();
  const ConflictGraph single(Hypergraph(3, {{0, 1, 2}}), 2);
  EXPECT_EQ(single.graph().edge_count(), 15u);
  EXPECT_EQ(candidates() - before, 15u);

  // Overlapping edges: E_color pairs with a witness in both blocks are
  // still emitted once.
  before = candidates();
  const ConflictGraph overlap(
      Hypergraph(5, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 4}}), 3);
  EXPECT_EQ(candidates() - before, overlap.graph().edge_count());
}
#endif  // PSLOCAL_OBS_ENABLED

TEST(ConflictGraphTest, DisjointEdgesSingleColor) {
  // Two disjoint hyperedges, k=1: only the two E_edge pairs.
  const Hypergraph h(4, {{0, 1}, {2, 3}});
  const ConflictGraph cg(h, 1);
  EXPECT_EQ(cg.triple_count(), 4u);
  EXPECT_EQ(cg.graph().edge_count(), 2u);
  const TripleId a = cg.triple_id(0, 0, 1);
  const TripleId c = cg.triple_id(1, 2, 1);
  EXPECT_FALSE(cg.graph().has_edge(static_cast<VertexId>(a),
                                   static_cast<VertexId>(c)));
}

TEST(ConflictGraphTest, SharedVertexCreatesVertexAndColorEdges) {
  // Edges {0,1} and {1,2} share vertex 1; k=2.
  const Hypergraph h(3, {{0, 1}, {1, 2}});
  const ConflictGraph cg(h, 2);
  const auto id = [&](EdgeId e, VertexId v, std::size_t c) {
    return static_cast<VertexId>(cg.triple_id(e, v, c));
  };
  // E_vertex: (e0,1,1) ~ (e1,1,2).
  EXPECT_TRUE(cg.graph().has_edge(id(0, 1, 1), id(1, 1, 2)));
  EXPECT_EQ(cg.edge_class_mask(cg.triple_id(0, 1, 1), cg.triple_id(1, 1, 2)),
            ConflictGraph::kEVertex);
  // Same vertex, same color, different edges: NOT an edge (u != v is
  // required for E_color; with u = v Lemma 2.1 a) would fail).
  EXPECT_FALSE(cg.graph().has_edge(id(0, 1, 1), id(1, 1, 1)));
  EXPECT_EQ(cg.edge_class_mask(cg.triple_id(0, 1, 1), cg.triple_id(1, 1, 1)),
            0u);
  // E_color with distinct vertices: (e0,0,1) ~ (e1,1,1), witness {0,1}⊆e0.
  EXPECT_TRUE(cg.graph().has_edge(id(0, 0, 1), id(1, 1, 1)));
  EXPECT_EQ(cg.edge_class_mask(cg.triple_id(0, 0, 1), cg.triple_id(1, 1, 1)),
            ConflictGraph::kEColor);
  // Non-edge: (e0,0,1) vs (e1,2,2) share nothing.
  EXPECT_FALSE(cg.graph().has_edge(id(0, 0, 1), id(1, 2, 2)));
  EXPECT_EQ(cg.edge_class_mask(cg.triple_id(0, 0, 1), cg.triple_id(1, 2, 2)),
            0u);
}

TEST(ConflictGraphTest, SharedWitnessAcrossEdgesStaysIndependent) {
  // Regression for the u != v reading of E_color: edges {0,1} and {0,2}
  // both have vertex 0 as their unique-color witness under f = (1, 2, 2).
  // I_f = {(e0,0,1), (e1,0,1)} must be independent or Lemma 2.1 a) fails.
  const Hypergraph h(3, {{0, 1}, {0, 2}});
  const ConflictGraph cg(h, 2);
  const auto a = static_cast<VertexId>(cg.triple_id(0, 0, 1));
  const auto b = static_cast<VertexId>(cg.triple_id(1, 0, 1));
  EXPECT_FALSE(cg.graph().has_edge(a, b));
}

TEST(ConflictGraphTest, TripleRoundtrip) {
  const Hypergraph h(5, {{0, 2, 4}, {1, 2}, {3, 4}});
  const ConflictGraph cg(h, 3);
  EXPECT_EQ(cg.triple_count(), (3u + 2u + 2u) * 3u);
  for (TripleId t = 0; t < cg.triple_count(); ++t) {
    const Triple tr = cg.triple(t);
    EXPECT_TRUE(h.edge_contains(tr.e, tr.v));
    EXPECT_GE(tr.c, 1u);
    EXPECT_LE(tr.c, 3u);
    EXPECT_EQ(cg.triple_id(tr.e, tr.v, tr.c), t);
  }
}

TEST(ConflictGraphTest, TripleIdContracts) {
  const Hypergraph h(3, {{0, 1}});
  const ConflictGraph cg(h, 2);
  EXPECT_THROW((void)cg.triple_id(0, 2, 1), ContractViolation);  // not in edge
  EXPECT_THROW((void)cg.triple_id(0, 0, 0), ContractViolation);  // color 0
  EXPECT_THROW((void)cg.triple_id(0, 0, 3), ContractViolation);  // color > k
  EXPECT_THROW((void)cg.triple(999), ContractViolation);
}

TEST(ConflictGraphTest, VertexCountFormula) {
  Rng rng(11);
  PlantedCfParams params;
  params.n = 30;
  params.m = 20;
  params.k = 3;
  const auto inst = planted_cf_colorable(params, rng);
  for (std::size_t k : {1u, 2u, 4u}) {
    const ConflictGraph cg(inst.hypergraph, k);
    std::size_t incidence = 0;
    for (EdgeId e = 0; e < inst.hypergraph.edge_count(); ++e)
      incidence += inst.hypergraph.edge_size(e);
    EXPECT_EQ(cg.triple_count(), incidence * k);
  }
}

struct BruteForceCase {
  std::size_t n, m, k;
};

class ConflictGraphBruteForceTest
    : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(ConflictGraphBruteForceTest, MatchesDefinitionExactly) {
  const auto p = GetParam();
  Rng rng(500 + p.n * 13 + p.m * 7 + p.k);
  PlantedCfParams params;
  params.n = p.n;
  params.m = p.m;
  params.k = std::max<std::size_t>(2, p.k);
  const auto inst = planted_cf_colorable(params, rng);
  const ConflictGraph cg(inst.hypergraph, p.k);

  const auto expected = brute_force_edges(cg);
  std::set<std::pair<TripleId, TripleId>> actual;
  for (auto [a, b] : cg.graph().edges())
    actual.emplace(static_cast<TripleId>(a), static_cast<TripleId>(b));
  EXPECT_EQ(actual, expected);
  // Full CSR equality, both directions of every edge included.
  GraphBuilder reference(cg.triple_count());
  for (const auto& [a, b] : expected)
    reference.add_edge(static_cast<VertexId>(a), static_cast<VertexId>(b));
  EXPECT_EQ(cg.graph(), reference.build());
  expect_census_matches_tally(cg);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConflictGraphBruteForceTest,
                         ::testing::Values(BruteForceCase{10, 4, 1},
                                           BruteForceCase{10, 4, 2},
                                           BruteForceCase{12, 6, 3},
                                           BruteForceCase{16, 8, 2},
                                           BruteForceCase{18, 5, 4}));

TEST(ConflictGraphTest, ClosedFormClassCounts) {
  // Exact combinatorics of the first two classes:
  //   |E_edge|   = sum_e C(|e|*k, 2)                      (one clique per edge)
  //   |E_vertex| = sum_v [ C(d_v,2) k(k-1) + d_v C(k,2) ] (pairs of incident
  //                pairs with distinct colors; same-pair case has unordered
  //                color pairs)
  Rng rng(29);
  PlantedCfParams params;
  params.n = 24;
  params.m = 14;
  params.k = 3;
  const auto inst = planted_cf_colorable(params, rng);
  for (std::size_t k : {1u, 2u, 3u}) {
    const ConflictGraph cg(inst.hypergraph, k);
    const auto counts = cg.count_edge_classes();

    std::size_t expect_eedge = 0;
    for (EdgeId e = 0; e < inst.hypergraph.edge_count(); ++e) {
      const std::size_t block = inst.hypergraph.edge_size(e) * k;
      expect_eedge += block * (block - 1) / 2;
    }
    EXPECT_EQ(counts.e_edge, expect_eedge) << "k=" << k;

    std::size_t expect_evertex = 0;
    for (VertexId v = 0; v < inst.hypergraph.vertex_count(); ++v) {
      const std::size_t d = inst.hypergraph.vertex_degree(v);
      expect_evertex += d * (d - 1) / 2 * k * (k - 1);  // distinct pairs
      expect_evertex += d * (k * (k - 1) / 2);          // same pair, c < d
    }
    EXPECT_EQ(counts.e_vertex, expect_evertex) << "k=" << k;
  }
}

TEST(ConflictGraphTest, DuplicateHyperedgesAreLegal) {
  // Duplicate edges are legal hypergraph inputs; the corrected (u != v)
  // E_color keeps Lemma 2.1 a) true even when both copies pick the same
  // witness.
  const Hypergraph h(3, {{0, 1}, {0, 1}, {1, 2}});
  const ConflictGraph cg(h, 2);
  const CfColoring f{1, 2, 1};  // CF: every edge bichromatic
  ASSERT_TRUE(is_conflict_free(h, f));
  const auto report = check_lemma_a(cg, f);
  EXPECT_TRUE(report.applicable);
  EXPECT_TRUE(report.independent);
  EXPECT_TRUE(report.attains_maximum);
  EXPECT_EQ(report.is_size, 3u);
  expect_census_matches_tally(cg);
}

TEST(ConflictGraphTest, ClassCountsCoverAllEdges) {
  Rng rng(17);
  PlantedCfParams params;
  params.n = 20;
  params.m = 10;
  params.k = 3;
  const auto inst = planted_cf_colorable(params, rng);
  const ConflictGraph cg(inst.hypergraph, 3);
  const auto counts = cg.count_edge_classes();
  EXPECT_EQ(counts.total, cg.graph().edge_count());
  EXPECT_GT(counts.e_vertex, 0u);
  EXPECT_GT(counts.e_edge, 0u);
  EXPECT_GT(counts.e_color, 0u);
  // Classes overlap, so their sum is at least the total.
  EXPECT_GE(counts.e_vertex + counts.e_edge + counts.e_color, counts.total);
}

TEST(ConflictGraphTest, InterValHypergraphAlsoWorks) {
  Rng rng(23);
  const auto h = interval_hypergraph(20, 8, 2, 5, rng);
  const ConflictGraph cg(h, 2);
  const auto expected = brute_force_edges(cg);
  std::set<std::pair<TripleId, TripleId>> actual;
  for (auto [a, b] : cg.graph().edges())
    actual.emplace(static_cast<TripleId>(a), static_cast<TripleId>(b));
  EXPECT_EQ(actual, expected);
  // Full CSR equality, both directions of every edge included.
  GraphBuilder reference(cg.triple_count());
  for (const auto& [a, b] : expected)
    reference.add_edge(static_cast<VertexId>(a), static_cast<VertexId>(b));
  EXPECT_EQ(cg.graph(), reference.build());
  expect_census_matches_tally(cg);
}

}  // namespace
}  // namespace pslocal
