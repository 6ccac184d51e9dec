#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/io.hpp"
#include "util/rng.hpp"

namespace pslocal {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
  EXPECT_TRUE(g.edges().empty());
}

TEST(GraphTest, BuilderDedupsAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, reversed
  b.add_edge(0, 1);  // duplicate
  b.add_edge(2, 2);  // self loop dropped
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, BuilderOutOfRangeViolatesContract) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), ContractViolation);
}

TEST(GraphTest, NeighborsSortedAndDegreesMatch) {
  const Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {1, 0}});
  const auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 1u);
  EXPECT_EQ(nb[2], 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

TEST(GraphTest, EdgesAreCanonical) {
  const Graph g = Graph::from_edges(4, {{2, 1}, {0, 3}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<VertexId, VertexId>{0, 3}));
  EXPECT_EQ(edges[1], (std::pair<VertexId, VertexId>{1, 2}));
}

TEST(GraphTest, FromEdgesRejectsDuplicatesUnlessAsked) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractViolation);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}}, /*dedup=*/true);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), ContractViolation);
}

TEST(GraphTest, RoundTripThroughEdgeListIO) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {4, 5}, {0, 5}});
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(g, h);
}

TEST(GraphTest, ReadRejectsTruncatedInput) {
  std::stringstream ss("3 2\n0 1\n");  // promises 2 edges, has 1
  EXPECT_THROW(read_edge_list(ss), ContractViolation);
}

// from_packed_edges radix-sorts its input.  The reference is the graph a
// std::sort + unique of the same words describes: every edge as two
// arcs, rows ascending.
void expect_matches_sorted_reference(std::size_t n,
                                     std::vector<std::uint64_t> packed) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  {
    auto sorted = packed;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const std::uint64_t pe : sorted) {
      const auto u = static_cast<VertexId>(pe >> 32);
      const auto v = static_cast<VertexId>(pe & 0xffffffffULL);
      arcs.emplace_back(u, v);
      arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
  }
  const Graph g = Graph::from_packed_edges(n, std::move(packed));
  ASSERT_EQ(g.vertex_count(), n);
  EXPECT_EQ(g.edge_count(), arcs.size() / 2);
  std::vector<std::pair<VertexId, VertexId>> actual;
  actual.reserve(arcs.size());
  for (VertexId v = 0; v < n; ++v)
    for (const VertexId w : g.neighbors(v)) actual.emplace_back(v, w);
  EXPECT_EQ(actual, arcs) << "n=" << n;
}

TEST(GraphTest, FromPackedEdgesMatchesSortedReference) {
  // n = 2 and 65536 sort in two passes (one per endpoint); 65537 and
  // 2^20 need two digits per endpoint.  100 edges at n = 65536 take the
  // std::sort path.
  for (const std::size_t n : {std::size_t{2}, std::size_t{65536},
                              std::size_t{65537}, std::size_t{1} << 20})
    for (const std::size_t draws : {100, 20000}) {
      Rng rng(n + draws);
      std::vector<std::uint64_t> packed;
      for (std::size_t i = 0; i < draws; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v = static_cast<VertexId>(rng.next_below(n));
        if (u != v) packed.push_back(pack_edge(u, v));
      }
      packed.push_back(pack_edge(0, static_cast<VertexId>(n - 1)));
      for (std::size_t i = 0; i < draws / 4; ++i)  // duplicates
        packed.push_back(packed[rng.next_below(packed.size())]);
      rng.shuffle(packed);
      expect_matches_sorted_reference(n, std::move(packed));
    }
  expect_matches_sorted_reference(5, {});
}

TEST(GraphTest, FromPackedEdgesRejectsInvalidBeforeSorting) {
  const auto raw = [](std::uint64_t u, std::uint64_t v) {
    return (u << 32) | v;
  };
  // v >= n: bits outside the b = 2 bits an n = 4 sort reads.
  EXPECT_THROW(Graph::from_packed_edges(4, {raw(0, 1), raw(1, 1000)}),
               ContractViolation);
  EXPECT_THROW(Graph::from_packed_edges(4, {raw(0, 1), raw(2, 4)}),
               ContractViolation);
  // u == v and u > v.
  EXPECT_THROW(Graph::from_packed_edges(4, {raw(2, 2), raw(0, 1)}),
               ContractViolation);
  EXPECT_THROW(Graph::from_packed_edges(4, {raw(3, 1)}), ContractViolation);
}

}  // namespace
}  // namespace pslocal
