#include "mis/greedy_maxis.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/algorithms.hpp"
#include "mis/independent_set.hpp"
#include "util/check.hpp"

namespace pslocal {

std::vector<VertexId> greedy_mis_in_order(const Graph& g,
                                          const std::vector<VertexId>& order) {
  PSL_EXPECTS(is_vertex_permutation(g, order));
  std::vector<bool> blocked(g.vertex_count(), false);
  std::vector<VertexId> out;
  for (VertexId v : order) {
    if (blocked[v]) continue;
    out.push_back(v);
    blocked[v] = true;
    for (VertexId w : g.neighbors(v)) blocked[w] = true;
  }
  PSL_ENSURES(is_maximal_independent_set(g, out));
  return out;
}

std::vector<VertexId> greedy_min_degree_maxis(const Graph& g,
                                              runtime::Scheduler& /*sched*/) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> deg(n);
  std::vector<std::uint8_t> alive(n, 1);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.degree(v);
  std::size_t alive_count = n;

  std::vector<VertexId> out;
  while (alive_count > 0) {
    // First-strictly-smaller scan: the lowest id among the alive
    // vertices of minimum degree.  Quadratic overall, which is fine at
    // experiment sizes; the bucket-queue variant in degeneracy_order is
    // available if this ever shows up in profiles.
    VertexId best = 0;
    std::size_t best_deg = std::numeric_limits<std::size_t>::max();
    for (VertexId v = 0; v < n; ++v)
      if (alive[v] && deg[v] < best_deg) {
        best = v;
        best_deg = deg[v];
      }
    out.push_back(best);
    // Delete N[best]; update degrees of the 2-hop fringe.
    std::vector<VertexId> removed{best};
    for (VertexId w : g.neighbors(best))
      if (alive[w]) removed.push_back(w);
    for (VertexId r : removed) {
      alive[r] = 0;
      --alive_count;
    }
    for (VertexId r : removed)
      for (VertexId w : g.neighbors(r))
        if (alive[w]) --deg[w];
  }
  PSL_ENSURES(is_maximal_independent_set(g, out));
  return out;
}

std::vector<VertexId> clique_cover_greedy_maxis(const Graph& g) {
  const auto cover = greedy_clique_cover(g);
  // Group vertices by clique, then visit cliques smallest-first: small
  // cliques have fewer alternatives, so serving them early loses less.
  std::vector<std::vector<VertexId>> members(cover.count);
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    members[cover.clique_of[v]].push_back(v);
  std::vector<std::size_t> clique_order(cover.count);
  std::iota(clique_order.begin(), clique_order.end(), std::size_t{0});
  std::stable_sort(clique_order.begin(), clique_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return members[a].size() < members[b].size();
                   });

  std::vector<bool> blocked(g.vertex_count(), false);
  std::vector<VertexId> out;
  for (std::size_t c : clique_order) {
    // Pick the compatible member that blocks the fewest outside vertices.
    VertexId pick = InducedSubgraph::kNoVertex;
    std::size_t pick_deg = std::numeric_limits<std::size_t>::max();
    for (VertexId v : members[c]) {
      if (!blocked[v] && g.degree(v) < pick_deg) {
        pick = v;
        pick_deg = g.degree(v);
      }
    }
    if (pick == InducedSubgraph::kNoVertex) continue;
    out.push_back(pick);
    blocked[pick] = true;
    for (VertexId w : g.neighbors(pick)) blocked[w] = true;
  }
  PSL_ENSURES(is_independent_set(g, out));
  return out;
}

std::vector<VertexId> RandomGreedyOracle::solve(const Graph& g) {
  const auto perm = rng_.permutation(g.vertex_count());
  std::vector<VertexId> order(perm.begin(), perm.end());
  return greedy_mis_in_order(g, order);
}

}  // namespace pslocal
