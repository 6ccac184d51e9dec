// Greedy independent-set algorithms.
//
//  * Min-degree greedy: repeatedly add a vertex of minimum degree in the
//    remaining graph and delete its closed neighborhood.  Guarantees a
//    (Δ+2)/3-approximation of MaxIS (Halldórsson & Radhakrishnan, 1997),
//    and its output is always an MIS (inclusion maximal).
//
//  * Random-order greedy: greedy MIS along a random permutation — the
//    SLOCAL(1) MIS algorithm from the paper's introduction, run with a
//    random order.  Always an MIS; any MIS is a (Δ+1)-approximation of
//    MaxIS (each chosen vertex blocks at most Δ optimal vertices).
//
//  * Clique-cover greedy: structure-aware heuristic for conflict graphs —
//    greedily cover V by cliques (each hyperedge's triples form a clique,
//    so the cover is small) and pick at most one compatible vertex per
//    clique, smallest cliques first.
#pragma once

#include "graph/graph.hpp"
#include "mis/oracle.hpp"
#include "runtime/global.hpp"
#include "util/rng.hpp"

namespace pslocal {

/// Greedy MIS along the given processing order (joins if no earlier
/// neighbor joined).  This is exactly the paper's SLOCAL(1) MIS.
std::vector<VertexId> greedy_mis_in_order(const Graph& g,
                                          const std::vector<VertexId>& order);

/// Min-degree greedy (see header comment).  Each pick is a sequential
/// first-strictly-smaller scan (lowest id among minimum degree), so the
/// output does not depend on the thread count; the scheduler argument is
/// accepted and unused.
std::vector<VertexId> greedy_min_degree_maxis(
    const Graph& g,
    runtime::Scheduler& sched = runtime::global_scheduler());

/// Clique-cover greedy (see header comment).
std::vector<VertexId> clique_cover_greedy_maxis(const Graph& g);

class GreedyMinDegreeOracle final : public MaxISOracle {
 public:
  [[nodiscard]] std::vector<VertexId> solve(const Graph& g) override {
    return greedy_min_degree_maxis(g);
  }
  [[nodiscard]] std::string name() const override { return "greedy-mindeg"; }
};

class RandomGreedyOracle final : public MaxISOracle {
 public:
  explicit RandomGreedyOracle(std::uint64_t seed) : rng_(seed) {}
  [[nodiscard]] std::vector<VertexId> solve(const Graph& g) override;
  [[nodiscard]] std::string name() const override { return "greedy-random"; }

 private:
  Rng rng_;
};

class CliqueCoverGreedyOracle final : public MaxISOracle {
 public:
  [[nodiscard]] std::vector<VertexId> solve(const Graph& g) override {
    return clique_cover_greedy_maxis(g);
  }
  [[nodiscard]] std::string name() const override { return "greedy-clique"; }
};

}  // namespace pslocal
