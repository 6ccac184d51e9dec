// Delta-maintained conflict graph: G_k patched in place per mutation
// instead of rebuilt from scratch.
//
// Why edge-local patching is *exact* here: every G_k edge class
// (core/conflict_graph.hpp) is defined by a predicate that references
// only the two endpoint triples' own hyperedges —
//
//   E_vertex {(e,v,c),(g,v,d)}  mentions e and g,
//   E_edge   {(e,v,c),(e,u,d)}  mentions e,
//   E_color  {(e,v,c),(g,u,c)}  mentions e and g ({u,v} ⊆ e or ⊆ g).
//
// So every G_k edge created or destroyed by mutating hyperedge e is
// incident to a triple of e.  A mutation therefore removes the triple
// blocks of the touched hyperedges, renumbers the survivors (their
// adjacency is *remapped*, never re-derived), and takes each fresh
// triple's final row from the one G_k row generator, append_block_rows
// (core/conflict_graph.hpp) — ConflictGraph runs the same generator over
// all blocks.  Survivors gain the reverse entries of those rows by a
// counting scatter and a sorted merge; nothing is sorted.  remove_vertex
// is handled as "remove the old edge block, re-attach the shrunk edge at
// the same position", which keeps one endpoint of every affected pair
// inside a touched block.
//
// The renumbering pass is O(|G_k|) (a linear remap of the survivor
// adjacency); what the delta path saves is generating the rows of the
// whole graph — and, one level up, MIS *repair* (mis/repair.hpp)
// instead of a full re-solve.
//
// Canonical layout is identical to ConflictGraph: incidence pairs (e, v)
// laid out edge-by-edge in sorted-vertex order, triple_id =
// pair * k + (c - 1).  snapshot() must equal a fresh
// ConflictGraph(hypergraph(), k).graph() after every mutation, and
// graph_hash() streams exactly hash_graph's encoding — both are pinned
// by tests and the mis_repair_vs_recompute qc differential.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "hypergraph/mutation.hpp"
#include "runtime/global.hpp"

namespace pslocal {

class DynamicConflictGraph {
 public:
  /// remap[] value for triples dropped by a mutation.
  static constexpr TripleId kRemoved = static_cast<TripleId>(-1);

  DynamicConflictGraph() = default;

  /// Seed from a hypergraph (builds G_k once via ConflictGraph).  The
  /// scheduler argument is accepted and unused (the build is sequential).
  explicit DynamicConflictGraph(const Hypergraph& h, std::size_t k,
                                runtime::Scheduler& sched =
                                    runtime::global_scheduler());

  /// Seed from an already-built conflict graph (no rebuild).
  explicit DynamicConflictGraph(const ConflictGraph& cg);

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t vertex_count() const {
    return h_.vertex_count();
  }
  [[nodiscard]] std::size_t edge_count() const { return h_.edge_count(); }
  [[nodiscard]] std::size_t triple_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t gk_edge_count() const { return gk_edges_; }

  [[nodiscard]] std::span<const VertexId> hyperedge(EdgeId e) const {
    return h_.edge(e);
  }

  [[nodiscard]] std::span<const TripleId> neighbors(TripleId t) const {
    PSL_EXPECTS(t < adj_.size());
    return *adj_[t];
  }

  /// Decode a triple id under the current layout.
  [[nodiscard]] Triple triple(TripleId t) const;

  /// What one mutation did to the triple id space and the edge set.
  struct Delta {
    /// Pre-mutation ids of dropped triples (blocks of deleted and
    /// content-changed hyperedges), ascending.
    std::vector<TripleId> removed;
    /// Post-mutation ids of fresh triples (blocks of appended and
    /// content-changed hyperedges), ascending.
    std::vector<TripleId> added;
    /// Post-mutation ids whose adjacency changed — fresh triples plus
    /// survivors that lost or gained a neighbor.  This is the dirty
    /// region MIS repair re-solves around.  Ascending.
    std::vector<TripleId> dirty;
    /// Old triple id -> new triple id; kRemoved for dropped triples.
    /// Strictly increasing over survivors (sorted lists stay sorted
    /// under remapping).
    std::vector<TripleId> remap;
    std::size_t gk_edges_removed = 0;
    std::size_t gk_edges_added = 0;
  };

  /// Apply one mutation; PSL_CHECKs validate_mutation.
  Delta apply(const Mutation& mut);

  /// The current hypergraph (reference semantics: equals
  /// apply_script(base, script-so-far)).
  [[nodiscard]] const Hypergraph& hypergraph() const { return h_; }

  /// == hash_hypergraph(hypergraph()).
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Materialize the current G_k; must equal
  /// ConflictGraph(hypergraph(), k).graph() bit for bit.  Concatenates
  /// the already-sorted rows (Graph::from_sorted_rows); the scheduler
  /// argument is accepted and unused.
  [[nodiscard]] Graph snapshot(runtime::Scheduler& sched =
                                   runtime::global_scheduler()) const;

  /// == hash_graph(snapshot()), streamed without materializing.
  [[nodiscard]] std::uint64_t graph_hash() const;

  /// alpha(G_k) <= current edge count (the E_edge cliques partition
  /// V(G_k) into m cliques; see ConflictGraph::independence_upper_bound).
  [[nodiscard]] std::size_t independence_upper_bound() const {
    return h_.edge_count();
  }

  /// How many adjacency rows this graph shares (pointer-identical row
  /// storage) with `other`, compared position-wise over the common id
  /// range.  Copies share every row; apply() reallocates only the rows a
  /// mutation actually rewrites, so this is the structural-sharing probe
  /// the session-store memory pin reads.
  [[nodiscard]] std::size_t shared_rows_with(
      const DynamicConflictGraph& other) const;

 private:
  /// One adjacency row, shared copy-on-write across graph copies.  The
  /// session store keeps many MutationStates that differ by a script
  /// suffix; sharing unchanged rows makes a stored copy cost O(rows the
  /// divergent suffix rewrites), not O(|G_k|).  Rows are immutable once
  /// published — apply() builds replacements and swaps pointers.
  using Row = std::shared_ptr<const std::vector<TripleId>>;

  void rebuild_pair_offsets();

  Hypergraph h_;
  std::size_t k_ = 1;
  std::vector<std::size_t> pair_offset_;  // edge -> first pair (m+1)
  std::vector<Row> adj_;  // triple -> sorted neighbors (COW rows)
  std::size_t gk_edges_ = 0;
};

}  // namespace pslocal
