// Immutable simple undirected graph in CSR (compressed sparse row) form.
//
// All algorithms in the library take `const Graph&`.  Mutation happens only
// through GraphBuilder; this keeps phase-based algorithms (the Theorem 1.1
// reduction re-derives graphs every phase) free of aliasing surprises.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pslocal {

using VertexId = std::uint32_t;

class GraphBuilder;

/// Canonical one-word edge encoding of every graph-build path:
/// (min(u,v) << 32) | max(u,v).  Packed edges sort exactly like (u, v)
/// pairs, so sorted packed edges fill CSR rows in ascending order.
inline std::uint64_t pack_edge(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

class Graph {
 public:
  /// The empty graph.
  Graph() = default;

  /// Build from an explicit edge list (duplicates and self-loops rejected
  /// unless `dedup` is set, in which case they are silently dropped).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<VertexId, VertexId>>& edges,
                          bool dedup = false);

  /// Build from pack_edge-encoded edges in any order, duplicates allowed
  /// (self-loops are not).  Every edge is validated before a stable LSD
  /// radix sort over the ceil(log2 n) significant bits of each endpoint
  /// (digits of at most 16 bits: two passes up to n = 65536), so the
  /// cost is linear in the edge count.  GraphBuilder::build is this.
  /// Consumes `packed`.
  static Graph from_packed_edges(std::size_t n,
                                 std::vector<std::uint64_t>&& packed);

  [[nodiscard]] std::size_t vertex_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Sorted neighbor list of v.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    PSL_EXPECTS(v < vertex_count());
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const {
    PSL_EXPECTS(v < vertex_count());
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::size_t max_degree() const;
  [[nodiscard]] double average_degree() const;

  /// O(log deg) membership test on the sorted adjacency list.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// All edges as (u, v) with u < v, ascending.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edges() const;

  [[nodiscard]] bool operator==(const Graph& other) const = default;

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_{0};
  std::vector<VertexId> neighbors_;
};

/// Incremental graph construction; deduplicates edges and drops self-loops.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : n_(n) {}

  /// Add undirected edge {u, v}.  Self-loops are ignored; duplicates are
  /// deduplicated at build() time.
  void add_edge(VertexId u, VertexId v);

  [[nodiscard]] std::size_t vertex_count() const { return n_; }
  [[nodiscard]] std::size_t pending_edge_count() const { return edges_.size(); }

  /// Finalize into an immutable Graph.  The builder is left empty.
  [[nodiscard]] Graph build();

 private:
  std::size_t n_;
  std::vector<std::uint64_t> edges_;  // pack_edge-encoded
};

}  // namespace pslocal
