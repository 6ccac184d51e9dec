// Incremental hypergraph mutations and the epoch hash chain.
//
// A Mutation is one bounded edit of a hypergraph: append an edge, erase
// an edge, append an isolated vertex, or remove a vertex from every edge
// containing it.  A mutation *script* is an ordered list of mutations;
// the service layer (service/request.hpp, kind mutate_hypergraph) applies
// scripts against a base instance, and the dynamic conflict graph
// (core/dynamic_conflict_graph.hpp) patches G_k in place per step.
//
// Id semantics are chosen so deltas stay local and replayable:
//
//  * add_edge appends at id m (existing edge ids are stable);
//  * remove_edge erases id e, ids above e shift down by one;
//  * add_vertex appends isolated vertex n;
//  * remove_vertex is a *tombstone*: the vertex slot stays (n is
//    unchanged) but v disappears from every incident edge.  Edges left
//    empty are erased (ascending scan, ids shift as for remove_edge).
//
// Epoch chaining: a graph state is named by the hash chain
//   epoch_0 = hash_hypergraph(base)
//   epoch_{i+1} = advance_epoch(epoch_i, script[i])
//                = hash_combine(mix64(epoch_i), hash_mutation(script[i]))
// so the epoch after step i commits to the base content AND the entire
// mutation prefix in order.  Cache keys derived from an epoch are
// re-derivable by replaying the script — that is what lets
// SolverCache/ConflictGraphCache entries survive (and be invalidated)
// per mutation epoch without a coordination channel.  mix64 decorrelates
// successive chain links the way the shard ring decorrelates FNV
// digests (util/hash.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace pslocal {

enum class MutationOp : std::uint8_t {
  kAddEdge,       // append `vertices` as edge m
  kRemoveEdge,    // erase edge `edge`; later ids shift down
  kAddVertex,     // append isolated vertex n
  kRemoveVertex,  // tombstone vertices[0] out of every incident edge
};

/// Stable wire name ("add_edge", "remove_edge", "add_vertex",
/// "remove_vertex").
[[nodiscard]] const char* mutation_op_name(MutationOp op);

struct Mutation {
  MutationOp op = MutationOp::kAddEdge;
  EdgeId edge = 0;                 // kRemoveEdge target; 0 otherwise
  std::vector<VertexId> vertices;  // kAddEdge members; kRemoveVertex {v}

  [[nodiscard]] bool operator==(const Mutation&) const = default;

  [[nodiscard]] static Mutation add_edge(std::vector<VertexId> vs);
  [[nodiscard]] static Mutation remove_edge(EdgeId e);
  [[nodiscard]] static Mutation add_vertex();
  [[nodiscard]] static Mutation remove_vertex(VertexId v);
};

/// Check `mut` against a raw (n, edges) state.  nullopt = applicable;
/// otherwise a human-readable reason (used verbatim in service error
/// payloads and qc counterexample reports).
[[nodiscard]] std::optional<std::string> validate_mutation(
    std::size_t n, std::size_t edge_count, const Mutation& mut);
[[nodiscard]] inline std::optional<std::string> validate_mutation(
    std::size_t n, const std::vector<std::vector<VertexId>>& edges,
    const Mutation& mut) {
  return validate_mutation(n, edges.size(), mut);
}

/// The edge lists of h, i.e. the raw state the functions below mutate.
[[nodiscard]] std::vector<std::vector<VertexId>> edge_lists(
    const Hypergraph& h);

/// Apply `mut` in place to a raw (n, edges) state.  Edge vertex lists are
/// kept sorted (matching the Hypergraph constructor's canonical form).
/// PSL_CHECKs validate_mutation.
void apply_mutation(std::size_t& n, std::vector<std::vector<VertexId>>& edges,
                    const Mutation& mut);

/// Validate a whole script against h, simulating each prefix.  Returns
/// the first step's reason as "step i: <reason>", or nullopt.
[[nodiscard]] std::optional<std::string> validate_script(
    const Hypergraph& h, const std::vector<Mutation>& script);

/// Reference semantics: the hypergraph after applying the whole script.
/// PSL_CHECKs validity.  The dynamic conflict graph must agree with this
/// at every prefix (the repair-vs-recompute differential pins it).
[[nodiscard]] Hypergraph apply_script(const Hypergraph& h,
                                      const std::vector<Mutation>& script);

/// Canonical content hash of one mutation (op, edge, vertex list, all as
/// fixed-width words — one-field flips always change the digest).
[[nodiscard]] std::uint64_t hash_mutation(const Mutation& mut);

/// One link of the epoch chain (see header comment).
[[nodiscard]] std::uint64_t advance_epoch(std::uint64_t epoch,
                                          const Mutation& mut);

/// The full chain: chain[0] = base_epoch, chain[i+1] after script[i].
/// chain.size() == script.size() + 1.
[[nodiscard]] std::vector<std::uint64_t> epoch_chain(
    std::uint64_t base_epoch, const std::vector<Mutation>& script);

/// Canonical byte encoding of a script (count, then per mutation: op
/// byte, u64 edge, u64 vertex count, u64 per vertex — all little-endian
/// fixed width, the util/hash.hpp conventions).  Used both on the wire
/// (net/wire.cpp) and inside mutate cache keys.
[[nodiscard]] std::string encode_script(const std::vector<Mutation>& script);

/// Bounds-checked inverse of encode_script; nullopt on truncated, lying
/// or trailing bytes (the wire decoder's strictness rules).
[[nodiscard]] std::optional<std::vector<Mutation>> decode_script(
    std::string_view bytes);

/// Compact printable form: "add_edge{1,4,7}", "remove_edge(3)",
/// "add_vertex", "remove_vertex(2)".
[[nodiscard]] std::string describe(const Mutation& mut);

/// Whole-script form: "[add_edge{1,4} remove_edge(0)]".
[[nodiscard]] std::string describe(const std::vector<Mutation>& script);

}  // namespace pslocal
