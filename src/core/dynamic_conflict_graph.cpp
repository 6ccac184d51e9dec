#include "core/dynamic_conflict_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace pslocal {

namespace {

constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// Shared sentinel for triples with no neighbors; counts as "shared"
/// between any two graphs, which is exactly right for the memory probe.
const std::shared_ptr<const std::vector<TripleId>>& empty_row() {
  static const auto row = std::make_shared<const std::vector<TripleId>>();
  return row;
}

struct DeltaMetrics {
  obs::Counter applies{"dynamic_conflict_graph.applies"};
  obs::Counter triples_removed{"dynamic_conflict_graph.triples_removed"};
  obs::Counter triples_added{"dynamic_conflict_graph.triples_added"};
  obs::Counter gk_edges_removed{"dynamic_conflict_graph.gk_edges_removed"};
  obs::Counter gk_edges_added{"dynamic_conflict_graph.gk_edges_added"};
};

const DeltaMetrics& delta_metrics() {
  static DeltaMetrics m;
  return m;
}

}  // namespace

DynamicConflictGraph::DynamicConflictGraph(const Hypergraph& h, std::size_t k,
                                           runtime::Scheduler& sched)
    : DynamicConflictGraph(ConflictGraph(h, k, sched)) {}

DynamicConflictGraph::DynamicConflictGraph(const ConflictGraph& cg)
    : h_(cg.hypergraph()), k_(cg.k()) {
  rebuild_pair_offsets();
  const Graph& g = cg.graph();
  adj_.resize(g.vertex_count());
  for (TripleId t = 0; t < adj_.size(); ++t) {
    const auto nbrs = g.neighbors(static_cast<VertexId>(t));
    adj_[t] = nbrs.empty() ? empty_row()
                           : std::make_shared<const std::vector<TripleId>>(
                                 nbrs.begin(), nbrs.end());
  }
  gk_edges_ = g.edge_count();
}

void DynamicConflictGraph::rebuild_pair_offsets() {
  pair_offset_.assign(h_.edge_count() + 1, 0);
  for (EdgeId e = 0; e < h_.edge_count(); ++e)
    pair_offset_[e + 1] = pair_offset_[e] + h_.edge_size(e);
}

Triple DynamicConflictGraph::triple(TripleId t) const {
  PSL_EXPECTS(t < triple_count());
  const std::size_t pair = t / k_;
  const auto it = std::upper_bound(pair_offset_.begin(), pair_offset_.end(),
                                   pair);
  const EdgeId e = static_cast<EdgeId>(
      std::distance(pair_offset_.begin(), it) - 1);
  Triple out;
  out.e = e;
  out.v = h_.edge(e)[pair - pair_offset_[e]];
  out.c = t % k_ + 1;
  return out;
}

DynamicConflictGraph::Delta DynamicConflictGraph::apply(const Mutation& mut) {
  PSL_OBS_SPAN("conflict_graph.apply_delta");
  const std::size_t n = h_.vertex_count();
  const std::size_t old_m = h_.edge_count();
  const auto invalid = validate_mutation(n, old_m, mut);
  PSL_CHECK_MSG(!invalid.has_value(), "dynamic conflict graph: " << *invalid);
  delta_metrics().applies.add(1);

  Delta delta;
  const std::size_t old_triples = adj_.size();

  if (mut.op == MutationOp::kAddVertex) {
    h_ = Hypergraph(n + 1, edge_lists(h_));
    delta.remap.resize(old_triples);
    std::iota(delta.remap.begin(), delta.remap.end(), TripleId{0});
    return delta;
  }

  // Plan: which old blocks disappear, which new contents are fresh.
  std::vector<char> edge_touched(old_m, 0);  // old block removed
  std::vector<std::vector<VertexId>> replacement(old_m);
  std::vector<char> replaced(old_m, 0);
  std::vector<std::vector<VertexId>> appended;
  switch (mut.op) {
    case MutationOp::kAddEdge: {
      std::vector<VertexId> vs = mut.vertices;
      std::sort(vs.begin(), vs.end());
      appended.push_back(std::move(vs));
      break;
    }
    case MutationOp::kRemoveEdge:
      edge_touched[mut.edge] = 1;
      break;
    case MutationOp::kRemoveVertex: {
      const VertexId v = mut.vertices[0];
      for (const EdgeId e : h_.edges_of(v)) {
        edge_touched[e] = 1;
        if (h_.edge_size(e) > 1) {
          replaced[e] = 1;
          std::vector<VertexId> shrunk;
          shrunk.reserve(h_.edge_size(e) - 1);
          for (const VertexId u : h_.edge(e))
            if (u != v) shrunk.push_back(u);
          replacement[e] = std::move(shrunk);
        }
      }
      break;
    }
    case MutationOp::kAddVertex:
      break;  // handled above
  }

  // Removed triple set = the blocks of every touched old edge.
  std::vector<char> removed_flag(old_triples, 0);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (!edge_touched[e]) continue;
    for (std::size_t t = pair_offset_[e] * k_; t < pair_offset_[e + 1] * k_;
         ++t) {
      removed_flag[t] = 1;
      delta.removed.push_back(t);
    }
  }

  // Detach: count the G_k edges that die with the removed blocks, and
  // filter them out of every surviving neighbor's list.
  std::vector<TripleId> dirty_old;
  for (const TripleId t : delta.removed) {
    for (const TripleId nb : *adj_[t]) {
      if (removed_flag[nb]) {
        if (t < nb) ++delta.gk_edges_removed;
      } else {
        ++delta.gk_edges_removed;
        dirty_old.push_back(nb);
      }
    }
  }
  std::sort(dirty_old.begin(), dirty_old.end());
  dirty_old.erase(std::unique(dirty_old.begin(), dirty_old.end()),
                  dirty_old.end());
  for (const TripleId nb : dirty_old) {
    // Rows are immutable (shared COW); publish a filtered replacement.
    const std::vector<TripleId>& old_row = *adj_[nb];
    std::vector<TripleId> kept;
    kept.reserve(old_row.size());
    for (const TripleId x : old_row)
      if (!removed_flag[x]) kept.push_back(x);
    adj_[nb] = std::make_shared<const std::vector<TripleId>>(std::move(kept));
  }

  // New edge list: survivors keep relative order, replaced edges keep
  // their position with fresh content, appends go at the end.
  std::vector<std::vector<VertexId>> new_edges;
  new_edges.reserve(old_m + appended.size());
  std::vector<char> fresh;
  fresh.reserve(old_m + appended.size());
  std::vector<EdgeId> old_to_new(old_m, kNoEdge);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (edge_touched[e] && !replaced[e]) continue;  // deleted
    old_to_new[e] = static_cast<EdgeId>(new_edges.size());
    if (replaced[e]) {
      new_edges.push_back(std::move(replacement[e]));
      fresh.push_back(1);
    } else {
      const auto vs = h_.edge(e);
      new_edges.emplace_back(vs.begin(), vs.end());
      fresh.push_back(0);
    }
  }
  for (auto& vs : appended) {
    new_edges.push_back(std::move(vs));
    fresh.push_back(1);
  }

  const std::vector<std::size_t> old_offset = std::move(pair_offset_);
  h_ = Hypergraph(n, std::move(new_edges));
  rebuild_pair_offsets();

  const std::size_t new_triples = pair_offset_.back() * k_;
  PSL_EXPECTS_MSG(new_triples < (std::uint64_t{1} << 32),
                  "conflict graph too large for 32-bit triple ids");

  // Survivor remap: untouched blocks move en bloc (strictly increasing,
  // so remapped sorted lists stay sorted).
  delta.remap.assign(old_triples, kRemoved);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (edge_touched[e]) continue;
    const EdgeId ne = old_to_new[e];
    const std::size_t old_first = old_offset[e] * k_;
    const std::size_t new_first = pair_offset_[ne] * k_;
    const std::size_t count = (old_offset[e + 1] - old_offset[e]) * k_;
    for (std::size_t i = 0; i < count; ++i)
      delta.remap[old_first + i] = new_first + i;
  }

  std::vector<Row> new_adj(new_triples);
  for (TripleId t = 0; t < old_triples; ++t) {
    const TripleId nt = delta.remap[t];
    if (nt == kRemoved) continue;
    const std::vector<TripleId>& row = *adj_[t];
    // A row whose every neighbor keeps its id is content-unchanged under
    // the remap: keep sharing its storage instead of reallocating.  This
    // is what preserves structural sharing for mutations far from the
    // rows a stored session copy still points at.
    bool unchanged = true;
    for (const TripleId x : row) {
      if (delta.remap[x] != x) {
        unchanged = false;
        break;
      }
    }
    if (unchanged) {
      new_adj[nt] = std::move(adj_[t]);
      continue;
    }
    std::vector<TripleId> remapped;
    remapped.reserve(row.size());
    for (const TripleId x : row) remapped.push_back(delta.remap[x]);
    new_adj[nt] =
        std::make_shared<const std::vector<TripleId>>(std::move(remapped));
  }
  adj_ = std::move(new_adj);

  // Fresh blocks and their ball-local candidate enumeration.
  std::vector<std::uint64_t> candidates;
  for (EdgeId ne = 0; ne < h_.edge_count(); ++ne) {
    if (!fresh[ne]) continue;
    for (std::size_t t = pair_offset_[ne] * k_; t < pair_offset_[ne + 1] * k_;
         ++t)
      delta.added.push_back(t);
    append_block_neighbors(h_, k_, pair_offset_, ne, 0, candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  delta.gk_edges_added = candidates.size();

  // Scatter the new edges into the adjacency lists.  Every new pair has
  // a fresh endpoint and fresh ids are disjoint from survivor ids, so no
  // candidate can already be present — a sorted merge per source is
  // exact.
  std::vector<std::pair<TripleId, TripleId>> directed;
  directed.reserve(candidates.size() * 2);
  for (const std::uint64_t packed : candidates) {
    const auto a = static_cast<TripleId>(packed >> 32);
    const auto b = static_cast<TripleId>(packed & 0xffffffffULL);
    directed.emplace_back(a, b);
    directed.emplace_back(b, a);
  }
  std::sort(directed.begin(), directed.end());
  for (std::size_t i = 0; i < directed.size();) {
    const TripleId src = directed[i].first;
    std::size_t j = i;
    while (j < directed.size() && directed[j].first == src) ++j;
    // Fresh triples still hold a null Row here; treat it as empty.
    static const std::vector<TripleId> kNone;
    const std::vector<TripleId>& list =
        adj_[src] != nullptr ? *adj_[src] : kNone;
    std::vector<TripleId> merged;
    merged.reserve(list.size() + (j - i));
    std::size_t a = 0, b = i;
    while (a < list.size() && b < j) {
      if (list[a] < directed[b].second)
        merged.push_back(list[a++]);
      else
        merged.push_back(directed[b++].second);
    }
    while (a < list.size()) merged.push_back(list[a++]);
    while (b < j) merged.push_back(directed[b++].second);
    adj_[src] =
        std::make_shared<const std::vector<TripleId>>(std::move(merged));
    i = j;
  }
  for (Row& row : adj_) {
    if (row == nullptr) row = empty_row();  // fresh triple, no neighbors
  }
  gk_edges_ = gk_edges_ - delta.gk_edges_removed + delta.gk_edges_added;

  // Dirty region: fresh triples plus survivors whose lists changed.
  delta.dirty.reserve(dirty_old.size() + delta.added.size());
  for (const TripleId t : dirty_old) delta.dirty.push_back(delta.remap[t]);
  for (const TripleId src :
       [&directed] {
         std::vector<TripleId> srcs;
         for (const auto& [a, b] : directed) srcs.push_back(a);
         return srcs;
       }())
    delta.dirty.push_back(src);
  std::sort(delta.dirty.begin(), delta.dirty.end());
  delta.dirty.erase(std::unique(delta.dirty.begin(), delta.dirty.end()),
                    delta.dirty.end());

  delta_metrics().triples_removed.add(delta.removed.size());
  delta_metrics().triples_added.add(delta.added.size());
  delta_metrics().gk_edges_removed.add(delta.gk_edges_removed);
  delta_metrics().gk_edges_added.add(delta.gk_edges_added);
  return delta;
}

std::uint64_t DynamicConflictGraph::content_hash() const {
  return hash_hypergraph(h_);
}

Graph DynamicConflictGraph::snapshot(runtime::Scheduler& /*sched*/) const {
  std::vector<std::uint64_t> packed;
  packed.reserve(gk_edges_);
  for (TripleId t = 0; t < adj_.size(); ++t)
    for (const TripleId nb : *adj_[t])
      if (t < nb)
        packed.push_back(pack_edge(static_cast<VertexId>(t),
                                   static_cast<VertexId>(nb)));
  return Graph::from_packed_edges(adj_.size(), std::move(packed));
}

std::uint64_t DynamicConflictGraph::graph_hash() const {
  Fnv1a64 hash;
  hash.update_u64(adj_.size());
  for (const Row& list : adj_) {
    hash.update_u64(list->size());
    for (const TripleId nb : *list) hash.update_u64(nb);
  }
  return hash.digest();
}

std::size_t DynamicConflictGraph::shared_rows_with(
    const DynamicConflictGraph& other) const {
  const std::size_t common = std::min(adj_.size(), other.adj_.size());
  std::size_t shared = 0;
  for (std::size_t t = 0; t < common; ++t)
    if (adj_[t] != nullptr && adj_[t] == other.adj_[t]) ++shared;
  return shared;
}

}  // namespace pslocal
