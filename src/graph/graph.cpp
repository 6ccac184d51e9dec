#include "graph/graph.hpp"

#include <algorithm>

#include "runtime/parallel.hpp"

namespace pslocal {

Graph Graph::from_packed_edges(std::size_t n,
                               std::vector<std::uint64_t>&& packed,
                               runtime::Scheduler& sched) {
  runtime::parallel_sort(sched, packed);
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());

  Graph g;
  g.offsets_.assign(n + 1, 0);
  for (const std::uint64_t pe : packed) {
    const auto u = static_cast<VertexId>(pe >> 32);
    const auto v = static_cast<VertexId>(pe & 0xffffffffULL);
    PSL_EXPECTS_MSG(u < v && v < n,
                    "packed edge {" << u << "," << v << "} invalid for n=" << n);
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.neighbors_.resize(packed.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // Scanning edges in (u, v) order fills every CSR row ascending: row x
  // first receives the u's of edges (u, x) in increasing u (< x), then
  // the v's of edges (x, v) in increasing v (> x).  No per-row sort.
  for (const std::uint64_t pe : packed) {
    const auto u = static_cast<VertexId>(pe >> 32);
    const auto v = static_cast<VertexId>(pe & 0xffffffffULL);
    g.neighbors_[cursor[u]++] = v;
    g.neighbors_[cursor[v]++] = u;
  }
  return g;
}

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<VertexId, VertexId>>& edges,
                        bool dedup) {
  GraphBuilder b(n);
  for (auto [u, v] : edges) {
    if (dedup && u == v) continue;
    PSL_EXPECTS_MSG(u != v, "self-loop " << u);
    b.add_edge(u, v);
  }
  Graph g = b.build();
  if (!dedup) {
    PSL_CHECK_MSG(g.edge_count() == edges.size(),
                  "duplicate edges in input edge list");
  }
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (VertexId v = 0; v < vertex_count(); ++v) d = std::max(d, degree(v));
  return d;
}

double Graph::average_degree() const {
  if (vertex_count() == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) /
         static_cast<double>(vertex_count());
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  PSL_EXPECTS(u < vertex_count() && v < vertex_count());
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(edge_count());
  for (VertexId u = 0; u < vertex_count(); ++u)
    for (VertexId v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  PSL_EXPECTS_MSG(u < n_ && v < n_,
                  "edge {" << u << "," << v << "} out of range n=" << n_);
  if (u == v) return;
  edges_.push_back(pack_edge(u, v));
}

Graph GraphBuilder::build() {
  runtime::SequentialScheduler sequential;
  Graph g = Graph::from_packed_edges(n_, std::move(edges_), sequential);
  edges_.clear();  // moved-from: make "left empty" explicit
  return g;
}

}  // namespace pslocal
