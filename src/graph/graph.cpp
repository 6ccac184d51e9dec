#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

namespace pslocal {

namespace {

/// Checks every packed edge against n (u < v < n), then sorts them
/// ascending with a stable LSD counting sort.  Only the low
/// b = ceil(log2 n) bits of an endpoint can be set, so the passes cover
/// v's b bits, then u's, in digits of at most 16 bits.
void validate_and_sort(std::size_t n, std::vector<std::uint64_t>& packed) {
  constexpr unsigned kMaxDigitBits = 16;
  const auto b =
      std::clamp(static_cast<unsigned>(std::bit_width(n - 1)), 1u, 32u);
  const unsigned digits_per_field = (b + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned width = (b + digits_per_field - 1) / digits_per_field;
  const std::size_t radix = std::size_t{1} << width;
  std::vector<unsigned> shifts;  // least significant digit first
  for (const unsigned field : {0u, 32u})
    for (unsigned d = 0; d < digits_per_field; ++d)
      shifts.push_back(field + d * width);
  const auto digit = [radix](std::uint64_t pe, unsigned shift) {
    return static_cast<std::size_t>(pe >> shift) & (radix - 1);
  };
  // Clearing and summing the counters costs about as much as sorting
  // radix / 16 keys with std::sort, so smaller inputs take std::sort.
  const std::size_t size = packed.size();
  const bool radix_sort = size >= radix / 16;

  // One read validates every edge — before any digit indexes a counter —
  // and counts the digits of every pass.
  std::vector<std::size_t> count(radix_sort ? shifts.size() * radix : 0);
  for (const std::uint64_t pe : packed) {
    const auto u = static_cast<VertexId>(pe >> 32);
    const auto v = static_cast<VertexId>(pe & 0xffffffffULL);
    PSL_EXPECTS_MSG(u < v && v < n,
                    "packed edge {" << u << "," << v << "} invalid for n=" << n);
    if (radix_sort)
      for (std::size_t pass = 0; pass < shifts.size(); ++pass)
        ++count[pass * radix + digit(pe, shifts[pass])];
  }
  if (!radix_sort) {
    std::sort(packed.begin(), packed.end());
    return;
  }

  auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(size);
  std::uint64_t* src = packed.data();
  std::uint64_t* dst = scratch.get();
  for (std::size_t pass = 0; pass < shifts.size(); ++pass) {
    const unsigned shift = shifts[pass];
    std::size_t* bucket = count.data() + pass * radix;
    std::size_t sum = 0;
    for (std::size_t i = 0; i < radix; ++i)
      sum += std::exchange(bucket[i], sum);
    for (std::size_t i = 0; i < size; ++i)
      dst[bucket[digit(src[i], shift)]++] = src[i];
    std::swap(src, dst);
  }
  // Both fields have the same digit count, so the passes are even in
  // number and the sorted keys end in `packed`.
}

}  // namespace

Graph Graph::from_packed_edges(std::size_t n,
                               std::vector<std::uint64_t>&& packed) {
  // Returns before the CSR arrays are allocated, so the sort's scratch
  // buffer is never live at the same time as them.
  validate_and_sort(n, packed);
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());

  Graph g;
  g.offsets_.assign(n + 1, 0);
  for (const std::uint64_t pe : packed) {
    ++g.offsets_[(pe >> 32) + 1];
    ++g.offsets_[(pe & 0xffffffffULL) + 1];
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
  Graph g = Graph::from_packed_edges(n_, std::move(edges_));
  edges_.clear();  // moved-from: make "left empty" explicit
  return g;
}

}  // namespace pslocal
