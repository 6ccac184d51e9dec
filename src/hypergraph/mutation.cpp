#include "hypergraph/mutation.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace pslocal {

std::vector<std::vector<VertexId>> edge_lists(const Hypergraph& h) {
  std::vector<std::vector<VertexId>> edges;
  edges.reserve(h.edge_count());
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto vs = h.edge(e);
    edges.emplace_back(vs.begin(), vs.end());
  }
  return edges;
}

const char* mutation_op_name(MutationOp op) {
  switch (op) {
    case MutationOp::kAddEdge: return "add_edge";
    case MutationOp::kRemoveEdge: return "remove_edge";
    case MutationOp::kAddVertex: return "add_vertex";
    case MutationOp::kRemoveVertex: return "remove_vertex";
  }
  return "unknown";
}

Mutation Mutation::add_edge(std::vector<VertexId> vs) {
  Mutation m;
  m.op = MutationOp::kAddEdge;
  m.vertices = std::move(vs);
  return m;
}

Mutation Mutation::remove_edge(EdgeId e) {
  Mutation m;
  m.op = MutationOp::kRemoveEdge;
  m.edge = e;
  return m;
}

Mutation Mutation::add_vertex() {
  Mutation m;
  m.op = MutationOp::kAddVertex;
  return m;
}

Mutation Mutation::remove_vertex(VertexId v) {
  Mutation m;
  m.op = MutationOp::kRemoveVertex;
  m.vertices = {v};
  return m;
}

std::optional<std::string> validate_mutation(std::size_t n,
                                             std::size_t edge_count,
                                             const Mutation& mut) {
  switch (mut.op) {
    case MutationOp::kAddEdge: {
      if (mut.vertices.empty()) return "add_edge: empty vertex list";
      for (const VertexId v : mut.vertices)
        if (v >= n) {
          std::ostringstream os;
          os << "add_edge: vertex " << v << " out of range (n=" << n << ")";
          return os.str();
        }
      std::vector<VertexId> sorted = mut.vertices;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        return "add_edge: duplicate vertex";
      return std::nullopt;
    }
    case MutationOp::kRemoveEdge: {
      if (mut.edge >= edge_count) {
        std::ostringstream os;
        os << "remove_edge: edge " << mut.edge << " out of range (m="
           << edge_count << ")";
        return os.str();
      }
      return std::nullopt;
    }
    case MutationOp::kAddVertex:
      return std::nullopt;
    case MutationOp::kRemoveVertex: {
      if (mut.vertices.size() != 1)
        return "remove_vertex: expects exactly one vertex";
      if (mut.vertices[0] >= n) {
        std::ostringstream os;
        os << "remove_vertex: vertex " << mut.vertices[0]
           << " out of range (n=" << n << ")";
        return os.str();
      }
      return std::nullopt;
    }
  }
  return "unknown mutation op";
}

void apply_mutation(std::size_t& n, std::vector<std::vector<VertexId>>& edges,
                    const Mutation& mut) {
  const auto invalid = validate_mutation(n, edges, mut);
  PSL_CHECK_MSG(!invalid.has_value(), "mutation: " << *invalid);
  switch (mut.op) {
    case MutationOp::kAddEdge: {
      std::vector<VertexId> vs = mut.vertices;
      std::sort(vs.begin(), vs.end());
      edges.push_back(std::move(vs));
      break;
    }
    case MutationOp::kRemoveEdge:
      edges.erase(edges.begin() + mut.edge);
      break;
    case MutationOp::kAddVertex:
      ++n;
      break;
    case MutationOp::kRemoveVertex: {
      const VertexId v = mut.vertices[0];
      for (auto it = edges.begin(); it != edges.end();) {
        auto& edge = *it;
        const auto pos = std::lower_bound(edge.begin(), edge.end(), v);
        if (pos != edge.end() && *pos == v) {
          edge.erase(pos);
          if (edge.empty()) {
            it = edges.erase(it);
            continue;
          }
        }
        ++it;
      }
      break;
    }
  }
}

std::optional<std::string> validate_script(const Hypergraph& h,
                                           const std::vector<Mutation>& script) {
  std::size_t n = h.vertex_count();
  auto edges = edge_lists(h);
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (const auto why = validate_mutation(n, edges, script[i])) {
      std::ostringstream os;
      os << "step " << i << ": " << *why;
      return os.str();
    }
    apply_mutation(n, edges, script[i]);
  }
  return std::nullopt;
}

Hypergraph apply_script(const Hypergraph& h,
                        const std::vector<Mutation>& script) {
  std::size_t n = h.vertex_count();
  auto edges = edge_lists(h);
  for (const Mutation& mut : script) apply_mutation(n, edges, mut);
  return Hypergraph(n, std::move(edges));
}

std::uint64_t hash_mutation(const Mutation& mut) {
  Fnv1a64 h;
  h.update_u64(static_cast<std::uint64_t>(mut.op));
  h.update_u64(mut.edge);
  h.update_u64(mut.vertices.size());
  for (const VertexId v : mut.vertices) h.update_u64(v);
  return h.digest();
}

std::uint64_t advance_epoch(std::uint64_t epoch, const Mutation& mut) {
  return hash_combine(mix64(epoch), hash_mutation(mut));
}

std::vector<std::uint64_t> epoch_chain(std::uint64_t base_epoch,
                                       const std::vector<Mutation>& script) {
  std::vector<std::uint64_t> chain;
  chain.reserve(script.size() + 1);
  chain.push_back(base_epoch);
  for (const Mutation& mut : script)
    chain.push_back(advance_epoch(chain.back(), mut));
  return chain;
}

std::string encode_script(const std::vector<Mutation>& script) {
  std::string out;
  const auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
  };
  put_u64(script.size());
  for (const Mutation& mut : script) {
    out += static_cast<char>(mut.op);
    put_u64(mut.edge);
    put_u64(mut.vertices.size());
    for (const VertexId v : mut.vertices) put_u64(v);
  }
  return out;
}

std::optional<std::vector<Mutation>> decode_script(std::string_view bytes) {
  std::size_t pos = 0;
  const auto read_u64 = [&](std::uint64_t& v) {
    if (bytes.size() - pos < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos += 8;
    return true;
  };
  std::uint64_t count = 0;
  if (!read_u64(count)) return std::nullopt;
  // Every mutation costs at least 17 bytes (op + edge + count words); a
  // lying count fails before any allocation.
  if (count > (bytes.size() - pos) / 17) return std::nullopt;
  std::vector<Mutation> script;
  script.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    if (pos >= bytes.size()) return std::nullopt;
    const auto op = static_cast<std::uint8_t>(bytes[pos++]);
    if (op > static_cast<std::uint8_t>(MutationOp::kRemoveVertex))
      return std::nullopt;
    Mutation mut;
    mut.op = static_cast<MutationOp>(op);
    std::uint64_t edge = 0, nverts = 0;
    if (!read_u64(edge) || !read_u64(nverts)) return std::nullopt;
    if (edge > std::numeric_limits<EdgeId>::max()) return std::nullopt;
    mut.edge = static_cast<EdgeId>(edge);
    if (nverts > (bytes.size() - pos) / 8) return std::nullopt;
    mut.vertices.reserve(static_cast<std::size_t>(nverts));
    for (std::uint64_t v = 0; v < nverts; ++v) {
      std::uint64_t word = 0;
      if (!read_u64(word)) return std::nullopt;
      if (word > std::numeric_limits<VertexId>::max()) return std::nullopt;
      mut.vertices.push_back(static_cast<VertexId>(word));
    }
    script.push_back(std::move(mut));
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing bytes
  return script;
}

std::string describe(const Mutation& mut) {
  std::ostringstream os;
  os << mutation_op_name(mut.op);
  switch (mut.op) {
    case MutationOp::kAddEdge: {
      os << '{';
      for (std::size_t i = 0; i < mut.vertices.size(); ++i)
        os << (i ? "," : "") << mut.vertices[i];
      os << '}';
      break;
    }
    case MutationOp::kRemoveEdge:
      os << '(' << mut.edge << ')';
      break;
    case MutationOp::kAddVertex:
      break;
    case MutationOp::kRemoveVertex:
      os << '(' << (mut.vertices.empty() ? 0 : mut.vertices[0]) << ')';
      break;
  }
  return os.str();
}

std::string describe(const std::vector<Mutation>& script) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < script.size(); ++i)
    os << (i ? " " : "") << describe(script[i]);
  os << ']';
  return os.str();
}

}  // namespace pslocal
