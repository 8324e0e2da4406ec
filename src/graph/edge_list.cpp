#include "graph/edge_list.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace bpart::graph {

namespace {

/// Rejects an endpoint id that would wrap the vertex count: id + 1 must fit
/// in a VertexId, and kInvalidVertex itself is reserved as the sentinel.
/// Only called when `hi` grows the count, so the common path stays free.
void check_vertex_id(VertexId hi) {
  BPART_CHECK_MSG(hi < kInvalidVertex,
                  "vertex id " << hi << " exceeds the 32-bit id limit: ids "
                  "must be below kInvalidVertex = " << kInvalidVertex);
}

}  // namespace

EdgeList::EdgeList(std::vector<Edge> edges) : edges_(std::move(edges)) {
  if (edges_.empty()) return;
  VertexId hi = 0;
  for (const Edge& e : edges_) hi = std::max({hi, e.src, e.dst});
  check_vertex_id(hi);
  num_vertices_ = hi + 1;
}

void EdgeList::add(VertexId src, VertexId dst) {
  const VertexId hi = std::max(src, dst);
  if (hi >= num_vertices_) {
    check_vertex_id(hi);
    num_vertices_ = hi + 1;
  }
  edges_.push_back(Edge{src, dst});
}

void EdgeList::add_undirected(VertexId src, VertexId dst) {
  add(src, dst);
  edges_.push_back(Edge{dst, src});
}

void EdgeList::set_num_vertices(VertexId n) {
  for (const Edge& e : edges_)
    BPART_CHECK_MSG(e.src < n && e.dst < n,
                    "edge (" << e.src << "," << e.dst
                             << ") out of range for n=" << n);
  num_vertices_ = n;
}

std::size_t EdgeList::remove_self_loops() {
  const std::size_t before = edges_.size();
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return before - edges_.size();
}

std::size_t EdgeList::sort_and_dedup() {
  std::sort(edges_.begin(), edges_.end());
  const std::size_t before = edges_.size();
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return before - edges_.size();
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i)
    edges_.push_back(Edge{edges_[i].dst, edges_[i].src});
  sort_and_dedup();
}

bool EdgeList::is_symmetric() const {
  std::vector<Edge> sorted(edges_.begin(), edges_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const Edge& e : edges_) {
    if (!std::binary_search(sorted.begin(), sorted.end(),
                            Edge{e.dst, e.src}))
      return false;
  }
  return true;
}

std::vector<EdgeId> EdgeList::out_degrees() const {
  std::vector<EdgeId> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.src];
  return deg;
}

}  // namespace bpart::graph
