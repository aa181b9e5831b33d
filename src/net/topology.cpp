#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace m2hew::net {

Topology::Topology(NodeId node_count)
    : n_(node_count),
      out_off_(static_cast<std::size_t>(node_count) + 1, 0),
      in_off_(static_cast<std::size_t>(node_count) + 1, 0) {}

void Topology::add_arc(NodeId u, NodeId v) {
  M2HEW_CHECK_MSG(u != v, "self-loop");
  M2HEW_CHECK(u < n_ && v < n_);
  M2HEW_CHECK_MSG(!has_arc(u, v), "duplicate arc");
  if (finalized_) {  // reopen: rebuild the rows finalize() released
    row_off_.assign(n_, 0);
    row_len_.assign(n_, 0);
    for (const auto& [from, to] : arc_list_) append_to_row(from, to);
    finalized_ = false;
  }
  append_to_row(u, v);
  arc_list_.emplace_back(u, v);
}

void Topology::append_to_row(NodeId u, NodeId v) {
  const std::uint32_t len = row_len_[u];
  if (len == 0 || (len >= kMinRow && std::has_single_bit(len))) {
    const std::size_t from = row_off_[u];
    row_off_[u] = pool_.size();
    pool_.resize(pool_.size() + std::max<std::size_t>(kMinRow, 2 * len));
    std::copy_n(pool_.data() + from, len, pool_.data() + row_off_[u]);
  }
  pool_[row_off_[u] + len] = v;
  row_len_[u] = len + 1;
}

void Topology::add_edge(NodeId u, NodeId v) {
  add_arc(u, v);
  add_arc(v, u);
  ++edges_;
}

void Topology::finalize() {
  if (finalized_) return;
  // Out-CSR: the build-time rows, each sorted. In-CSR: one stable
  // counting-sort scatter that walks the sources in ascending order, so
  // every in-row comes out sorted too.
  out_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
  in_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
  out_adj_.resize(arc_list_.size());
  for (NodeId u = 0; u < n_; ++u) {
    out_off_[u + 1] = out_off_[u] + row_len_[u];
    NodeId* const out = out_adj_.data() + out_off_[u];
    std::sort(out, std::copy_n(pool_.data() + row_off_[u], row_len_[u], out));
  }
  for (const auto& [u, v] : arc_list_) ++in_off_[v + 1];
  std::partial_sum(in_off_.begin(), in_off_.end(), in_off_.begin());
  in_adj_.resize(arc_list_.size());
  std::vector<std::size_t> cursor(in_off_.begin(), in_off_.end() - 1);
  for (NodeId u = 0; u < n_; ++u) {
    for (std::size_t a = out_off_[u]; a < out_off_[u + 1]; ++a) {
      in_adj_[cursor[out_adj_[a]]++] = u;
    }
  }
  std::vector<NodeId>().swap(pool_);
  std::vector<std::size_t>().swap(row_off_);
  std::vector<std::uint32_t>().swap(row_len_);
  finalized_ = true;
}

bool Topology::has_arc(NodeId u, NodeId v) const {
  M2HEW_CHECK(u < n_ && v < n_);
  if (finalized_) {
    const auto out = out_neighbors(u);
    return std::binary_search(out.begin(), out.end(), v);
  }
  const NodeId* const row = pool_.data() + row_off_[u];
  return std::find(row, row + row_len_[u], v) != row + row_len_[u];
}

bool Topology::has_edge(NodeId u, NodeId v) const {
  return has_arc(u, v) && has_arc(v, u);
}

std::span<const NodeId> Topology::out_neighbors(NodeId u) const {
  M2HEW_CHECK(u < n_);
  M2HEW_CHECK_MSG(finalized_, "neighbor query before finalize()");
  return {out_adj_.data() + out_off_[u], out_off_[u + 1] - out_off_[u]};
}

std::span<const NodeId> Topology::in_neighbors(NodeId u) const {
  M2HEW_CHECK(u < n_);
  M2HEW_CHECK_MSG(finalized_, "neighbor query before finalize()");
  return {in_adj_.data() + in_off_[u], in_off_[u + 1] - in_off_[u]};
}

std::size_t Topology::max_degree() const {
  M2HEW_CHECK_MSG(finalized_, "degree query before finalize()");
  std::size_t best = 0;
  for (NodeId u = 0; u < n_; ++u) {
    best = std::max(best, out_off_[u + 1] - out_off_[u]);
  }
  return best;
}

std::vector<std::pair<NodeId, NodeId>> Topology::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(arc_list_.size());
  for (const auto& [u, v] : arc_list_) {
    out.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Topology::is_connected() const {
  if (n_ <= 1) return true;
  // Union-find over the arc list: valid before and after finalize().
  std::vector<NodeId> parent(n_);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  auto root = [&parent](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  NodeId components = n_;
  for (const auto& [u, v] : arc_list_) {
    const NodeId a = root(u);
    const NodeId b = root(v);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components == 1;
}

bool Topology::is_symmetric() const {
  for (const auto& [u, v] : arc_list_) {
    if (!has_arc(v, u)) return false;
  }
  return true;
}

}  // namespace m2hew::net
