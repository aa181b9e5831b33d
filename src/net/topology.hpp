// Topology: the communication graph of §II.
//
// The paper's model section assumes a *symmetric* graph for ease of
// exposition and notes (§V, extension (a)) that the algorithms extend to
// asymmetric graphs. The graph here is therefore directed at the arc level:
// an arc u→v means a transmission by u can reach v. add_edge() inserts both
// arcs (the symmetric case); add_arc() inserts one. Reception and
// interference at a node are both governed by its *in*-arcs.
//
// Storage is flat: the insertion-ordered arc list plus, while building,
// one contiguous out-row per node in a shared pool (O(out-degree) scans
// for the duplicate check); finalize() turns the rows into sorted out-
// and in-CSR arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/types.hpp"
#include "util/check.hpp"

namespace m2hew::net {

class Topology {
 public:
  Topology() : Topology(0) {}
  explicit Topology(NodeId node_count);

  [[nodiscard]] NodeId node_count() const noexcept { return n_; }

  /// Number of undirected edges inserted via add_edge (symmetric pairs).
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  /// Number of directed arcs (add_edge contributes two).
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return arc_list_.size();
  }

  /// Adds both arcs u→v and v→u. Self-loops and duplicates are rejected.
  void add_edge(NodeId u, NodeId v);

  /// Adds the single arc u→v (asymmetric link). Rejects duplicates.
  void add_arc(NodeId u, NodeId v);

  /// Builds the sorted CSR adjacency; must be called after the last
  /// mutation and before neighbor and degree queries. Idempotent.
  void finalize();

  [[nodiscard]] bool has_arc(NodeId u, NodeId v) const;
  /// True iff both directions exist.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Nodes reachable by u's transmissions, sorted. Requires finalize().
  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId u) const;
  /// Nodes whose transmissions reach u, sorted. Requires finalize().
  [[nodiscard]] std::span<const NodeId> in_neighbors(NodeId u) const;
  /// Symmetric-graph convenience: alias for out_neighbors.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return out_neighbors(u);
  }

  /// The in-CSR (requires finalize()): the arcs into u are in_sources()
  /// [in_offsets()[u] .. in_offsets()[u + 1]), sources ascending.
  [[nodiscard]] std::span<const std::size_t> in_offsets() const noexcept {
    M2HEW_DCHECK(finalized_);
    return in_off_;
  }
  [[nodiscard]] std::span<const NodeId> in_sources() const noexcept {
    M2HEW_DCHECK(finalized_);
    return in_adj_;
  }

  /// The out-CSR (requires finalize()): the arcs out of u are out_targets()
  /// [out_offsets()[u] .. out_offsets()[u + 1]), targets ascending.
  [[nodiscard]] std::span<const std::size_t> out_offsets() const noexcept {
    M2HEW_DCHECK(finalized_);
    return out_off_;
  }
  [[nodiscard]] std::span<const NodeId> out_targets() const noexcept {
    M2HEW_DCHECK(finalized_);
    return out_adj_;
  }

  /// Degree queries require finalize().
  [[nodiscard]] std::size_t out_degree(NodeId u) const {
    return out_neighbors(u).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId u) const {
    return in_neighbors(u).size();
  }
  [[nodiscard]] std::size_t degree(NodeId u) const { return out_degree(u); }

  /// Maximum out-degree over all nodes.
  [[nodiscard]] std::size_t max_degree() const;

  /// All directed arcs as (from, to) pairs, in insertion order.
  [[nodiscard]] std::span<const std::pair<NodeId, NodeId>> arcs()
      const noexcept {
    return arc_list_;
  }

  /// All unordered pairs connected by at least one arc, each listed once as
  /// (min, max). Computed on demand.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// True iff the undirected view of the graph is connected (or empty).
  [[nodiscard]] bool is_connected() const;

  /// True iff every arc has its reverse (the paper's base model).
  [[nodiscard]] bool is_symmetric() const;

 private:
  /// Appends v to u's build-time row; a new or full row moves to the
  /// pool's end with room for max(kMinRow, 2 × length) targets.
  void append_to_row(NodeId u, NodeId v);

  static constexpr std::uint32_t kMinRow = 4;

  NodeId n_ = 0;
  std::vector<std::pair<NodeId, NodeId>> arc_list_;
  // Build-time out-rows: u's targets, in insertion order, are
  // pool_[row_off_[u] .. row_off_[u] + row_len_[u]). Released by
  // finalize().
  std::vector<NodeId> pool_;
  std::vector<std::size_t> row_off_;
  std::vector<std::uint32_t> row_len_;
  // Finalized CSR, both directions sorted ascending.
  std::vector<std::size_t> out_off_;
  std::vector<NodeId> out_adj_;
  std::vector<std::size_t> in_off_;
  std::vector<NodeId> in_adj_;
  std::size_t edges_ = 0;
  bool finalized_ = true;
};

}  // namespace m2hew::net
