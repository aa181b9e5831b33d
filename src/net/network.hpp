// Network: the full M²HeW model of §II — a communication graph together
// with per-node available channel sets, plus all derived parameters the
// paper's analysis uses:
//
//   N          node count
//   S          max |A(u)|
//   span(v,u)  channels on which the arc v→u can actually carry a message:
//              A(v) ∩ A(u), further intersected with the propagation
//              filter for (v,u) when one is supplied (§V extension (c) —
//              diverse propagation characteristics)
//   Δ(u,c)     number of in-neighbors of u whose arc to u carries c
//   Δ          max over u, c of Δ(u,c)
//   span-ratio |span(v,u)| / |A(u)| for the directed link (v, u)
//   ρ          min span-ratio over all discovery links
//
// A *discovery link* (v, u) exists iff the arc v→u exists and span(v, u)
// is non-empty; the discovery ground truth is exactly the set of discovery
// links (u must learn ⟨v, span⟩ for each). On a symmetric graph with no
// propagation filter this reduces to the paper's base model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/channel_set.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"

namespace m2hew::net {

/// Optional per-arc channel usability mask (§V extension (c)): returns the
/// set of channels (over the network universe) on which a transmission
/// from `from` physically propagates to `to`. Must be deterministic.
using PropagationFilter =
    std::function<ChannelSet(NodeId from, NodeId to)>;

class Network {
 public:
  /// Base model: every arc propagates on every channel.
  Network(Topology topology, std::vector<ChannelSet> assignment);

  /// Diverse-propagation model: spans are additionally intersected with
  /// `propagation(from, to)` per arc.
  Network(Topology topology, std::vector<ChannelSet> assignment,
          const PropagationFilter& propagation);

  [[nodiscard]] NodeId node_count() const noexcept {
    return topology_.node_count();
  }
  [[nodiscard]] ChannelId universe_size() const noexcept { return universe_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const ChannelSet& available(NodeId u) const;

  /// Directed discovery links (ground truth for neighbor discovery), in
  /// topology().arcs() order.
  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }

  /// span(from, to); requires the arc from→to to exist. Cold: hot loops
  /// probe carries() instead.
  [[nodiscard]] ChannelSet span(NodeId from, NodeId to) const;

  /// Sources of u's incoming arcs (including empty-span ones), ascending.
  [[nodiscard]] std::span<const NodeId> in_links(NodeId u) const {
    return topology_.in_neighbors(u);
  }

  static constexpr std::size_t kNoArc = SIZE_MAX;
  /// Position ("arc") of the arc from→to in topology()'s in-CSR, or
  /// kNoArc; it indexes the span table and every per-arc array a
  /// simulator keeps in the same order. O(1) through a dense arc matrix
  /// when node_count() <= kDenseArcLimit, O(log indeg(to)) otherwise. The
  /// slot engine probes it once per listening radio a single transmitter
  /// reached; the async engine's candidate filter and the per-arc
  /// coverage and fault lookups are its other users.
  [[nodiscard]] std::size_t in_arc(NodeId from, NodeId to) const;
  /// in_arc() of a pair that must be an arc (CHECK-fails otherwise).
  [[nodiscard]] std::size_t arc_of(NodeId from, NodeId to) const;

  /// True iff the arc at position `arc` carries channel c: one word probe.
  [[nodiscard]] bool carries(std::size_t arc, ChannelId c) const noexcept {
    return (span_words_[arc * span_stride_ + (c >> 6)] >> (c & 63)) & 1;
  }
  /// The flat span table: span_stride() words per arc position.
  [[nodiscard]] std::span<const std::uint64_t> span_words() const noexcept {
    return span_words_;
  }
  [[nodiscard]] std::size_t span_stride() const noexcept {
    return span_stride_;
  }

  /// Largest node count for which the dense arc matrix (4 MiB of int32 at
  /// the limit) makes in_arc() one load at the sizes the engines sweep.
  static constexpr std::size_t kDenseArcLimit = 1024;

  /// |span(from, to)| / |A(to)| for a discovery link.
  [[nodiscard]] double span_ratio(Link link) const;

  /// Δ(u, c): in-neighbors of u on channel c; zero if c ∉ A(u).
  [[nodiscard]] std::size_t degree_on_channel(NodeId u, ChannelId c) const;

  // Derived scalar parameters (computed once at construction).
  [[nodiscard]] std::size_t max_channel_set_size() const noexcept {
    return s_;
  }  ///< S
  [[nodiscard]] std::size_t max_channel_degree() const noexcept {
    return delta_;
  }  ///< Δ
  [[nodiscard]] double min_span_ratio() const noexcept { return rho_; }  ///< ρ

  /// True iff every arc supports at least one usable channel (i.e. the
  /// communication graph equals the discovery graph).
  [[nodiscard]] bool all_edges_usable() const noexcept {
    return links_.size() == topology_.arc_count();
  }

 private:
  void build(const PropagationFilter* propagation);

  Topology topology_;
  std::vector<ChannelSet> assignment_;
  ChannelId universe_ = 0;
  std::size_t span_stride_ = 0;  // ChannelSet::word_count(universe_)

  std::vector<std::uint64_t> span_words_;  // per arc position
  // (to, from) -> arc position, -1 = none; up to kDenseArcLimit nodes.
  std::vector<std::int32_t> arc_matrix_;
  std::vector<Link> links_;
  std::vector<std::uint32_t> degree_on_channel_;  // Δ(u, c) at u·U + c

  std::size_t s_ = 0;
  std::size_t delta_ = 0;
  double rho_ = 1.0;
};

}  // namespace m2hew::net
