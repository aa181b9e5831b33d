#include "net/network.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace m2hew::net {

Network::Network(Topology topology, std::vector<ChannelSet> assignment)
    : topology_(std::move(topology)), assignment_(std::move(assignment)) {
  build(nullptr);
}

Network::Network(Topology topology, std::vector<ChannelSet> assignment,
                 const PropagationFilter& propagation)
    : topology_(std::move(topology)), assignment_(std::move(assignment)) {
  M2HEW_CHECK_MSG(propagation != nullptr, "null propagation filter");
  build(&propagation);
}

void Network::build(const PropagationFilter* propagation) {
  topology_.finalize();
  const NodeId n = topology_.node_count();
  M2HEW_CHECK_MSG(assignment_.size() == n,
                  "assignment size must equal node count");
  M2HEW_CHECK(n > 0);

  universe_ = assignment_[0].universe_size();
  for (const auto& a : assignment_) {
    M2HEW_CHECK_MSG(a.universe_size() == universe_,
                    "all channel sets must share one universe");
    M2HEW_CHECK_MSG(!a.empty(), "node with empty available channel set");
    s_ = std::max(s_, a.size());
  }
  span_stride_ = ChannelSet::word_count(universe_);

  // Dense arc matrix for O(1) in_arc() on the sizes the engines sweep.
  const auto offsets = topology_.in_offsets();
  const auto sources = topology_.in_sources();
  if (n <= kDenseArcLimit) {
    arc_matrix_.assign(static_cast<std::size_t>(n) * n, -1);
    for (NodeId to = 0; to < n; ++to) {
      for (std::size_t arc = offsets[to]; arc < offsets[to + 1]; ++arc) {
        arc_matrix_[static_cast<std::size_t>(to) * n + sources[arc]] =
            static_cast<std::int32_t>(arc);
      }
    }
  }

  // Spans, discovery links, Δ(u, c) and ρ in arc insertion order — the
  // order links() reports and the propagation filter is consulted in —
  // with each span stored at its arc's in-CSR position.
  span_words_.assign(sources.size() * span_stride_, 0);
  degree_on_channel_.assign(static_cast<std::size_t>(n) * universe_, 0);
  for (const auto& [from, to] : topology_.arcs()) {
    std::uint64_t* const span = &span_words_[in_arc(from, to) * span_stride_];
    const auto a = assignment_[from].words();
    const auto b = assignment_[to].words();
    for (std::size_t w = 0; w < span_stride_; ++w) span[w] = a[w] & b[w];
    if (propagation != nullptr) {
      const ChannelSet mask = (*propagation)(from, to);
      M2HEW_CHECK_MSG(mask.universe_size() == universe_,
                      "propagation mask universe mismatch");
      const auto m = mask.words();
      for (std::size_t w = 0; w < span_stride_; ++w) span[w] &= m[w];
    }
    std::size_t size = 0;
    for (std::size_t w = 0; w < span_stride_; ++w) {
      size += static_cast<std::size_t>(std::popcount(span[w]));
      for (std::uint64_t bits = span[w]; bits != 0; bits &= bits - 1) {
        ++degree_on_channel_[static_cast<std::size_t>(to) * universe_ +
                             w * 64 +
                             static_cast<std::size_t>(std::countr_zero(bits))];
      }
    }
    if (size == 0) continue;
    links_.push_back({from, to});
    rho_ = std::min(rho_, static_cast<double>(size) /
                              static_cast<double>(assignment_[to].size()));
  }
  delta_ = *std::max_element(degree_on_channel_.begin(),
                             degree_on_channel_.end());
}

const ChannelSet& Network::available(NodeId u) const {
  M2HEW_CHECK(u < node_count());
  return assignment_[u];
}

ChannelSet Network::span(NodeId from, NodeId to) const {
  const std::size_t arc = arc_of(from, to);
  ChannelSet out(universe_);
  for (ChannelId c = 0; c < universe_; ++c) {
    if (carries(arc, c)) out.insert(c);
  }
  return out;
}

std::size_t Network::arc_of(NodeId from, NodeId to) const {
  M2HEW_CHECK(from < node_count() && to < node_count());
  const std::size_t arc = in_arc(from, to);
  M2HEW_CHECK_MSG(arc != kNoArc, "pair is not an arc of the network");
  return arc;
}

std::size_t Network::in_arc(NodeId from, NodeId to) const {
  M2HEW_DCHECK(from < node_count() && to < node_count());
  if (!arc_matrix_.empty()) {
    const std::int32_t arc =
        arc_matrix_[static_cast<std::size_t>(to) * node_count() + from];
    return arc < 0 ? kNoArc : static_cast<std::size_t>(arc);
  }
  const auto sources = topology_.in_sources();
  const auto offsets = topology_.in_offsets();
  const auto begin = sources.begin() + static_cast<std::ptrdiff_t>(offsets[to]);
  const auto end =
      sources.begin() + static_cast<std::ptrdiff_t>(offsets[to + 1]);
  const auto it = std::lower_bound(begin, end, from);
  return it != end && *it == from
             ? static_cast<std::size_t>(it - sources.begin())
             : kNoArc;
}

double Network::span_ratio(Link link) const {
  return static_cast<double>(span(link.from, link.to).size()) /
         static_cast<double>(assignment_[link.to].size());
}

std::size_t Network::degree_on_channel(NodeId u, ChannelId c) const {
  M2HEW_CHECK(u < node_count());
  M2HEW_CHECK(c < universe_);
  return degree_on_channel_[static_cast<std::size_t>(u) * universe_ + c];
}

}  // namespace m2hew::net
