// Property test of Network's flat layout: for randomized inputs across
// every topology family, the CSR-ordered span table and the derived
// parameters must equal a brute-force oracle built from ChannelSet algebra
// over the arc list.
//
//   span(v, u)  = A(v) ∩ A(u) ∩ mask(v, u)
//   links()     = arcs() with a non-empty span, in insertion order
//   in_links(u) = sources of the arcs into u, ascending
//   Δ(u, c), Δ and ρ compared bit for bit
//
// A pinned hash of the bucketed unit-disk arc list also fixes the arc
// insertion order every downstream stream (links(), loss draws, coverage
// order) inherits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/channel_assign.hpp"
#include "net/network.hpp"
#include "net/propagation.hpp"
#include "net/topology_gen.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace m2hew::net {
namespace {

struct Case {
  Topology topology;
  ChannelAssignment assignment;
  std::optional<PropagationFilter> propagation;
};

void expect_matches_oracle(const Case& input, const Network& net) {
  const Topology& t = input.topology;
  const NodeId n = t.node_count();
  const ChannelId universe = input.assignment[0].universe_size();
  ASSERT_EQ(net.node_count(), n);
  ASSERT_EQ(net.universe_size(), universe);
  ASSERT_EQ(net.span_stride(), ChannelSet::word_count(universe));
  const auto arcs = t.arcs();
  ASSERT_TRUE(std::equal(arcs.begin(), arcs.end(),
                         net.topology().arcs().begin(),
                         net.topology().arcs().end()));

  std::vector<Link> links;
  std::vector<std::vector<NodeId>> in(n);
  std::vector<std::vector<std::size_t>> delta(
      n, std::vector<std::size_t>(universe, 0));
  double rho = 1.0;
  for (const auto& [from, to] : arcs) {
    ChannelSet span = input.assignment[from].intersect(input.assignment[to]);
    if (input.propagation) {
      span = span.intersect((*input.propagation)(from, to));
    }
    in[to].push_back(from);

    ASSERT_EQ(net.span(from, to), span) << from << "->" << to;
    const std::size_t arc = net.in_arc(from, to);
    ASSERT_NE(arc, Network::kNoArc);
    ASSERT_GE(arc, net.topology().in_offsets()[to]);
    ASSERT_LT(arc, net.topology().in_offsets()[to + 1]);
    ASSERT_EQ(net.topology().in_sources()[arc], from);
    const auto words = net.span_words().subspan(arc * net.span_stride(),
                                                net.span_stride());
    ASSERT_TRUE(std::equal(words.begin(), words.end(),
                           span.words().begin(), span.words().end()));
    for (ChannelId c = 0; c < universe; ++c) {
      ASSERT_EQ(net.carries(arc, c), span.contains(c));
      if (span.contains(c)) ++delta[to][c];
    }
    if (span.empty()) continue;
    links.push_back({from, to});
    rho = std::min(rho, static_cast<double>(span.size()) /
                            static_cast<double>(input.assignment[to].size()));
  }

  ASSERT_TRUE(std::equal(links.begin(), links.end(), net.links().begin(),
                         net.links().end()));
  std::size_t max_delta = 0;
  const auto offsets = net.topology().in_offsets();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(offsets[n], arcs.size());
  for (NodeId u = 0; u < n; ++u) {
    std::sort(in[u].begin(), in[u].end());
    const auto got = net.in_links(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), in[u].begin(),
                           in[u].end()))
        << "in-links of " << u;
    ASSERT_EQ(offsets[u + 1] - offsets[u], in[u].size());
    for (ChannelId c = 0; c < universe; ++c) {
      ASSERT_EQ(net.degree_on_channel(u, c), delta[u][c]);
      max_delta = std::max(max_delta, delta[u][c]);
    }
  }
  EXPECT_EQ(net.max_channel_degree(), max_delta);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(net.min_span_ratio()),
            std::bit_cast<std::uint64_t>(rho));

  // Sampled non-arcs resolve to kNoArc.
  util::Rng rng(n * 31ULL + arcs.size());
  for (int k = 0; k < 200; ++k) {
    const auto from = static_cast<NodeId>(rng.uniform(n));
    const auto to = static_cast<NodeId>(rng.uniform(n));
    if (from == to || t.has_arc(from, to)) continue;
    EXPECT_EQ(net.in_arc(from, to), Network::kNoArc) << from << "->" << to;
  }
}

[[nodiscard]] Topology unit_disk(NodeId n, util::Rng& rng) {
  return make_unit_disk_bucketed(n, std::sqrt(static_cast<double>(n)), 1.382,
                                 rng)
      .topology;
}

[[nodiscard]] std::vector<Case> cases(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Case> out;
  // Above kDenseArcLimit, so in_arc() takes the binary-search path.
  Topology ud = unit_disk(1500, rng);
  out.push_back({ud, uniform_random_assignment(1500, 8, 4, rng), {}});
  Topology er = make_erdos_renyi_sparse(600, 0.01, rng);
  out.push_back(
      {er, variable_size_random_assignment(600, 10, 1, 6, rng), {}});
  out.push_back({er, variable_size_random_assignment(600, 10, 1, 6, rng),
                 random_propagation_filter(10, 0.6, seed)});
  out.push_back({make_watts_strogatz(300, 6, 0.3, rng),
                 uniform_random_assignment(300, 6, 3, rng), {}});
  out.push_back({make_barabasi_albert(300, 3, rng),
                 uniform_random_assignment(300, 5, 2, rng), {}});
  Topology small_ud = unit_disk(400, rng);
  out.push_back({make_asymmetric(small_ud, 0.4, rng),
                 uniform_random_assignment(400, 6, 3, rng), {}});
  // A 3-word stride and a single-channel universe.
  out.push_back({small_ud, uniform_random_assignment(400, 130, 40, rng), {}});
  out.push_back({ud, homogeneous_assignment(1500, 1, 1), {}});
  return out;
}

class NetworkLayout : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkLayout, MatchesBruteForceOracle) {
  for (const Case& input : cases(GetParam())) {
    const Network net =
        input.propagation
            ? Network(input.topology, input.assignment, *input.propagation)
            : Network(input.topology, input.assignment);
    expect_matches_oracle(input, net);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkLayout,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// The bucketed unit-disk generator's arc insertion order is part of every
// downstream stream's identity; this hash was recorded before the flat
// CSR layout replaced the per-node bucket vectors and must not change.
TEST(NetworkLayoutPin, UnitDiskArcOrderIsStable) {
  const NodeId n = 3000;
  const double side = std::sqrt(3000.0);
  util::Rng rng(20110620);
  std::vector<Point> positions;
  for (NodeId i = 0; i < n; ++i) {
    positions.push_back(
        {rng.uniform_double(0.0, side), rng.uniform_double(0.0, side)});
  }
  const Topology t = unit_disk_topology(positions, side, 1.382);
  std::string bytes;
  for (const auto& [a, b] : t.arcs()) {
    for (const NodeId x : {a, b}) {
      for (int k = 0; k < 4; ++k) {
        bytes.push_back(static_cast<char>((x >> (8 * k)) & 0xff));
      }
    }
  }
  EXPECT_EQ(t.arc_count(), 17464u);
  EXPECT_EQ(util::fnv1a64(bytes), 0xa3e996c28b8db354ULL);
}

// The out-CSR (what the SoA kernel's transmitter push walks) is the exact
// transpose of the in-CSR: flattening either one and sorting by (from, to)
// yields the same arc list, and each side's rows agree with the arc list.
void expect_out_csr_is_transpose(const Topology& t) {
  const NodeId n = t.node_count();
  const auto out_off = t.out_offsets();
  const auto out_dst = t.out_targets();
  const auto in_off = t.in_offsets();
  const auto in_src = t.in_sources();
  ASSERT_EQ(out_off.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(out_off[0], 0u);
  ASSERT_EQ(out_off[n], t.arc_count());
  ASSERT_EQ(out_dst.size(), t.arc_count());

  std::vector<std::pair<NodeId, NodeId>> from_out;
  std::vector<std::pair<NodeId, NodeId>> from_in;
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_LE(out_off[u], out_off[u + 1]);
    const auto row = out_dst.subspan(out_off[u], out_off[u + 1] - out_off[u]);
    ASSERT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<>()) == row.end())
        << "out-row of " << u << " not strictly ascending";
    const auto neighbors = t.out_neighbors(u);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), neighbors.begin(),
                           neighbors.end()));
    for (const NodeId v : row) from_out.emplace_back(u, v);
    for (std::size_t arc = in_off[u]; arc < in_off[u + 1]; ++arc) {
      from_in.emplace_back(in_src[arc], u);
    }
  }
  std::sort(from_in.begin(), from_in.end());
  std::vector<std::pair<NodeId, NodeId>> arcs(t.arcs().begin(),
                                              t.arcs().end());
  std::sort(arcs.begin(), arcs.end());
  EXPECT_EQ(from_out, arcs);  // already (from, to)-sorted by construction
  EXPECT_EQ(from_in, arcs);
}

TEST(TopologyCsr, OutCsrIsExactTransposeOfInCsr) {
  util::Rng rng(14);
  const Topology symmetric = unit_disk(500, rng);
  ASSERT_TRUE(symmetric.is_symmetric());
  expect_out_csr_is_transpose(symmetric);

  const Topology asymmetric = make_asymmetric(symmetric, 0.4, rng);
  ASSERT_FALSE(asymmetric.is_symmetric());
  expect_out_csr_is_transpose(asymmetric);

  // Isolated nodes at both ends and in the middle: empty rows on both
  // sides, including the first and the last offset.
  Topology isolated(12);
  isolated.add_edge(1, 4);
  isolated.add_arc(2, 9);
  isolated.add_arc(9, 3);
  isolated.add_edge(3, 10);
  isolated.finalize();
  for (const NodeId u : {NodeId{0}, NodeId{5}, NodeId{11}}) {
    ASSERT_EQ(isolated.out_degree(u), 0u);
    ASSERT_EQ(isolated.in_degree(u), 0u);
  }
  expect_out_csr_is_transpose(isolated);
}

// Mutating a finalized topology reopens it, and the next finalize()
// rebuilds sorted CSR rows over all arcs.
TEST(TopologyReopen, RebuildsSortedRows) {
  Topology t(4);
  t.add_edge(0, 2);
  t.finalize();
  t.add_arc(3, 2);
  EXPECT_TRUE(t.has_arc(0, 2));
  EXPECT_TRUE(t.has_arc(3, 2));
  t.add_edge(1, 2);
  t.finalize();
  const auto in2 = t.in_neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(in2.begin(), in2.end()),
            (std::vector<NodeId>{0, 1, 3}));
  const auto out2 = t.out_neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(out2.begin(), out2.end()),
            (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(t.arc_count(), 5u);
  EXPECT_EQ(t.in_offsets()[4], 5u);
}

// Duplicates are still caught against arcs added before finalize().
TEST(TopologyReopenDeath, DuplicateOfFinalizedArcAborts) {
  Topology t(3);
  t.add_edge(0, 2);
  t.finalize();
  t.add_arc(1, 2);
  EXPECT_DEATH(t.add_arc(2, 0), "CHECK failed");
}

}  // namespace
}  // namespace m2hew::net
