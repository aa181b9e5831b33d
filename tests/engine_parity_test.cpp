// Engine-parity property test: multi-radio Algorithm 3 restricted to one
// radio per node IS Algorithm 3.
//
// There is one slotted engine; a SyncPolicy runs on it as a one-radio
// MultiRadioPolicy. The one contract left with two implementations is the
// policy pair: core::make_multi_radio_alg3(1, Δ) and core::make_algorithm3(Δ)
// must be *bit-identical* through run_slot_engine — same DiscoveryState
// (including first-coverage times), same activity counters, same
// completion slot, same robustness report — for any topology, channel
// assignment, loss rate, interference schedule, start pattern, fault
// plan, adversary mix and seed, on both the indexed and the reference
// reception paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/algorithms.hpp"
#include "core/multi_radio.hpp"
#include "net/channel_assign.hpp"
#include "net/primary_user.hpp"
#include "net/propagation.hpp"
#include "net/topology_gen.hpp"
#include "sim/fault_plan.hpp"
#include "sim/slot_engine.hpp"
#include "util/rng.hpp"

namespace m2hew {
namespace {

// Soak runs (ci.yml) export M2HEW_SOAK_SEED to shift every scenario seed,
// widening property coverage across scheduled runs without code changes.
[[nodiscard]] std::uint64_t soak_offset() {
  const char* env = std::getenv("M2HEW_SOAK_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// Deterministic pseudo-random interference field (same recipe as the
// engine-equivalence test): active ~20% of the time, decorrelated across
// (slot, node, channel).
[[nodiscard]] bool pseudo_pu(std::uint64_t slot, net::NodeId node,
                             net::ChannelId channel) {
  std::uint64_t h = (slot + 1) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(node) + 1) * 0xBF58476D1CE4E5B9ull;
  h ^= (static_cast<std::uint64_t>(channel) + 1) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h % 5 == 0;
}

[[nodiscard]] net::Network random_network(util::Rng& rng, std::uint64_t seed,
                                          net::NodeId n, bool asymmetric,
                                          bool masked) {
  net::Topology topology = net::make_erdos_renyi(n, 0.45, rng);
  if (asymmetric) topology = net::make_asymmetric(topology, 0.4, rng);
  auto assignment = net::uniform_random_assignment(n, 6, 3, rng);
  return masked ? net::Network(std::move(topology), std::move(assignment),
                               net::random_propagation_filter(6, 0.7, seed))
                : net::Network(std::move(topology), std::move(assignment));
}

// Randomized fault plan (same recipe as the engine-equivalence test):
// churn, burst loss, scheduled spectrum faults and adversaries mixed in
// by seed bits. Parity must hold with ANY plan attached.
[[nodiscard]] sim::SlotFaultPlan make_fault_plan(std::uint64_t seed,
                                                 net::NodeId n,
                                                 double horizon) {
  sim::SlotFaultPlan plan;
  util::Rng rng(seed ^ 0xFA157);
  if (seed % 2 == 0) {
    plan.churn.crash_probability = 0.3 + 0.2 * static_cast<double>(seed % 3);
    plan.churn.earliest_crash = static_cast<std::uint64_t>(horizon * 0.05);
    plan.churn.latest_crash = static_cast<std::uint64_t>(horizon * 0.5);
    plan.churn.min_down = static_cast<std::uint64_t>(horizon * 0.05);
    plan.churn.max_down = static_cast<std::uint64_t>(horizon * 0.3);
    plan.churn.reset_policy_on_recovery = (seed % 4) == 0;
  }
  if (seed % 3 == 0) {
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.05;
    plan.burst_loss.p_bad_to_good = 0.2;
    plan.burst_loss.loss_good = 0.02;
    plan.burst_loss.loss_bad = 0.8;
  }
  if (seed % 5 == 0) {
    for (net::NodeId u = 0; u < n; ++u) {
      plan.positions.push_back(
          {rng.uniform_double(), rng.uniform_double()});
    }
    for (int i = 0; i < 4; ++i) {
      net::ScheduledPrimaryUser pu;
      pu.user.position = {rng.uniform_double(), rng.uniform_double()};
      pu.user.radius = 0.3 + 0.3 * rng.uniform_double();
      pu.user.channel = static_cast<net::ChannelId>(rng.uniform(6));
      pu.on_from = horizon * 0.6 * rng.uniform_double();
      pu.on_until = pu.on_from + horizon * 0.3 * rng.uniform_double();
      plan.spectrum.push_back(pu);
    }
  }
  if (seed % 2 == 1) {
    plan.adversary.fraction = 0.2 + 0.2 * static_cast<double>(seed % 3);
    plan.adversary.attack = static_cast<sim::AdversaryAttack>(seed % 4);
    plan.adversary.byzantine_tx = 0.6;
    plan.adversary.victim_fraction = 0.5;
  }
  return plan;
}

void expect_same_state(const net::Network& network,
                       const sim::DiscoveryState& a,
                       const sim::DiscoveryState& b) {
  EXPECT_EQ(a.covered_links(), b.covered_links());
  EXPECT_EQ(a.reception_count(), b.reception_count());
  for (const net::Link link : network.links()) {
    ASSERT_EQ(a.is_covered(link), b.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (a.is_covered(link)) {
      EXPECT_DOUBLE_EQ(a.first_coverage_time(link),
                       b.first_coverage_time(link))
          << "link " << link.from << "->" << link.to;
    }
  }
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    const auto& ta = a.neighbor_table(u);
    const auto& tb = b.neighbor_table(u);
    ASSERT_EQ(ta.size(), tb.size()) << "table of node " << u;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].neighbor, tb[i].neighbor)
          << "table of node " << u << " entry " << i;
    }
  }
}

class EngineParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineParity, SingleRadioMatchesSlotEngine) {
  const std::uint64_t seed = GetParam() + soak_offset();
  util::Rng rng(seed ^ 0x5151);
  const auto n = static_cast<net::NodeId>(8 + 8 * (seed % 3));
  const net::Network network = random_network(
      rng, seed, n, /*asymmetric=*/(seed % 2) != 0, /*masked=*/(seed % 3) == 0);

  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.indexed_reception = (seed % 2) == 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  if (seed % 2 == 0) {
    config.interference = [](std::uint64_t slot, net::NodeId node,
                             net::ChannelId c) {
      return pseudo_pu(slot, node, c);
    };
  }
  config.starts.assign(n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan(seed, n, 400.0);
  if (config.faults.burst_loss.enabled) {
    config.loss_probability = 0.0;
  }

  const std::size_t delta_est = 4 + 4 * (seed % 3);
  const auto single =
      sim::run_slot_engine(network, core::make_algorithm3(delta_est), config);
  const auto multi = sim::run_slot_engine(
      network, core::make_multi_radio_alg3(1, delta_est), config);

  EXPECT_EQ(single.complete, multi.complete);
  EXPECT_EQ(single.completion_slot, multi.completion_slot);
  EXPECT_EQ(single.slots_executed, multi.slots_executed);
  EXPECT_EQ(single.robustness.enabled, multi.robustness.enabled);
  EXPECT_EQ(single.robustness.crashed_nodes, multi.robustness.crashed_nodes);
  EXPECT_EQ(single.robustness.ghost_entries, multi.robustness.ghost_entries);
  EXPECT_EQ(single.robustness.surviving_links,
            multi.robustness.surviving_links);
  EXPECT_EQ(single.robustness.covered_surviving_links,
            multi.robustness.covered_surviving_links);
  EXPECT_EQ(single.robustness.rediscovered_links,
            multi.robustness.rediscovered_links);
  EXPECT_DOUBLE_EQ(single.robustness.mean_rediscovery,
                   multi.robustness.mean_rediscovery);
  EXPECT_EQ(single.robustness.adversary, multi.robustness.adversary);
  EXPECT_EQ(single.robustness.fake_entries, multi.robustness.fake_entries);
  EXPECT_EQ(single.robustness.isolated_fakes,
            multi.robustness.isolated_fakes);
  EXPECT_EQ(single.robustness.honest_isolated,
            multi.robustness.honest_isolated);
  ASSERT_EQ(single.activity.size(), multi.activity.size());
  for (std::size_t u = 0; u < single.activity.size(); ++u) {
    EXPECT_EQ(single.activity[u].transmit, multi.activity[u].transmit)
        << "node " << u;
    EXPECT_EQ(single.activity[u].receive, multi.activity[u].receive)
        << "node " << u;
    EXPECT_EQ(single.activity[u].quiet, multi.activity[u].quiet)
        << "node " << u;
  }
  expect_same_state(network, single.state, multi.state);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineParity,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace m2hew
