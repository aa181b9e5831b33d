// Contract tests for net::TopologyProvider (net/topology_provider.hpp).
//
// Structural properties first: StaticTopologyProvider wraps by reference,
// a single-epoch EpochTopologyProvider degenerates to the static case
// (union IS epoch 0), schedules are a pure function of (config, seed),
// and the union network contains every epoch's arcs.
//
// Then the load-bearing equivalence: a *frozen* multi-epoch schedule
// (speed 0, so every epoch carries the same link set) must be
// bit-identical to running the plain static engine on a network built
// from the same topology and assignment — across the slot engine (one
// and two radios per node), the async engine and the SoA kernel, with
// randomized fault plans, loss, interference and start patterns. This
// proves the per-epoch adjacency swap (and the SoA active-arc mask) is a
// pure filter: when it filters nothing, nothing changes — the dynamic
// path costs no correctness relative to the static one.
#include "net/topology_provider.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "core/multi_radio.hpp"
#include "core/policy_spec.hpp"
#include "core/termination.hpp"
#include "net/channel_assign.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "sim/async_engine.hpp"
#include "sim/clock.hpp"
#include "sim/fault_plan.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"

namespace m2hew {
namespace {

// Soak runs (ci.yml) export M2HEW_SOAK_SEED to shift every scenario seed,
// widening property coverage across scheduled runs without code changes.
[[nodiscard]] std::uint64_t soak_offset() {
  const char* env = std::getenv("M2HEW_SOAK_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

[[nodiscard]] net::MobilityConfig mobile_config(net::NodeId n, double speed,
                                                std::size_t epochs) {
  net::MobilityConfig config;
  config.nodes = n;
  config.side = 1.0;
  config.radius = 0.45;
  config.speed_min = speed / 2.0;
  config.speed_max = speed;
  config.pause_epochs = 1;
  config.epochs = epochs;
  return config;
}

// Randomized fault plan over the first `horizon` time units, same recipe
// as engine_equivalence_test: the frozen-schedule identity must hold with
// ANY plan attached.
template <typename Time>
[[nodiscard]] sim::FaultPlan<Time> make_fault_plan(std::uint64_t seed,
                                                   double horizon) {
  sim::FaultPlan<Time> plan;
  util::Rng rng(seed ^ 0xFA157);
  if (seed % 2 == 0) {
    plan.churn.crash_probability = 0.3 + 0.2 * static_cast<double>(seed % 3);
    plan.churn.earliest_crash = static_cast<Time>(horizon * 0.05);
    plan.churn.latest_crash = static_cast<Time>(horizon * 0.5);
    plan.churn.min_down = static_cast<Time>(horizon * 0.05);
    plan.churn.max_down = static_cast<Time>(horizon * 0.3);
    plan.churn.reset_policy_on_recovery = (seed % 4) == 0;
  }
  if (seed % 3 == 0) {
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.05;
    plan.burst_loss.p_bad_to_good = 0.2;
    plan.burst_loss.loss_good = 0.02;
    plan.burst_loss.loss_bad = 0.8;
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
}

void expect_same_activity(const std::vector<sim::RadioActivity>& a,
                          const std::vector<sim::RadioActivity>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].transmit, b[u].transmit) << "node " << u;
    EXPECT_EQ(a[u].receive, b[u].receive) << "node " << u;
    EXPECT_EQ(a[u].quiet, b[u].quiet) << "node " << u;
  }
}

void expect_same_robustness(const sim::RobustnessReport& a,
                            const sim::RobustnessReport& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_EQ(a.down_at_end, b.down_at_end);
  EXPECT_EQ(a.surviving_links, b.surviving_links);
  EXPECT_EQ(a.covered_surviving_links, b.covered_surviving_links);
  EXPECT_EQ(a.ghost_entries, b.ghost_entries);
  EXPECT_EQ(a.recovered_links, b.recovered_links);
  EXPECT_EQ(a.rediscovered_links, b.rediscovered_links);
  EXPECT_DOUBLE_EQ(a.mean_rediscovery, b.mean_rediscovery);
  EXPECT_DOUBLE_EQ(a.max_rediscovery, b.max_rediscovery);
}

// Same directed arc set, independent of internal ordering.
void expect_same_arcs(const net::Network& a, const net::Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.topology().arc_count(), b.topology().arc_count());
  for (net::NodeId u = 0; u < a.node_count(); ++u) {
    const auto ia = a.in_links(u);
    const auto ib = b.in_links(u);
    ASSERT_EQ(ia.size(), ib.size()) << "in-degree of node " << u;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i], ib[i]) << "in-link " << i << " of " << u;
    }
  }
}

TEST(StaticTopologyProvider, WrapsNetworkByReference) {
  util::Rng rng(3);
  auto assignment = net::uniform_random_assignment(6, 6, 3, rng);
  net::Topology topology(6);
  topology.add_edge(0, 1);
  topology.add_edge(1, 2);
  topology.finalize();
  const net::Network network(std::move(topology), std::move(assignment));

  const net::StaticTopologyProvider provider(network);
  EXPECT_EQ(provider.epoch_count(), 1u);
  EXPECT_EQ(&provider.epoch(0), &network);
  EXPECT_EQ(&provider.union_network(), &network);
}

TEST(EpochTopologyProvider, SingleEpochUnionIsEpochZero) {
  util::Rng rng(5);
  const auto assignment = net::uniform_random_assignment(12, 6, 3, rng);
  const net::EpochTopologyProvider provider(
      mobile_config(12, 0.1, /*epochs=*/1), assignment, 7);
  EXPECT_EQ(provider.epoch_count(), 1u);
  // The static degenerate case: no union copy is built, so engines take
  // the zero-cost path (topology_provider_of returns nullptr for this).
  EXPECT_EQ(&provider.union_network(), &provider.epoch(0));
}

TEST(EpochTopologyProvider, ScheduleIsAPureFunctionOfConfigAndSeed) {
  util::Rng rng(11);
  const auto assignment = net::uniform_random_assignment(24, 6, 3, rng);
  const net::MobilityConfig config = mobile_config(24, 0.15, 6);

  const net::EpochTopologyProvider a(config, assignment, 99);
  const net::EpochTopologyProvider b(config, assignment, 99);
  ASSERT_EQ(a.epoch_count(), b.epoch_count());
  for (std::size_t e = 0; e < a.epoch_count(); ++e) {
    const auto pa = a.positions(e);
    const auto pb = b.positions(e);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t u = 0; u < pa.size(); ++u) {
      EXPECT_EQ(pa[u].x, pb[u].x) << "epoch " << e << " node " << u;
      EXPECT_EQ(pa[u].y, pb[u].y) << "epoch " << e << " node " << u;
    }
    expect_same_arcs(a.epoch(e), b.epoch(e));
  }
  expect_same_arcs(a.union_network(), b.union_network());

  // A different seed places nodes elsewhere.
  const net::EpochTopologyProvider c(config, assignment, 100);
  bool any_differs = false;
  for (std::size_t u = 0; u < 24; ++u) {
    any_differs |= a.positions(0)[u].x != c.positions(0)[u].x;
  }
  EXPECT_TRUE(any_differs);
}

TEST(EpochTopologyProvider, UnionContainsEveryEpochArc) {
  util::Rng rng(17);
  const auto assignment = net::uniform_random_assignment(32, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobile_config(32, 0.2, 8),
                                            assignment, 21);
  const net::Network& u_net = provider.union_network();
  for (std::size_t e = 0; e < provider.epoch_count(); ++e) {
    const net::Network& epoch = provider.epoch(e);
    for (net::NodeId u = 0; u < epoch.node_count(); ++u) {
      for (const net::NodeId from : epoch.in_links(u)) {
        EXPECT_NE(u_net.in_arc(from, u), net::Network::kNoArc)
            << "epoch " << e << " arc " << from << "->" << u
            << " missing from the union";
      }
    }
  }
}

TEST(EpochTopologyProvider, ZeroSpeedFreezesTheSchedule) {
  util::Rng rng(23);
  const auto assignment = net::uniform_random_assignment(20, 6, 3, rng);
  const net::EpochTopologyProvider provider(mobile_config(20, 0.0, 5),
                                            assignment, 31);
  for (std::size_t e = 1; e < provider.epoch_count(); ++e) {
    for (std::size_t u = 0; u < 20; ++u) {
      EXPECT_EQ(provider.positions(e)[u].x, provider.positions(0)[u].x);
      EXPECT_EQ(provider.positions(e)[u].y, provider.positions(0)[u].y);
    }
    expect_same_arcs(provider.epoch(e), provider.epoch(0));
  }
  expect_same_arcs(provider.union_network(), provider.epoch(0));
}

// ---------------------------------------------------------------------------
// Frozen-schedule equivalence: a speed-0 multi-epoch provider (the union
// is a genuinely separate Network object and the per-epoch swap runs at
// every boundary) must match the plain static engine bit for bit.

struct FrozenFixture {
  std::unique_ptr<net::EpochTopologyProvider> provider;
  std::unique_ptr<net::Network> static_network;
  net::NodeId n = 0;
  std::uint64_t epoch_length = 0;
};

[[nodiscard]] FrozenFixture make_frozen(std::uint64_t seed) {
  FrozenFixture f;
  util::Rng rng(seed ^ 0xF80);
  f.n = static_cast<net::NodeId>(12 + 4 * (seed % 3));
  const auto assignment =
      (seed % 3 == 0)
          ? net::variable_size_random_assignment(f.n, 7, 2, 5, rng)
          : net::uniform_random_assignment(f.n, 6, 3, rng);
  f.provider = std::make_unique<net::EpochTopologyProvider>(
      mobile_config(f.n, 0.0, 2 + seed % 3), assignment, seed);
  // Same arcs, same assignment, but a Network built the static way.
  net::Topology topology = f.provider->epoch(0).topology();
  f.static_network =
      std::make_unique<net::Network>(std::move(topology), assignment);
  f.epoch_length = 60 + 20 * (seed % 3);
  return f;
}

class FrozenScheduleEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrozenScheduleEquivalence, SlotEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x51);

  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan<std::uint64_t>(seed, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const sim::SyncPolicyFactory factory =
      (seed % 2 == 0) ? core::make_algorithm3(8)
                      : core::with_termination(core::make_algorithm2(), 80);

  sim::SlotEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const auto a =
      sim::run_slot_engine(f.provider->union_network(), factory, mobile);
  const auto b = sim::run_slot_engine(*f.static_network, factory, config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, AsyncEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0xA5);

  sim::AsyncEngineConfig config;
  config.frame_length = 3.0;
  config.slots_per_frame = 3;
  config.max_real_time = 400.0;
  config.max_frames_per_node = 4000;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) == 0;
  config.loss_probability = (seed % 3 == 2) ? 0.2 : 0.0;
  config.starts.assign(f.n, 0.0);
  for (auto& t : config.starts) t = rng.uniform_double() * 10.0;
  config.faults = make_fault_plan<double>(seed, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;
  config.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    sim::PiecewiseDriftClock::Config drift;
    drift.max_drift = 0.1;
    drift.min_segment = 10.0;
    drift.max_segment = 40.0;
    return std::make_unique<sim::PiecewiseDriftClock>(drift, clock_seed);
  };

  const sim::AsyncPolicyFactory factory = core::make_algorithm4(6);

  sim::AsyncEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = static_cast<double>(f.epoch_length);

  const auto a =
      sim::run_async_engine(f.provider->union_network(), factory, mobile);
  const auto b = sim::run_async_engine(*f.static_network, factory, config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.t_s, b.t_s);
  EXPECT_EQ(a.frames_started, b.frames_started);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, MultiRadioEngineMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x3D);

  sim::SlotEngineConfig config;
  config.max_slots = 300;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.2 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(20);
  config.faults = make_fault_plan<std::uint64_t>(seed, 300.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const sim::MultiRadioPolicyFactory factory =
      core::make_multi_radio_alg3(2, 8);

  sim::SlotEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const auto a =
      sim::run_slot_engine(f.provider->union_network(), factory, mobile);
  const auto b = sim::run_slot_engine(*f.static_network, factory, config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  expect_same_activity(a.activity, b.activity);
  expect_same_state(*f.static_network, a.state, b.state);
  expect_same_robustness(a.robustness, b.robustness);
}

TEST_P(FrozenScheduleEquivalence, SoaKernelMatchesStatic) {
  const std::uint64_t seed = GetParam() + soak_offset();
  const FrozenFixture f = make_frozen(seed);
  util::Rng rng(seed ^ 0x50A);

  sim::SlotEngineConfig config;
  config.max_slots = 400;
  config.seed = seed;
  config.stop_when_complete = (seed % 2) != 0;
  config.loss_probability = (seed % 3 == 1) ? 0.25 : 0.0;
  config.starts.assign(f.n, 0);
  for (auto& s : config.starts) s = rng.uniform(25);
  config.faults = make_fault_plan<std::uint64_t>(seed, 400.0);
  if (config.faults.burst_loss.enabled) config.loss_probability = 0.0;

  const core::SyncPolicySpec spec =
      (seed % 2 == 0) ? core::SyncPolicySpec::algorithm3(8)
                      : core::SyncPolicySpec::algorithm2();

  sim::SlotEngineConfig mobile = config;
  mobile.topology = f.provider.get();
  mobile.epoch_length = f.epoch_length;

  const net::Network& u_net = f.provider->union_network();
  const auto a = sim::run_soa_slot_kernel(
      u_net, core::build_soa_policy_table(u_net, spec), mobile);
  const auto b = sim::run_soa_slot_kernel(
      *f.static_network,
      core::build_soa_policy_table(*f.static_network, spec), config);

  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  EXPECT_EQ(a.receptions, b.receptions);
  EXPECT_EQ(a.covered_links, b.covered_links);
  for (const net::Link link : f.static_network->links()) {
    ASSERT_EQ(a.is_covered(link), b.is_covered(link))
        << "link " << link.from << "->" << link.to;
    if (a.is_covered(link)) {
      EXPECT_DOUBLE_EQ(a.first_coverage_slot(link),
                       b.first_coverage_slot(link))
          << "link " << link.from << "->" << link.to;
    }
  }
  expect_same_robustness(a.robustness, b.robustness);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FrozenScheduleEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace m2hew
