// Tests for the fault-injection layer (sim/fault_plan.*): churn-schedule
// determinism and boundaries, the inertness guarantee of a disabled plan,
// Gilbert–Elliott loss behaviour, scheduled spectrum faults, robustness
// reporting, and serial-vs-parallel bit-identity of faulted trial runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/algorithms.hpp"
#include "core/trust.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "runner/trials.hpp"
#include "sim/fault_plan.hpp"
#include "sim/slot_engine.hpp"
#include "util/rng.hpp"

namespace m2hew {
namespace {

// Soak runs (ci.yml) export M2HEW_SOAK_SEED to shift every seed in this
// file, widening coverage across scheduled runs without code changes.
[[nodiscard]] std::uint64_t soak_offset() {
  const char* env = std::getenv("M2HEW_SOAK_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

[[nodiscard]] net::Network small_clique(net::NodeId n = 6,
                                        net::ChannelId universe = 4) {
  return net::Network(
      net::make_clique(n),
      std::vector<net::ChannelSet>(n, net::ChannelSet::full(universe)));
}

[[nodiscard]] sim::SlotFaultPlan churn_plan(double p = 1.0) {
  sim::SlotFaultPlan plan;
  plan.churn.crash_probability = p;
  plan.churn.earliest_crash = 10;
  plan.churn.latest_crash = 60;
  plan.churn.min_down = 20;
  plan.churn.max_down = 80;
  plan.churn.reset_policy_on_recovery = true;
  return plan;
}

/// Trust knobs hot enough to catch a 0.8–0.9-tx Byzantine on a small
/// clique within a few thousand slots, while leaving the (slower) honest
/// senders mostly untouched.
[[nodiscard]] core::TrustConfig aggressive_trust() {
  core::TrustConfig trust;
  trust.enabled = true;
  trust.threshold = 0.3;
  trust.rate_penalty = 0.4;
  trust.rate_window = 64;
  trust.max_per_window = 8;
  trust.block_slots = 100'000;  // outlives the run: no probation churn
  trust.entry_window = 200'000;
  return trust;
}

void expect_identical_results(const sim::SlotEngineResult& a,
                              const sim::SlotEngineResult& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.completion_slot, b.completion_slot);
  EXPECT_EQ(a.slots_executed, b.slots_executed);
  EXPECT_EQ(a.state.covered_links(), b.state.covered_links());
  EXPECT_EQ(a.state.reception_count(), b.state.reception_count());
  ASSERT_EQ(a.activity.size(), b.activity.size());
  for (std::size_t u = 0; u < a.activity.size(); ++u) {
    EXPECT_EQ(a.activity[u].transmit, b.activity[u].transmit);
    EXPECT_EQ(a.activity[u].receive, b.activity[u].receive);
    EXPECT_EQ(a.activity[u].quiet, b.activity[u].quiet);
  }
}

TEST(FaultPlanTest, ChurnScheduleIsDeterministic) {
  const net::Network network = small_clique(8);
  const sim::SlotFaultPlan plan = churn_plan(0.7);
  const util::SeedSequence seeds(99 + soak_offset());
  const sim::FaultState<std::uint64_t> a(network, seeds, plan);
  const sim::FaultState<std::uint64_t> b(network, seeds, plan);
  for (net::NodeId u = 0; u < 8; ++u) {
    for (std::uint64_t t = 0; t < 200; ++t) {
      ASSERT_EQ(a.down_at(u, t), b.down_at(u, t))
          << "node " << u << " slot " << t;
    }
  }
}

TEST(FaultPlanTest, ChurnDownWindowBoundaries) {
  // Degenerate windows pin the schedule exactly: crash at 5, down for 3
  // slots -> down on [5, 8), up again at 8.
  const net::Network network = small_clique(3);
  sim::SlotFaultPlan plan;
  plan.churn.crash_probability = 1.0;
  plan.churn.earliest_crash = 5;
  plan.churn.latest_crash = 5;
  plan.churn.min_down = 3;
  plan.churn.max_down = 3;
  const sim::FaultState<std::uint64_t> state(
      network, util::SeedSequence(1), plan);
  for (net::NodeId u = 0; u < 3; ++u) {
    EXPECT_FALSE(state.down_at(u, 4));
    EXPECT_TRUE(state.down_at(u, 5));
    EXPECT_TRUE(state.down_at(u, 7));
    EXPECT_FALSE(state.down_at(u, 8));
  }
}

TEST(FaultPlanTest, DisabledPlanIsInert) {
  // A plan whose every fault is disabled — even with all the other knobs
  // populated — must reproduce the plain run bit-identically (the fault
  // streams are salted derives that are simply never drawn).
  const net::Network network = small_clique();
  sim::SlotEngineConfig plain;
  plain.max_slots = 3'000;
  plain.seed = 7 + soak_offset();
  plain.loss_probability = 0.2;

  sim::SlotEngineConfig disabled = plain;
  disabled.faults.churn.crash_probability = 0.0;  // disabled
  disabled.faults.churn.earliest_crash = 10;
  disabled.faults.churn.latest_crash = 50;
  disabled.faults.churn.min_down = 5;
  disabled.faults.churn.max_down = 9;
  disabled.faults.burst_loss.enabled = false;  // disabled
  disabled.faults.burst_loss.loss_bad = 0.99;
  disabled.faults.drift_wander.enabled = false;
  ASSERT_FALSE(disabled.faults.any());

  const auto factory = core::make_algorithm3(6);
  const auto a = sim::run_slot_engine(network, factory, plain);
  const auto b = sim::run_slot_engine(network, factory, disabled);
  expect_identical_results(a, b);
  EXPECT_FALSE(b.robustness.enabled);
  EXPECT_EQ(b.robustness.crashed_nodes, 0u);
}

TEST(FaultPlanTest, LosslessGilbertElliottMatchesLossFree) {
  // p(good->bad) = 0 and loss_good = 0: the chain never loses a message.
  // Its two draws per opportunity come from the dedicated loss stream,
  // which nothing else reads, so the run must match the loss-free run
  // bit-identically.
  const net::Network network = small_clique();
  sim::SlotEngineConfig clean;
  clean.max_slots = 3'000;
  clean.seed = 11 + soak_offset();

  sim::SlotEngineConfig bursty = clean;
  bursty.faults.burst_loss.enabled = true;
  bursty.faults.burst_loss.p_good_to_bad = 0.0;
  bursty.faults.burst_loss.p_bad_to_good = 0.5;
  bursty.faults.burst_loss.loss_good = 0.0;
  bursty.faults.burst_loss.loss_bad = 0.9;

  const auto factory = core::make_algorithm3(6);
  const auto a = sim::run_slot_engine(network, factory, clean);
  const auto b = sim::run_slot_engine(network, factory, bursty);
  expect_identical_results(a, b);
  EXPECT_TRUE(b.robustness.enabled);  // a plan was attached, just lossless
}

TEST(FaultPlanTest, BurstLossDelaysButDoesNotPreventDiscovery) {
  const net::Network network = small_clique();
  sim::SlotEngineConfig clean;
  clean.max_slots = 200'000;
  clean.seed = 13 + soak_offset();

  sim::SlotEngineConfig bursty = clean;
  bursty.faults.burst_loss.enabled = true;
  bursty.faults.burst_loss.p_good_to_bad = 0.1;
  bursty.faults.burst_loss.p_bad_to_good = 0.1;
  bursty.faults.burst_loss.loss_good = 0.0;
  bursty.faults.burst_loss.loss_bad = 0.95;

  const auto factory = core::make_algorithm3(6);
  const auto a = sim::run_slot_engine(network, factory, clean);
  const auto b = sim::run_slot_engine(network, factory, bursty);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_GE(b.completion_slot, a.completion_slot);
}

TEST(FaultPlanTest, ScheduledSpectrumBlockedBoundaries) {
  const net::Network network = small_clique(2);
  sim::SlotFaultPlan plan;
  plan.positions = {{0.0, 0.0}, {10.0, 10.0}};
  net::ScheduledPrimaryUser pu;
  pu.user.position = {0.0, 0.0};
  pu.user.radius = 1.0;
  pu.user.channel = 0;
  pu.on_from = 10.0;
  pu.on_until = 20.0;
  plan.spectrum.push_back(pu);
  const sim::FaultState<std::uint64_t> state(
      network, util::SeedSequence(1), plan);
  // Activation interval is [on_from, on_until).
  EXPECT_FALSE(state.spectrum_blocked(9, 0, 0));
  EXPECT_TRUE(state.spectrum_blocked(10, 0, 0));
  EXPECT_TRUE(state.spectrum_blocked(19, 0, 0));
  EXPECT_FALSE(state.spectrum_blocked(20, 0, 0));
  // Wrong channel, or a node outside the PU disk, is never blocked.
  EXPECT_FALSE(state.spectrum_blocked(15, 0, 1));
  EXPECT_FALSE(state.spectrum_blocked(15, 1, 0));
}

TEST(FaultPlanTest, ChurnRobustnessReportIsConsistent) {
  const net::Network network = small_clique(6);
  sim::SlotEngineConfig config;
  config.max_slots = 50'000;
  config.seed = 21 + soak_offset();
  config.faults = churn_plan(1.0);

  const auto result =
      sim::run_slot_engine(network, core::make_algorithm3(6), config);
  const sim::RobustnessReport& report = result.robustness;
  ASSERT_TRUE(report.enabled);
  EXPECT_GE(report.crashed_nodes, 1u);
  EXPECT_LE(report.crashed_nodes, 6u);
  EXPECT_LE(report.covered_surviving_links, report.surviving_links);
  EXPECT_LE(report.rediscovered_links, report.recovered_links);
  EXPECT_GE(report.surviving_recall(), 0.0);
  EXPECT_LE(report.surviving_recall(), 1.0);
  if (report.rediscovered_links > 0) {
    EXPECT_GT(report.mean_rediscovery, 0.0);
    EXPECT_GE(report.max_rediscovery, report.mean_rediscovery);
  }
  // A completed run with every node back up discovered everyone who
  // matters: recall over surviving links is 1 by definition of complete.
  if (result.complete && report.down_at_end == 0) {
    EXPECT_DOUBLE_EQ(report.surviving_recall(), 1.0);
  }
}

TEST(FaultPlanTest, SerialAndParallelTrialsIdenticalWithFaults) {
  const net::Network network = small_clique(8);
  runner::SyncTrialConfig serial;
  serial.trials = 12;
  serial.seed = 31 + soak_offset();
  serial.threads = 1;
  serial.engine.max_slots = 50'000;
  serial.engine.faults = churn_plan(0.6);
  serial.engine.faults.burst_loss.enabled = true;
  serial.engine.faults.burst_loss.p_good_to_bad = 0.05;
  serial.engine.faults.burst_loss.p_bad_to_good = 0.2;
  serial.engine.faults.burst_loss.loss_bad = 0.8;

  runner::SyncTrialConfig parallel = serial;
  parallel.threads = 4;

  const auto factory = core::make_algorithm3(8);
  const auto a = runner::run_sync_trials(network, factory, serial);
  const auto b = runner::run_sync_trials(network, factory, parallel);

  EXPECT_EQ(a.completed, b.completed);
  const auto sa = a.completion_slots.summarize();
  const auto sb = b.completion_slots.summarize();
  EXPECT_DOUBLE_EQ(sa.mean, sb.mean);
  EXPECT_DOUBLE_EQ(sa.p90, sb.p90);
  EXPECT_EQ(a.robustness.fault_trials, b.robustness.fault_trials);
  EXPECT_EQ(a.robustness.recovered_links, b.robustness.recovered_links);
  EXPECT_EQ(a.robustness.rediscovered_links,
            b.robustness.rediscovered_links);
  EXPECT_DOUBLE_EQ(a.robustness.surviving_recall.summarize().mean,
                   b.robustness.surviving_recall.summarize().mean);
  EXPECT_DOUBLE_EQ(a.robustness.ghost_entries.summarize().mean,
                   b.robustness.ghost_entries.summarize().mean);
}

TEST(FaultPlanTest, AdversaryFractionZeroIsInert) {
  // fraction = 0 with every other adversary knob populated must reproduce
  // the plain run bit-identically on the classic engine: the role streams
  // are salted derives that are never drawn when the spec is disabled.
  const net::Network network = small_clique();
  sim::SlotEngineConfig plain;
  plain.max_slots = 3'000;
  plain.seed = 41 + soak_offset();
  plain.loss_probability = 0.15;

  sim::SlotEngineConfig frozen = plain;
  frozen.faults.adversary.fraction = 0.0;  // disabled
  frozen.faults.adversary.attack = sim::AdversaryAttack::kByzantine;
  frozen.faults.adversary.byzantine_tx = 0.9;
  frozen.faults.adversary.victim_fraction = 1.0;
  ASSERT_FALSE(frozen.faults.any());

  const auto factory = core::make_algorithm3(6);
  const auto a = sim::run_slot_engine(network, factory, plain);
  const auto b = sim::run_slot_engine(network, factory, frozen);
  expect_identical_results(a, b);
  EXPECT_FALSE(b.robustness.enabled);
  EXPECT_FALSE(b.robustness.adversary);
  EXPECT_EQ(b.robustness.adversary_nodes, 0u);
}

[[nodiscard]] sim::SlotFaultPlan adversary_plan(
    double fraction, sim::AdversaryAttack attack) {
  sim::SlotFaultPlan plan;
  plan.adversary.fraction = fraction;
  plan.adversary.attack = attack;
  plan.adversary.byzantine_tx = 0.8;
  plan.adversary.victim_fraction = 0.5;
  return plan;
}

TEST(FaultPlanTest, AdversaryRolesAreDeterministicAndAttackInvariant) {
  // Same seeds -> same roles and parameters; and because the adversary
  // coin is the first draw of each role stream, switching the attack type
  // keeps the adversary SET fixed (only the behaviour changes).
  const net::Network network = small_clique(10);
  const util::SeedSequence seeds(77 + soak_offset());
  const sim::FaultState<std::uint64_t> a(
      network, seeds, adversary_plan(0.5, sim::AdversaryAttack::kMix));
  const sim::FaultState<std::uint64_t> b(
      network, seeds, adversary_plan(0.5, sim::AdversaryAttack::kMix));
  const sim::FaultState<std::uint64_t> jam(
      network, seeds, adversary_plan(0.5, sim::AdversaryAttack::kJam));
  EXPECT_EQ(a.adversary_count(), b.adversary_count());
  EXPECT_EQ(a.adversary_count(), jam.adversary_count());
  EXPECT_GE(a.adversary_count(), 1u);
  std::size_t honest = 0;
  for (net::NodeId u = 0; u < 10; ++u) {
    ASSERT_EQ(a.role(u), b.role(u)) << "node " << u;
    // Attack-type invariance of the adversary set.
    ASSERT_EQ(a.role(u) == sim::AdversaryRole::kHonest,
              jam.role(u) == sim::AdversaryRole::kHonest)
        << "node " << u;
    if (jam.role(u) == sim::AdversaryRole::kJammer) {
      EXPECT_LT(jam.jam_channel(u), 4u);  // drawn from A(u), universe 4
    }
    if (a.role(u) == sim::AdversaryRole::kByzantine) {
      ASSERT_EQ(a.fake_id(u), b.fake_id(u));
      EXPECT_LT(a.fake_id(u), 20u);  // [0, 2n)
    }
    if (a.role(u) == sim::AdversaryRole::kHonest) ++honest;
  }
  EXPECT_EQ(honest + a.adversary_count(), 10u);
}

TEST(FaultPlanTest, ByzantineAliasedFakeIdCountsOnceAsReal) {
  // A Byzantine fake ID drawn below n can collide with a real node's ID.
  // When the aliased real arc (fake -> listener) is covered, the listener's
  // table already holds that entry as real knowledge: assess must count it
  // once (real), not also as a fake entry. Scan seeds for a Byzantine node
  // whose fake ID aliases a real node other than itself and the listener —
  // on a clique every such arc exists.
  const net::NodeId n = 6;
  const net::Network network = small_clique(n);
  const sim::SlotFaultPlan plan =
      adversary_plan(1.0, sim::AdversaryAttack::kByzantine);
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    sim::FaultState<std::uint64_t> state(
        network, util::SeedSequence(seed), plan);
    net::NodeId byz = net::kInvalidNode;
    for (net::NodeId u = 0; u < n; ++u) {
      if (state.role(u) == sim::AdversaryRole::kByzantine &&
          state.fake_id(u) < n && state.fake_id(u) != u) {
        byz = u;
        break;
      }
    }
    if (byz == net::kInvalidNode) continue;
    const net::NodeId fake = state.fake_id(byz);
    const net::NodeId listener = fake == 0 ? (byz == 1 ? 2 : 1)
                                           : (byz == 0 ? (fake == 1 ? 2 : 1)
                                                       : 0);
    ASSERT_NE(listener, byz);
    ASSERT_NE(listener, fake);

    // The listener decodes the Byzantine announcement of `fake`...
    EXPECT_TRUE(state.note_fake_decode(byz, listener, 10));
    EXPECT_FALSE(state.note_fake_decode(byz, listener, 20));  // refresh only

    // ...without the aliased real arc covered: one fake entry.
    sim::DiscoveryState uncovered(network);
    const auto before = state.assess(uncovered, 100);
    ASSERT_TRUE(before.adversary);
    EXPECT_EQ(before.fake_entries, 1u);
    EXPECT_EQ(before.real_entries, 0u);

    // With the aliased arc fake -> listener covered: the entry is real
    // knowledge, counted exactly once (no double count as fake).
    sim::DiscoveryState covered(network);
    ASSERT_TRUE(covered.record_reception(fake, listener, 5.0));
    const auto after = state.assess(covered, 100);
    EXPECT_EQ(after.real_entries, 1u);
    EXPECT_EQ(after.fake_entries, 0u);
    EXPECT_EQ(after.ghost_entries, 0u);
    return;  // found and verified a collision scenario
  }
  FAIL() << "no seed produced an aliasing Byzantine fake ID";
}

TEST(FaultPlanTest, SerialAndParallelTrialsIdenticalWithAdversaries) {
  const net::Network network = small_clique(8);
  runner::SyncTrialConfig serial;
  serial.trials = 10;
  serial.seed = 51 + soak_offset();
  serial.threads = 1;
  serial.engine.max_slots = 4'000;
  serial.engine.faults = adversary_plan(0.4, sim::AdversaryAttack::kMix);

  runner::SyncTrialConfig parallel = serial;
  parallel.threads = 4;

  const auto factory = core::with_trust(
      core::make_algorithm3(8), aggressive_trust());
  const auto a = runner::run_sync_trials(network, factory, serial);
  const auto b = runner::run_sync_trials(network, factory, parallel);

  EXPECT_EQ(a.robustness.fault_trials, b.robustness.fault_trials);
  EXPECT_EQ(a.robustness.adversary_trials, b.robustness.adversary_trials);
  EXPECT_EQ(a.robustness.adversary_trials, serial.trials);
  EXPECT_EQ(a.robustness.fake_entries, b.robustness.fake_entries);
  EXPECT_EQ(a.robustness.isolated_fakes, b.robustness.isolated_fakes);
  EXPECT_EQ(a.robustness.honest_isolated, b.robustness.honest_isolated);
  EXPECT_DOUBLE_EQ(a.robustness.precision_under_attack.summarize().mean,
                   b.robustness.precision_under_attack.summarize().mean);
  EXPECT_EQ(a.robustness.isolation_times.count(),
            b.robustness.isolation_times.count());
  if (a.robustness.isolation_times.count() > 0) {
    EXPECT_DOUBLE_EQ(a.robustness.isolation_times.summarize().mean,
                     b.robustness.isolation_times.summarize().mean);
  }
  EXPECT_DOUBLE_EQ(a.robustness.surviving_recall.summarize().mean,
                   b.robustness.surviving_recall.summarize().mean);
}

TEST(FaultPlanTest, TrustIsolatesByzantineFakes) {
  // End-to-end: a hot Byzantine population against the trust wrapper. The
  // fakes announce far above the honest rate, so the trust table must
  // isolate at least one and stamp a positive time-to-isolation.
  const net::Network network = small_clique(8, 4);
  sim::SlotEngineConfig config;
  config.max_slots = 6'000;
  config.seed = 61 + soak_offset();
  config.faults = adversary_plan(0.5, sim::AdversaryAttack::kByzantine);
  config.faults.adversary.byzantine_tx = 0.9;

  const auto untrusted = sim::run_slot_engine(
      network, core::make_algorithm3(16), config);
  ASSERT_TRUE(untrusted.robustness.adversary);
  ASSERT_GT(untrusted.robustness.fake_entries, 0u);
  EXPECT_EQ(untrusted.robustness.isolated_fakes, 0u);

  const auto trusted = sim::run_slot_engine(
      network,
      core::with_trust(core::make_algorithm3(16), aggressive_trust()),
      config);
  EXPECT_GT(trusted.robustness.isolated_fakes, 0u);
  EXPECT_GT(trusted.robustness.mean_isolation, 0.0);
  EXPECT_GE(trusted.robustness.max_isolation,
            trusted.robustness.mean_isolation);
  EXPECT_GE(trusted.robustness.precision_under_attack(),
            untrusted.robustness.precision_under_attack());
}

TEST(FaultPlanTest, ValidationRejectsGilbertElliottPlusIidLoss) {
  const net::Network network = small_clique();
  sim::SlotEngineConfig config;
  config.loss_probability = 0.3;
  config.faults.burst_loss.enabled = true;
  EXPECT_DEATH(
      (void)sim::run_slot_engine(network, core::make_algorithm3(6), config),
      "Gilbert-Elliott");
}

}  // namespace
}  // namespace m2hew
