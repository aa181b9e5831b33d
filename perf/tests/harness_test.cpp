// Self-tests of the benchmark harness: span self time, the tail-percentile
// rule, node-step denominators on a hand-checked network, and reference
// digest checking. Run with `python3 perf/run.py --selftest`.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/policy_spec.hpp"
#include "driver/harness.hpp"
#include "net/channel_assign.hpp"
#include "net/network.hpp"
#include "net/topology_gen.hpp"
#include "runner/trials.hpp"
#include "sim/soa_kernel.hpp"
#include "util/rng.hpp"

namespace {

using namespace m2hew;

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // root [0,10] has children a [1,4] and b [3,6], which overlap on [3,4];
  // a has a grandchild [2,3] that must not count against root.
  const std::vector<perf::Span> spans = {
      {"root", 0.0, 10.0, -1, 0},
      {"a", 1.0, 4.0, 0, 0},
      {"b", 3.0, 6.0, 0, 0},
      {"a.child", 2.0, 3.0, 1, 0},
  };
  EXPECT_DOUBLE_EQ(perf::self_seconds(spans, 0), 5.0);
  EXPECT_DOUBLE_EQ(perf::self_seconds(spans, 1), 2.0);
  EXPECT_DOUBLE_EQ(perf::self_seconds(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(perf::self_seconds(spans, 3), 1.0);
}

TEST(SelfTime, ClipsChildrenToTheParentInterval) {
  const std::vector<perf::Span> spans = {
      {"root", 2.0, 5.0, -1, 0},
      {"late", 4.0, 9.0, 0, 0},
  };
  EXPECT_DOUBLE_EQ(perf::self_seconds(spans, 0), 2.0);
}

TEST(SelfTime, PerRunSumsGroupByRunId) {
  const std::vector<perf::Span> spans = {
      {"x", 0.0, 1.0, -1, 0}, {"x", 1.0, 3.0, -1, 0},
      {"x", 5.0, 9.0, -1, 1}, {"y", 0.0, 1.0, -1, 1},
  };
  const std::vector<double> per_run = perf::self_seconds_per_run(spans, "x");
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_DOUBLE_EQ(per_run[0], 3.0);
  EXPECT_DOUBLE_EQ(per_run[1], 4.0);
}

TEST(Tracer, RecordsNestingAndRunIds) {
  perf::Tracer tracer(true);
  tracer.set_run(7);
  {
    perf::ScopedSpan outer(tracer, "outer");
    perf::ScopedSpan inner(tracer, "inner");
  }
  perf::ScopedSpan after(tracer, "after");
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[1].run_id, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[0].end);
}

TEST(Tracer, DisabledRecordsNothing) {
  perf::Tracer tracer(false);
  { perf::ScopedSpan span(tracer, "ignored"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(perf::tail_percentile(0), 0.0);
  EXPECT_EQ(perf::tail_percentile(99), 0.0);
  EXPECT_EQ(perf::tail_percentile(100), 90.0);
  EXPECT_EQ(perf::tail_percentile(999), 90.0);
  EXPECT_EQ(perf::tail_percentile(1000), 99.0);
  EXPECT_EQ(perf::tail_percentile(10000), 99.9);
}

TEST(TailPercentile, SummaryReportsMedianTailAndCount) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const perf::TimingSummary s = perf::summarize_timing(values);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_NEAR(s.tail_value, 90.1, 1e-9);

  const perf::TimingSummary few = perf::summarize_timing({3.0, 1.0, 2.0});
  EXPECT_EQ(few.samples, 3u);
  EXPECT_DOUBLE_EQ(few.median, 2.0);
  EXPECT_EQ(few.tail_percentile, 0.0);
}

// A 3-node line on one shared channel: links 0→1, 1→0, 1→2, 2→1.
[[nodiscard]] net::Network tiny_line() {
  return net::Network(net::make_line(3), net::homogeneous_assignment(3, 1, 1));
}

TEST(NodeSteps, FixedSlotRunCountsEveryNodeEverySlot) {
  const net::Network network = tiny_line();
  EXPECT_EQ(network.links().size(), 4u);
  const sim::SoaPolicyTable table = core::build_soa_policy_table(
      network, core::SyncPolicySpec::algorithm3(2));
  sim::SoaSlotKernel kernel(network);
  sim::SlotEngineConfig config;
  config.max_slots = 10;
  config.stop_when_complete = false;
  const auto result = kernel.run(table, config);
  EXPECT_EQ(result.slots_executed, 10u);
  EXPECT_EQ(perf::slotted_node_steps(3, result.slots_executed), 30u);
  EXPECT_EQ(sim::total_activity(result.activity).total(), 30u);
}

TEST(NodeSteps, SweepCountMatchesTheSlotsEachTrialExecuted) {
  const net::Network network = tiny_line();
  const core::SyncPolicySpec spec = core::SyncPolicySpec::algorithm3(2);
  runner::SyncTrialConfig config;
  config.trials = 5;
  config.seed = 11;
  config.threads = 1;
  config.engine.max_slots = 10'000;
  const runner::SyncTrialStats stats =
      runner::run_sync_trials(network, spec, config);
  ASSERT_EQ(stats.completed, 5u);

  // Replay each trial with the runner's seeding and count by hand.
  const sim::SoaPolicyTable table = core::build_soa_policy_table(network, spec);
  sim::SoaSlotKernel kernel(network);
  const util::SeedSequence seeds(config.seed);
  std::uint64_t expected = 0;
  for (std::size_t t = 0; t < config.trials; ++t) {
    sim::SlotEngineConfig engine = config.engine;
    engine.seed = seeds.derive(t);
    const auto result = kernel.run(table, engine);
    ASSERT_TRUE(result.complete);
    expected += 3 * result.slots_executed;
  }
  EXPECT_EQ(perf::sweep_node_steps(3, stats), expected);
}

TEST(NodeSteps, AsyncCountIsNodesTimesMaxFullFrames) {
  runner::AsyncTrialStats stats;
  stats.max_full_frames.add(3.0);
  stats.max_full_frames.add(4.0);
  EXPECT_EQ(perf::async_node_frames(5, stats), 35u);
}

TEST(ReferenceDigest, CorruptedReferenceRaisesFailedFraction) {
  const std::vector<std::uint64_t> digests = {
      perf::Digest().add(std::uint64_t{1}).value(),
      perf::Digest().add(2.5).value(),
      perf::Digest().add(std::uint64_t{3}).add(4.0).value(),
  };
  std::vector<bool> ok(digests.size(), true);
  EXPECT_EQ(perf::check_reference(digests, digests, ok), 0u);
  EXPECT_EQ(perf::failed_fraction(ok), 0.0);

  std::vector<std::uint64_t> corrupted = digests;
  corrupted[1] ^= 1;
  EXPECT_EQ(perf::check_reference(digests, corrupted, ok), 1u);
  EXPECT_FALSE(ok[1]);
  EXPECT_GT(perf::failed_fraction(ok), 0.0);
  EXPECT_DOUBLE_EQ(perf::failed_fraction(ok), 1.0 / 3.0);
}

TEST(ReferenceDigest, ShorterReferenceLeavesLaterTrialsUnchecked) {
  const std::vector<std::uint64_t> digests = {1, 2, 3};
  const std::vector<std::uint64_t> reference = {1};
  std::vector<bool> ok(3, true);
  EXPECT_EQ(perf::check_reference(digests, reference, ok), 0u);
  EXPECT_EQ(perf::failed_fraction(ok), 0.0);
}

TEST(ReferenceDigest, LoadsTheLineForWorkloadAndSeed) {
  std::istringstream file(
      "# workload seed digests\n"
      "soa 1 00000000000000ff 0000000000000001\n"
      "soa 2 abc\n"
      "sweep 1 10\n");
  EXPECT_EQ(perf::load_reference(file, "soa", 1),
            (std::vector<std::uint64_t>{0xff, 1}));
  file.clear();
  file.seekg(0);
  EXPECT_EQ(perf::load_reference(file, "sweep", 1),
            (std::vector<std::uint64_t>{0x10}));
  file.clear();
  file.seekg(0);
  EXPECT_TRUE(perf::load_reference(file, "sweep", 9).empty());
}

TEST(Digest, DependsOnEveryFieldAndItsOrder) {
  const auto ab = perf::Digest().add(std::uint64_t{1}).add(std::uint64_t{2});
  const auto ba = perf::Digest().add(std::uint64_t{2}).add(std::uint64_t{1});
  EXPECT_NE(ab.value(), ba.value());
  EXPECT_NE(perf::Digest().add(0.0).value(), perf::Digest().add(-0.0).value());
}

}  // namespace
