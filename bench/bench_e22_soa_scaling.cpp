// E22 — SoA slot-kernel scaling (docs/BENCHMARKS.md).
//
// The paper's asymptotic claims live at node counts the object-per-node
// slot engine cannot reach: a heap-allocated virtual policy per node and a
// neighbor-table oracle per trial. The structure-of-arrays kernel
// (sim/soa_kernel.hpp) replaces them with flat per-node arrays and CSR
// coverage, which is what this bench measures:
//
//   1. a slots/sec-vs-N curve, N = 10³..10⁶, on the two sparse families
//      the large-N story needs (bucketed unit-disk and skip-sampled
//      Erdős–Rényi, both O(n+m) generators), and
//   2. full discovery runs to completion at N >= 10⁵ on both families —
//      the paper's termination event, executed end to end.
//
// Every run goes through runner::run_sync_trials with kernel=soa, so each
// point lands in the BENCH_e22 JSON artifact's run log. The kernel's
// results are pinned bit-identical to the slot engine by
// tests/soa_kernel_test.cpp; this binary only asserts the cheap proxy
// (completion at N >= 10⁵) and reports throughput.
//
// CI smoke caps the sweep with M2HEW_E22_MAX_N (e.g. 20000); without the
// env var the full curve runs and regenerates results/BENCH_e22.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "runner/report.hpp"
#include "runner/trials.hpp"
#include "sim/soa_kernel.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

constexpr net::ChannelId kUniverse = 4;   // homogeneous channels
constexpr std::size_t kDeltaEst = 32;     // Algorithm 3 degree bound
constexpr double kMeanDegree = 6.0;

[[nodiscard]] std::uint64_t max_sweep_n() {
  const char* env = std::getenv("M2HEW_E22_MAX_N");
  return env == nullptr ? 1'000'000 : std::strtoull(env, nullptr, 10);
}

// Both families target mean degree ~6 at every N, so the per-slot work per
// node is N-independent and the curve isolates the kernel's scaling.
[[nodiscard]] net::Network sparse_network(const std::string& family,
                                          net::NodeId n, std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology topology =
      family == "unit-disk"
          // side √n keeps density constant; πr² ≈ 6 neighbors.
          ? net::make_unit_disk_bucketed(n, std::sqrt(static_cast<double>(n)),
                                         1.382, rng)
                .topology
          : net::make_erdos_renyi_sparse(
                n, kMeanDegree / static_cast<double>(n), rng);
  auto assignment = net::homogeneous_assignment(n, kUniverse, kUniverse);
  return net::Network(std::move(topology), std::move(assignment));
}

[[nodiscard]] core::SyncPolicySpec spec() {
  return core::SyncPolicySpec::algorithm3(kDeltaEst);
}

// Mean completion slot over the completed trials; 0 only when none
// completed.
[[nodiscard]] double mean_completion_slot(const runner::SyncTrialStats& s) {
  return s.completed == 0 ? 0.0 : s.completion_slots.summarize().mean;
}

// ROADMAP's headline unit: wall time over N × slots executed (all trials).
[[nodiscard]] double ns_per_node_slot(double elapsed_s, std::uint64_t n,
                                      double slots_executed) {
  const double node_slots = static_cast<double>(n) * slots_executed;
  return node_slots <= 0.0 ? 0.0 : elapsed_s * 1e9 / node_slots;
}

// Timed section: fixed-slot kernel runs at a mid-size N (the full curve is
// the reproduction section's job; benchmark timing stays CI-friendly).
void BM_SoaKernelSlots(benchmark::State& state) {
  const auto n = static_cast<net::NodeId>(state.range(0));
  const net::Network network = sparse_network("unit-disk", n, 22);
  const sim::SoaPolicyTable table =
      core::build_soa_policy_table(network, spec());
  sim::SoaSlotKernel kernel(network);
  sim::SlotEngineConfig config;
  config.max_slots = 50;
  config.stop_when_complete = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    const auto result = kernel.run(table, config);
    benchmark::DoNotOptimize(result.receptions);
  }
  state.counters["slots_per_s"] = benchmark::Counter(
      static_cast<double>(config.max_slots),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SoaKernelSlots)->ArgNames({"n"})->Arg(4096)->Arg(16384);

void reproduce_table() {
  runner::print_banner(
      "E22 / SoA kernel scaling",
      "the structure-of-arrays kernel sustains fixed-slot throughput to "
      "N = 10^6 and completes discovery end to end at N >= 10^5",
      "unit-disk (bucketed) and Erdos-Renyi (skip-sampled), mean degree "
      "~6, homogeneous |U|=4, Alg 3 D_est=32, serial trials");

  auto csv_file = runner::open_results_csv("e22_soa_scaling");
  util::CsvWriter csv(csv_file);
  csv.header({"family", "n", "mode", "slots", "trials", "completed",
              "mean_completion_slot", "elapsed_s", "slots_per_s",
              "ns_per_node_slot"});

  const std::uint64_t cap = max_sweep_n();
  util::Table table({"family", "N", "mode", "slots/run", "completed",
                     "slots/sec", "ns/node-slot"});

  // 1. Fixed-slot throughput curve. The slot budget shrinks with N so
  // every point does comparable total work (~2e7 node-slots minimum).
  const std::vector<std::uint64_t> curve_ns = {1'000, 10'000, 100'000,
                                               1'000'000};
  for (const std::string family : {"unit-disk", "erdos-renyi"}) {
    for (const std::uint64_t n : curve_ns) {
      if (n > cap) continue;
      const std::uint64_t slots =
          std::max<std::uint64_t>(50, 20'000'000 / n);
      const net::Network network =
          sparse_network(family, static_cast<net::NodeId>(n), 22 + n);

      runner::SyncTrialConfig trial;
      trial.trials = 1;
      trial.seed = 7;
      trial.threads = 1;
      trial.kernel = runner::SyncKernel::kSoa;
      trial.engine.max_slots = slots;
      trial.engine.stop_when_complete = false;
      const auto stats = runner::run_sync_trials(network, spec(), trial);

      const double slots_per_s =
          stats.elapsed_seconds <= 0.0
              ? 0.0
              : static_cast<double>(slots) / stats.elapsed_seconds;
      // A curve trial runs its full budget (stop_when_complete is off);
      // its completion slot is still recorded.
      const double mean_slot = mean_completion_slot(stats);
      const double ns = ns_per_node_slot(
          stats.elapsed_seconds, n, static_cast<double>(slots) *
                                        static_cast<double>(stats.trials));
      csv.field(family).field(n).field("curve").field(slots);
      csv.field(stats.trials).field(stats.completed).field(mean_slot);
      csv.field(stats.elapsed_seconds).field(slots_per_s).field(ns);
      csv.end_row();
      table.row()
          .cell(family)
          .cell(static_cast<std::size_t>(n))
          .cell("curve")
          .cell(static_cast<std::size_t>(slots))
          .cell(stats.completed)
          .cell(slots_per_s, 0)
          .cell(ns, 1);
    }
  }

  // 2. Completion runs: full discovery at the largest N the cap allows
  // (>= 10⁵ in the checked-in artifact).
  bool completion_ok = true;
  const auto completion_n =
      static_cast<std::uint64_t>(std::min<std::uint64_t>(cap, 100'000));
  for (const std::string family : {"unit-disk", "erdos-renyi"}) {
    const net::Network network =
        sparse_network(family, static_cast<net::NodeId>(completion_n), 99);

    runner::SyncTrialConfig trial;
    trial.trials = 2;
    trial.seed = 13;
    trial.threads = 1;
    trial.kernel = runner::SyncKernel::kSoa;
    trial.engine.max_slots = 200'000;
    trial.engine.stop_when_complete = true;
    const auto stats = runner::run_sync_trials(network, spec(), trial);
    benchx::report_throughput(family.c_str(), stats);
    completion_ok = completion_ok && stats.completed == stats.trials;

    const double mean_slot = mean_completion_slot(stats);
    // Slots executed per run: a completed trial stops after its covering
    // slot (index completion_slot), an incomplete one runs the budget.
    const double mean_executed =
        ((mean_slot + 1.0) * static_cast<double>(stats.completed) +
         static_cast<double>(trial.engine.max_slots) *
             static_cast<double>(stats.trials - stats.completed)) /
        static_cast<double>(stats.trials);
    const double slots_per_s =
        stats.elapsed_seconds <= 0.0
            ? 0.0
            : mean_executed * static_cast<double>(stats.trials) /
                  stats.elapsed_seconds;
    const double ns = ns_per_node_slot(
        stats.elapsed_seconds, completion_n,
        mean_executed * static_cast<double>(stats.trials));
    csv.field(family).field(completion_n).field("completion");
    csv.field(mean_executed);
    csv.field(stats.trials).field(stats.completed).field(mean_slot);
    csv.field(stats.elapsed_seconds).field(slots_per_s).field(ns);
    csv.end_row();
    table.row()
        .cell(family)
        .cell(static_cast<std::size_t>(completion_n))
        .cell("completion")
        .cell(mean_executed, 1)
        .cell(stats.completed)
        .cell(slots_per_s, 0)
        .cell(ns, 1);
  }

  std::printf("\n%s\n", table.render().c_str());
  runner::print_verdict(
      completion_ok,
      "every completion trial finished discovery within the slot budget");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cap = std::to_string(max_sweep_n());
  return m2hew::benchx::bench_main(
      argc, argv, "e22_soa_scaling", reproduce_table,
      {{"families", "unit-disk (bucketed), erdos-renyi (skip-sampled)"},
       {"mean_degree", "6"},
       {"channels", "homogeneous |U|=4"},
       {"policy", "algorithm3 delta_est=32"},
       {"kernel", "soa"},
       {"curve_n", "1e3,1e4,1e5,1e6 (capped at " + cap + ")"},
       {"completion_n", "min(1e5, cap), 2 trials/family"},
       {"threads", "1 (serial timing)"}});
}
