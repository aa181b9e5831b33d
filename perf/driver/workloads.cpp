#include "driver/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/algorithms.hpp"
#include "core/policy_spec.hpp"
#include "net/channel_assign.hpp"
#include "net/network.hpp"
#include "net/topology_gen.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_kv.hpp"
#include "runner/trials.hpp"
#include "service/sweep_runner.hpp"
#include "service/sweep_spec.hpp"
#include "sim/async_engine.hpp"
#include "sim/clock.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace perf {

namespace {

using namespace m2hew;

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"ns_per_node_step", "ns"},
    {"peak_rss_mb", "MiB"},
    {"verified_trials_frac", "ratio"},
};

constexpr MetricSpec kLayers[] = {
    {"net.topology_gen_s", "s"},
    {"net.channel_assign_s", "s"},
    {"net.network_build_s", "s"},
    {"core.policy_table_s", "s"},
    {"sim.soa_flatten_s", "s"},
    {"sim.soa_ns_per_node_slot", "ns"},
    {"sim.soa_trial_s.p50", "s"},
    {"sim.soa_trial_s.max", "s"},
    {"sim.tx_node_slots", "count"},
    {"sim.listen_node_slots", "count"},
    {"sim.receptions", "count"},
    {"sim.new_link_ratio", "ratio"},
    {"sim.engine_ns_per_node_slot", "ns"},
    {"sim.engine_trial_s.p50", "s"},
    {"sim.engine_trial_s.max", "s"},
    {"sim.async_ns_per_node_frame", "ns"},
    {"sim.async_trial_s.p50", "s"},
    {"sim.async_trial_s.max", "s"},
    {"runner.scenario_build_s", "s"},
    {"runner.trials_s", "s"},
    {"runner.parallel_efficiency", "ratio"},
    {"service.spec_parse_s", "s"},
    {"service.sweep_s", "s"},
    {"service.parallel_efficiency", "ratio"},
    {"service.children_peak_rss_mb", "MiB"},
    {"trace.overhead_frac", "ratio"},
};

constexpr std::string_view kWorkloads[] = {
    "soa_ud_1e5", "soa_ud_1e6_setup", "sweep_engine_faulted",
    "async_alg4_drift"};

// Unit-disk family shared by every workload: side √N keeps the density
// fixed and r = 1.382 gives πr² ≈ 6 neighbours per node (E22's family).
constexpr double kRadius = 1.382;

/// One execution of a workload's seed-derived inputs.
struct Instance {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double run_s = 0.0;       ///< run phase: the denominator's wall time
  std::uint64_t work = 0;   ///< node-steps executed in the run phase
  std::vector<std::uint64_t> digests;  ///< one per trial attempted
  std::vector<bool> ok;                ///< verification verdict per trial
  std::vector<std::string> problems;

  void trial(std::uint64_t digest, bool verified, std::string problem = {}) {
    digests.push_back(digest);
    ok.push_back(verified);
    if (!verified) problems.push_back(std::move(problem));
  }
};

/// Raw counts the traced run turns into layer metrics. Only traced
/// instances fill it, including the serial replays that time single
/// trials of the fanned-out paths.
struct LayerCounts {
  std::uint64_t soa_node_steps = 0;
  std::uint64_t tx_node_slots = 0;
  std::uint64_t listen_node_slots = 0;
  std::uint64_t receptions = 0;
  std::uint64_t covered_links = 0;
  std::uint64_t engine_node_steps = 0;
  std::uint64_t async_node_frames = 0;
};

using InstanceFn = std::function<Instance(std::uint64_t seed, Tracer&,
                                          LayerCounts*, std::vector<Shape>*)>;

struct Workload {
  std::string_view name;
  /// Typical seconds per instance on a 4-core x86 host; sets how many
  /// instances fit in --seconds, but never fewer than min_instances.
  double nominal_instance_s;
  std::size_t min_instances;
  std::size_t trials_per_instance;
  std::size_t threads;
  std::size_t workers;
  InstanceFn run;
};

[[nodiscard]] Shape shape_of(std::string label, const net::Network& network) {
  Shape s;
  s.label = std::move(label);
  s.n = network.node_count();
  s.arcs = network.links().size();
  s.mean_degree = static_cast<double>(s.arcs) / static_cast<double>(s.n);
  s.universe = network.universe_size();
  s.set_size = network.max_channel_set_size();
  s.rho = network.min_span_ratio();
  s.delta = network.max_channel_degree();
  return s;
}

// --- SoA kernel workloads ------------------------------------------------

struct SoaParams {
  net::NodeId n = 0;
  std::uint64_t max_slots = 0;
  bool to_completion = true;
};

Instance soa_instance(const SoaParams& p, std::uint64_t seed, Tracer& tracer,
                      LayerCounts* counts, std::vector<Shape>* shapes) {
  Instance out;
  const util::SeedSequence seeds(seed);
  const auto start = Clock::now();
  ScopedSpan root(tracer, "instance");

  net::Topology topology;
  {
    ScopedSpan span(tracer, "net.topology_gen");
    util::Rng rng(seeds.derive(1));
    topology = net::make_unit_disk_bucketed(
                   p.n, std::sqrt(static_cast<double>(p.n)), kRadius, rng)
                   .topology;
  }
  net::ChannelAssignment assignment;
  {
    ScopedSpan span(tracer, "net.channel_assign");
    assignment = net::homogeneous_assignment(p.n, 4, 4);
  }
  std::unique_ptr<net::Network> network;
  {
    ScopedSpan span(tracer, "net.network_build");
    network = std::make_unique<net::Network>(std::move(topology),
                                             std::move(assignment));
  }
  sim::SoaPolicyTable table;
  {
    ScopedSpan span(tracer, "core.policy_table");
    table = core::build_soa_policy_table(
        *network, core::SyncPolicySpec::algorithm3(32));
  }
  std::unique_ptr<sim::SoaSlotKernel> kernel;
  {
    ScopedSpan span(tracer, "sim.soa_flatten");
    kernel = std::make_unique<sim::SoaSlotKernel>(*network);
  }
  out.setup_s = seconds_since(start);
  if (shapes != nullptr) {
    shapes->push_back(shape_of("unit-disk bucketed, homogeneous, alg3 "
                               "delta_est=32",
                               *network));
  }

  sim::SlotEngineConfig config;
  config.seed = seeds.derive(2);
  config.max_slots = p.max_slots;
  config.stop_when_complete = p.to_completion;
  const auto run_start = Clock::now();
  sim::SoaSlotKernelResult result;
  {
    ScopedSpan span(tracer, "sim.soa_trial");
    result = kernel->run(table, config);
  }
  out.run_s = seconds_since(run_start);

  ScopedSpan verify(tracer, "bench.verify");
  const sim::RadioActivity activity = sim::total_activity(result.activity);
  const std::uint64_t expected_slots =
      p.to_completion ? result.completion_slot + 1 : p.max_slots;
  const bool verified =
      result.slots_executed == expected_slots &&
      (!p.to_completion ||
       (result.complete && result.covered_links == result.total_links)) &&
      activity.total() == slotted_node_steps(p.n, result.slots_executed) &&
      result.receptions >= result.covered_links;
  out.work = slotted_node_steps(p.n, result.slots_executed);
  out.trial(Digest()
                .add(static_cast<std::uint64_t>(result.complete))
                .add(result.completion_slot)
                .add(result.slots_executed)
                .add(result.covered_links)
                .add(result.receptions)
                .add(activity.transmit)
                .add(activity.receive)
                .value(),
            verified,
            "soa trial: incomplete, wrong slot count or coverage mismatch");
  if (counts != nullptr) {
    counts->soa_node_steps += out.work;
    counts->tx_node_slots += activity.transmit;
    counts->listen_node_slots += activity.receive;
    counts->receptions += result.receptions;
    counts->covered_links += result.covered_links;
  }
  out.wall_s = seconds_since(start);
  return out;
}

// --- Sharded engine sweep ------------------------------------------------

constexpr std::size_t kSweepWorkers = 4;
constexpr std::size_t kSweepTrials = 16;

// The E21 / churn_stress shape at N = 1500 on the mean-degree-6 unit-disk
// family, swept over the channel-set size.
[[nodiscard]] std::string sweep_spec_text(std::uint64_t seed) {
  char text[1024];
  std::snprintf(text, sizeof text,
                "[experiment]\n"
                "name = perf_sweep_engine_faulted\n"
                "algorithm = alg3\n"
                "delta-est = 32\n"
                "trials = %zu\n"
                "seed = %llu\n"
                "max-slots = 200000\n"
                "kernel = engine\n"
                "sweep-key = set-size\n"
                "sweep-values = 3 2\n"
                "[scenario]\n"
                "topology = unit-disk\n"
                "n = 1500\n"
                "ud-side = 38.7\n"
                "ud-radius = %.17g\n"
                "channels = uniform\n"
                "universe = 6\n"
                "[faults]\n"
                "crash-prob = 0.2\n"
                "crash-from = 100\n"
                "crash-until = 1500\n"
                "down-min = 100\n"
                "down-max = 600\n"
                "reset-on-recovery = 1\n"
                "burst-loss = 0.5\n"
                "burst-p-gb = 0.02\n"
                "burst-p-bg = 0.1\n",
                kSweepTrials, static_cast<unsigned long long>(seed), kRadius);
  return text;
}

Instance sweep_instance(std::uint64_t seed, Tracer& tracer,
                        LayerCounts* counts, std::vector<Shape>* shapes) {
  Instance out;
  const auto start = Clock::now();
  std::optional<ScopedSpan> root(std::in_place, tracer, "instance");

  service::SweepSpec spec;
  std::string error;
  {
    ScopedSpan span(tracer, "service.spec_parse");
    util::IniParseError ini_error;
    const util::IniFile ini =
        util::IniFile::parse_string(sweep_spec_text(seed), &ini_error);
    if (!ini_error.ok() || !service::parse_sweep_spec(ini, spec, &error)) {
      throw std::runtime_error("sweep spec rejected: " + ini_error.message +
                               error);
    }
  }
  const double parse_s = seconds_since(start);

  // The benchmark's own build of each point's network — the one run_sweep
  // builds internally — for the shape report and the traced replay. It is
  // set-up, not part of the job's latency.
  std::vector<net::Network> networks;
  for (const double value : spec.sweep_values) {
    runner::ScenarioConfig scenario = spec.scenario;
    if (!runner::apply_scenario_setting(scenario, spec.sweep_key,
                                        service::format_sweep_value(value),
                                        &error)) {
      throw std::runtime_error("sweep point rejected: " + error);
    }
    ScopedSpan span(tracer, "runner.scenario_build");
    networks.push_back(runner::build_scenario(scenario, spec.seed));
  }
  out.setup_s = seconds_since(start);
  if (shapes != nullptr) {
    for (std::size_t p = 0; p < networks.size(); ++p) {
      shapes->push_back(shape_of(
          "unit-disk, uniform channels, set-size=" +
              service::format_sweep_value(spec.sweep_values[p]),
          networks[p]));
    }
  }

  service::SweepResult result;
  const auto run_start = Clock::now();
  {
    ScopedSpan span(tracer, "service.sweep");
    if (!service::run_sweep(spec, kSweepWorkers, result, &error)) {
      throw std::runtime_error("run_sweep failed: " + error);
    }
  }
  out.run_s = seconds_since(run_start);

  {
    ScopedSpan verify(tracer, "bench.verify");
    if (result.points.size() != networks.size()) {
      throw std::runtime_error("run_sweep returned the wrong point count");
    }
    for (std::size_t p = 0; p < result.points.size(); ++p) {
      const runner::SyncTrialStats& stats = result.points[p].stats;
      const auto slots = stats.completion_slots.values();
      const auto recall = stats.robustness.surviving_recall.values();
      const auto ghosts = stats.robustness.ghost_entries.values();
      const bool shape_ok = stats.trials == spec.trials &&
                            slots.size() == stats.completed &&
                            recall.size() == spec.trials &&
                            ghosts.size() == spec.trials;
      for (std::size_t t = 0; t < spec.trials; ++t) {
        if (!shape_ok || t >= slots.size()) {
          out.trial(0, false, "sweep trial missed its slot budget");
          continue;
        }
        const bool verified = recall[t] >= 0.0 && recall[t] <= 1.0;
        out.trial(Digest()
                      .add(static_cast<std::uint64_t>(p))
                      .add(static_cast<std::uint64_t>(t))
                      .add(slots[t])
                      .add(recall[t])
                      .add(ghosts[t])
                      .add(static_cast<std::uint64_t>(
                          stats.robustness.recovered_links))
                      .add(static_cast<std::uint64_t>(
                          stats.robustness.rediscovered_links))
                      .value(),
                  verified, "sweep trial: surviving recall out of range");
      }
      out.work += sweep_node_steps(networks[p].node_count(), stats);
    }
  }
  out.wall_s = parse_s + seconds_since(run_start);

  root.reset();

  if (counts != nullptr) {
    ScopedSpan replay_span(tracer, "replay");
    // Serial replay of every trial through the slot engine, seeded exactly
    // as the service seeds its shards: per-trial engine timings, and the
    // sharded results must equal the serial ones.
    const sim::SyncPolicyFactory factory = core::make_policy_factory(
        core::SyncPolicySpec::algorithm3(spec.delta_est));
    const util::SeedSequence seeds(spec.seed);
    std::size_t trial_index = 0;
    for (std::size_t p = 0; p < networks.size(); ++p) {
      const runner::SyncTrialStats& stats = result.points[p].stats;
      for (std::size_t t = 0; t < spec.trials; ++t, ++trial_index) {
        sim::SlotEngineConfig engine;
        engine.max_slots = spec.max_slots;
        engine.faults = spec.faults;
        engine.seed = seeds.derive(t);
        const sim::SlotEngineResult replay = [&] {
          ScopedSpan span(tracer, "sim.engine_trial");
          return sim::run_slot_engine(networks[p], factory, engine);
        }();
        counts->engine_node_steps +=
            slotted_node_steps(networks[p].node_count(), replay.slots_executed);
        const auto slots = stats.completion_slots.values();
        const auto recall = stats.robustness.surviving_recall.values();
        const bool same =
            replay.complete && t < slots.size() && t < recall.size() &&
            static_cast<double>(replay.completion_slot) == slots[t] &&
            replay.robustness.surviving_recall() == recall[t];
        if (!same && out.ok[trial_index]) {
          out.ok[trial_index] = false;
          out.problems.push_back("sharded trial differs from serial replay");
        }
      }
    }
  }
  return out;
}

// --- Async engine --------------------------------------------------------

constexpr std::size_t kAsyncTrials = 8;
constexpr std::size_t kAsyncThreads = 4;
constexpr net::NodeId kAsyncNodes = 1000;

Instance async_instance(std::uint64_t seed, Tracer& tracer,
                        LayerCounts* counts, std::vector<Shape>* shapes) {
  Instance out;
  const util::SeedSequence seeds(seed);
  const auto start = Clock::now();
  std::optional<ScopedSpan> root(std::in_place, tracer, "instance");

  runner::ScenarioConfig scenario;
  scenario.topology = runner::TopologyKind::kUnitDisk;
  scenario.n = kAsyncNodes;
  scenario.ud_side = std::sqrt(static_cast<double>(kAsyncNodes));
  scenario.ud_radius = kRadius;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.universe = 6;
  scenario.set_size = 3;
  std::unique_ptr<net::Network> network;
  {
    ScopedSpan span(tracer, "runner.scenario_build");
    network = std::make_unique<net::Network>(
        runner::build_scenario(scenario, seeds.derive(1)));
  }
  out.setup_s = seconds_since(start);
  if (shapes != nullptr) {
    shapes->push_back(shape_of(
        "unit-disk, uniform channels, alg4 delta_est=32, drift 1/7",
        *network));
  }

  // E5's clock model: piecewise drift at δ = 1/7, frame length 3.
  runner::AsyncTrialConfig trial;
  trial.trials = kAsyncTrials;
  trial.seed = seeds.derive(2);
  trial.threads = kAsyncThreads;
  trial.engine.frame_length = 3.0;
  trial.engine.slots_per_frame = 3;
  trial.engine.clock_builder = [](net::NodeId, std::uint64_t clock_seed) {
    return std::make_unique<sim::PiecewiseDriftClock>(
        sim::PiecewiseDriftClock::Config{.max_drift = 1.0 / 7.0,
                                         .min_segment = 15.0,
                                         .max_segment = 60.0},
        clock_seed);
  };
  const sim::AsyncPolicyFactory factory = core::make_algorithm4(32, 3);

  const auto run_start = Clock::now();
  runner::AsyncTrialStats stats;
  {
    ScopedSpan span(tracer, "runner.trials");
    stats = runner::run_async_trials(*network, factory, trial);
  }
  out.run_s = seconds_since(run_start);

  {
    ScopedSpan verify(tracer, "bench.verify");
    const auto after_ts = stats.completion_after_ts.values();
    const auto frames = stats.max_full_frames.values();
    const bool shape_ok = stats.trials == kAsyncTrials &&
                          after_ts.size() == stats.completed &&
                          frames.size() == stats.completed;
    for (std::size_t t = 0; t < kAsyncTrials; ++t) {
      if (!shape_ok || t >= after_ts.size()) {
        out.trial(0, false, "async trial missed its frame budget");
        continue;
      }
      out.trial(Digest().add(after_ts[t]).add(frames[t]).value(),
                frames[t] > 0.0, "async trial: no full frame before completion");
    }
    out.work = async_node_frames(kAsyncNodes, stats);
  }
  out.wall_s = seconds_since(start);

  root.reset();

  if (counts != nullptr) {
    ScopedSpan replay_span(tracer, "replay");
    // Serial replay of each trial (runner seeds trial t with
    // derive(trial.seed, t)): per-trial engine timings and actual frame
    // counts, and the pooled results must equal the serial ones.
    const util::SeedSequence trial_seeds(trial.seed);
    for (std::size_t t = 0; t < kAsyncTrials; ++t) {
      sim::AsyncEngineConfig engine = trial.engine;
      engine.seed = trial_seeds.derive(t);
      const sim::AsyncEngineResult replay = [&] {
        ScopedSpan span(tracer, "sim.async_trial");
        return sim::run_async_engine(*network, factory, engine);
      }();
      for (const std::uint64_t f : replay.frames_started) {
        counts->async_node_frames += f;
      }
      std::uint64_t max_frames = 0;
      for (const std::uint64_t f : replay.full_frames_since_ts) {
        max_frames = std::max(max_frames, f);
      }
      const auto after_ts = stats.completion_after_ts.values();
      const auto frames = stats.max_full_frames.values();
      const bool same = replay.complete && t < after_ts.size() &&
                        replay.completion_time - replay.t_s == after_ts[t] &&
                        static_cast<double>(max_frames) == frames[t];
      if (!same && out.ok[t]) {
        out.ok[t] = false;
        out.problems.push_back("pooled async trial differs from serial replay");
      }
    }
  }
  return out;
}

[[nodiscard]] std::span<const Workload> workloads() {
  static const Workload table[] = {
      // E22's completion cell: setup plus one serial trial to completion.
      {"soa_ud_1e5", 4.7, 2, 1, 1, 0,
       [](std::uint64_t seed, Tracer& tracer, LayerCounts* counts,
          std::vector<Shape>* shapes) {
         return soa_instance({100'000, 200'000, true}, seed, tracer, counts,
                             shapes);
       }},
      // Setup-dominated: N = 10⁶ and a fixed 20 slots. Its memory-bound
      // setup is the noisiest instance on a shared host, so a run takes
      // at least four.
      {"soa_ud_1e6_setup", 8.2, 4, 1, 1, 0,
       [](std::uint64_t seed, Tracer& tracer, LayerCounts* counts,
          std::vector<Shape>* shapes) {
         return soa_instance({1'000'000, 20, false}, seed, tracer, counts,
                             shapes);
       }},
      {"sweep_engine_faulted", 6.8, 2, 2 * kSweepTrials, 1, kSweepWorkers,
       sweep_instance},
      {"async_alg4_drift", 5.2, 2, kAsyncTrials, kAsyncThreads, 0,
       async_instance},
  };
  return table;
}

[[nodiscard]] std::size_t instance_count(double seconds,
                                         const Workload& workload) {
  return std::max<std::size_t>(
      workload.min_instances,
      static_cast<std::size_t>(
          std::llround(seconds / workload.nominal_instance_s)));
}

void add_problems(RunReport& report, const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    if (report.problems.size() < 8) report.problems.push_back(p);
  }
}

[[nodiscard]] std::vector<double> layer_values(const Tracer& tracer,
                                               const LayerCounts& counts,
                                               const Workload& workload,
                                               const std::vector<double>& overheads) {
  const std::span<const Span> spans = tracer.spans();
  const auto per_run = [&](std::string_view name) {
    return median(self_seconds_per_run(spans, name));
  };
  const auto ns_per = [](std::span<const double> seconds, std::uint64_t steps) {
    return steps == 0 ? 0.0 : sum(seconds) * 1e9 / static_cast<double>(steps);
  };
  const auto efficiency = [](std::span<const double> serial,
                             std::span<const double> pooled, std::size_t width) {
    const double denom = static_cast<double>(width) * sum(pooled);
    return denom <= 0.0 ? 0.0 : sum(serial) / denom;
  };
  const std::vector<double> soa = durations(spans, "sim.soa_trial");
  const std::vector<double> engine = durations(spans, "sim.engine_trial");
  const std::vector<double> async = durations(spans, "sim.async_trial");
  const std::vector<double> pooled = durations(spans, "runner.trials");
  const std::vector<double> sweeps = durations(spans, "service.sweep");
  return {
      per_run("net.topology_gen"),
      per_run("net.channel_assign"),
      per_run("net.network_build"),
      per_run("core.policy_table"),
      per_run("sim.soa_flatten"),
      ns_per(soa, counts.soa_node_steps),
      median(soa),
      maximum(soa),
      static_cast<double>(counts.tx_node_slots),
      static_cast<double>(counts.listen_node_slots),
      static_cast<double>(counts.receptions),
      counts.receptions == 0 ? 0.0
                             : static_cast<double>(counts.covered_links) /
                                   static_cast<double>(counts.receptions),
      ns_per(engine, counts.engine_node_steps),
      median(engine),
      maximum(engine),
      ns_per(async, counts.async_node_frames),
      median(async),
      maximum(async),
      per_run("runner.scenario_build"),
      per_run("runner.trials"),
      async.empty() ? 0.0 : efficiency(async, pooled, workload.threads),
      per_run("service.spec_parse"),
      per_run("service.sweep"),
      engine.empty() ? 0.0 : efficiency(engine, sweeps, workload.workers),
      workload.workers > 0 ? peak_rss_mib(true) : 0.0,
      median(overheads),
  };
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> layer_metrics() { return kLayers; }
std::span<const std::string_view> workload_names() { return kWorkloads; }

bool run_workload(std::string_view name, const RunOptions& options,
                  Tracer& tracer, RunReport& report) {
  const auto all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == name;
  });
  if (it == all.end()) return false;
  const Workload& workload = *it;

  report = RunReport{};
  report.threads = workload.threads;
  report.workers = workload.workers;
  report.instances = instance_count(options.seconds, workload);
  // A traced instance also runs two untraced twins and, on the fanned-out
  // paths, a serial replay of every trial; one keeps the run short.
  if (options.trace) report.instances = 1;

  LayerCounts counts;
  std::vector<double>& setups = report.setup_s;
  std::vector<double>& walls = report.wall_s;
  std::vector<double>& ns_per_step = report.ns_per_node_step;
  std::vector<double> overheads;
  std::vector<bool> ok;
  const util::SeedSequence seeds(options.seed);
  for (std::size_t r = 0; r < report.instances; ++r) {
    const std::uint64_t seed = seeds.derive(r);
    std::vector<Shape>* shapes = r == 0 ? &report.shapes : nullptr;
    try {
      Instance inst;
      if (options.trace) {
        // Untraced twins before and after: the traced instance must
        // reproduce their digests bit for bit. The first also takes the
        // process's cold-start cost, so the cost of tracing is measured
        // against the second.
        const auto untraced = [&] {
          tracer.set_enabled(false);
          Instance plain = workload.run(seed, tracer, nullptr, nullptr);
          tracer.set_enabled(true);
          return plain;
        };
        const Instance before = untraced();
        tracer.set_run(r);
        inst = workload.run(seed, tracer, &counts, shapes);
        const Instance after = untraced();
        for (std::size_t t = 0; t < inst.digests.size(); ++t) {
          const auto differs = [&](const Instance& twin) {
            return t >= twin.digests.size() || twin.digests[t] != inst.digests[t];
          };
          if (differs(before) || differs(after)) {
            if (inst.ok[t]) inst.problems.push_back("tracing changed a result");
            inst.ok[t] = false;
          }
        }
        overheads.push_back((inst.wall_s - after.wall_s) / after.wall_s);
      } else {
        inst = workload.run(seed, tracer, nullptr, shapes);
      }
      setups.push_back(inst.setup_s);
      walls.push_back(inst.wall_s);
      if (inst.work > 0) {
        ns_per_step.push_back(inst.run_s * 1e9 / static_cast<double>(inst.work));
      }
      report.digests.insert(report.digests.end(), inst.digests.begin(),
                            inst.digests.end());
      ok.insert(ok.end(), inst.ok.begin(), inst.ok.end());
      add_problems(report, inst.problems);
    } catch (const std::exception& e) {
      add_problems(report, {std::string("instance threw: ") + e.what()});
      report.digests.insert(report.digests.end(),
                            workload.trials_per_instance, 0);
      ok.insert(ok.end(), workload.trials_per_instance, false);
    }
  }

  if (const std::size_t mismatches =
          check_reference(report.digests, options.reference, ok)) {
    add_problems(report, {std::to_string(mismatches) +
                          " trial(s) differ from the reference digests"});
  }
  report.attempted = ok.size();
  report.failed = static_cast<std::size_t>(std::count(ok.begin(), ok.end(), false));

  if (options.trace) {
    report.values = layer_values(tracer, counts, workload, overheads);
  } else {
    double peak = peak_rss_mib(false);
    if (workload.workers > 0) peak += peak_rss_mib(true);
    report.values = {
        median(setups),
        median(walls),
        median(ns_per_step),
        peak,
        1.0 - failed_fraction(ok),
    };
  }
  return true;
}

}  // namespace perf
