// m2hew_cli — run neighbor-discovery experiments from the command line.
//
// Examples:
//   m2hew_cli --topology=clique --n=16 --algorithm=alg3 --trials=30
//   m2hew_cli --topology=unit-disk --n=24 --channels=primary-users
//             --algorithm=alg4 --delta-est=8 --drift=0.14   (one line)
//   m2hew_cli --topology=line --channels=chain --set-size=8 --overlap=2
//             --algorithm=alg1 --epsilon=0.05               (one line)
//
// Run with --help for the full flag list. Every scenario, fault, mobility
// and adversary flag is a row of the knob table (runner/scenario_kv.hpp),
// read, range-checked and listed in --help from there; the algorithms come
// from the algorithm registry (runner/algorithm_registry.hpp).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/algorithms.hpp"
#include "core/bounds.hpp"
#include "core/duty_cycle.hpp"
#include "core/multi_radio.hpp"
#include "core/termination.hpp"
#include "core/trust.hpp"
#include "net/serialize.hpp"
#include "net/topology_provider.hpp"
#include "runner/algorithm_registry.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_kv.hpp"
#include "runner/trials.hpp"
#include "sim/clock.hpp"
#include "sim/encounter.hpp"
#include "sim/fault_plan.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

/// One-line usage diagnostic; exits 2 so bad knobs fail fast instead of
/// tripping a CHECK deep in the engine.
[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "m2hew_cli: %s\n", message.c_str());
  std::exit(2);
}

void require_flag(bool ok, const char* message) {
  if (!ok) fail(message);
}

/// The CLI's preset: the scenario a bare `m2hew_cli` runs. Flags override
/// it key by key.
[[nodiscard]] runner::ScenarioConfig preset_scenario() {
  runner::ScenarioConfig config;
  config.n = 16;
  config.universe = 10;
  config.channels = runner::ChannelKind::kUniformRandom;
  config.ud_radius = 0.4;
  return config;
}

void print_usage() {
  runner::ScenarioConfig scenario = preset_scenario();
  sim::SlotFaultPlan faults;
  runner::MobilitySpec mobility;
  core::TrustConfig trust;
  const runner::KnobTarget defaults{&scenario, &faults, &mobility, &trust};
  const auto section = [&](runner::KnobSection s) {
    return runner::knob_flag_help(s, defaults);
  };
  std::printf(
      "m2hew_cli — M2HeW neighbor-discovery simulator\n\n"
      "Network (INI [scenario]; --channels=chain defaults --topology to "
      "line,\n"
      "--channels=primary-users to unit-disk, --channels=variable "
      "--max-size to\n"
      "--set-size):\n%s\n"
      "Algorithm:\n"
      "  --algorithm=<%s|alg4>\n"
      "                              (default alg3)\n"
      "  --policy=<same values>      alias for --algorithm (competitor-"
      "tournament\n"
      "                              spelling; --algorithm wins when both "
      "given)\n"
      "  --delta-est=<bound>         degree bound for alg1/alg3/alg4 "
      "(default 8)\n"
      "  --terminate-after=<slots>   optional silence-based termination\n"
      "  --radios=<R>                multi-radio alg3 (R transceivers per "
      "node;\n"
      "                              R > 1 takes no --terminate-after and "
      "needs\n"
      "                              --algorithm=alg3, --kernel=engine)\n\n"
      "Network I/O:\n"
      "  --save-network=<path>       write the generated network and exit\n"
      "  --load-network=<path>       run on a previously saved network "
      "(overrides\n"
      "                              all network flags)\n\n"
      "Execution:\n"
      "  --kernel=<engine|soa>       sync inner loop: classic slot engine or "
      "the\n"
      "                              structure-of-arrays kernel (default "
      "engine;\n"
      "                              soa supports %s,\n"
      "                              identical results, built for large N)\n"
      "  --trials=<count>            (default 30)\n"
      "  --threads=<workers>         trial fan-out; 0 = all cores, 1 = serial\n"
      "                              (default 0; results identical either "
      "way)\n"
      "  --seed=<seed>               (default 1)\n"
      "  --epsilon=<eps>             for bound reporting (default 0.1)\n"
      "  --max-slots=<budget>        sync slot budget (default 10000000)\n"
      "  --loss=<p>                  per-reception loss probability (default "
      "0)\n"
      "  --drift=<delta>             alg4 max clock drift (default 1/7)\n"
      "  --frame-length=<L>          alg4 frame length (default 3)\n\n"
      "Mobility (INI [mobility]; random waypoint over the unit-disk square; "
      "slotted\n"
      "only; duty cycling needs --mobility=rwp and --kernel=engine):\n"
      "  --mobility=<off|rwp>        epoch-based link dynamics (default off;\n"
      "                              requires --topology=unit-disk and a\n"
      "                              position-independent channel kind)\n"
      "%s\n"
      "Fault injection (INI [faults]; all off by default):\n%s"
      "  --drift-wander=<delta>      alg4 drift re-drawn per segment within "
      "delta\n"
      "                              (replaces --drift's fixed-rate clock)\n\n"
      "Adversarial nodes and trust-scored neighbor maintenance (INI "
      "[adversary];\n"
      "all off by default; --trust requires --kernel=engine):\n%s",
      section(runner::KnobSection::kScenario).c_str(),
      runner::algorithm_names(false, "|").c_str(),
      runner::algorithm_names(true, "/").c_str(),
      section(runner::KnobSection::kMobility).c_str(),
      section(runner::KnobSection::kFaults).c_str(),
      section(runner::KnobSection::kAdversary).c_str());
}

/// The async engine's copy of the slotted fault plan (slots → real time).
[[nodiscard]] sim::AsyncFaultPlan async_faults(const sim::SlotFaultPlan& in) {
  sim::AsyncFaultPlan out;
  out.churn.crash_probability = in.churn.crash_probability;
  out.churn.earliest_crash = static_cast<double>(in.churn.earliest_crash);
  out.churn.latest_crash = static_cast<double>(in.churn.latest_crash);
  out.churn.min_down = static_cast<double>(in.churn.min_down);
  out.churn.max_down = static_cast<double>(in.churn.max_down);
  out.churn.reset_policy_on_recovery = in.churn.reset_policy_on_recovery;
  out.burst_loss = in.burst_loss;
  out.adversary = in.adversary;
  return out;
}

/// Everything after --help: validates the flags, builds the network, runs
/// the trials and prints the report. Returns the process exit code; main()
/// reports unknown flags after it on every path.
[[nodiscard]] int run(const util::Flags& flags) {
  // Range-check every CLI-only knob up front; the knob-table flags are
  // checked by apply_flag_knobs / validate_knobs below.
  require_flag(flags.get_int("trials", 30) >= 1, "--trials must be >= 1");
  require_flag(flags.get_int("threads", 0) >= 0,
               "--threads must be >= 0 (0 = all cores)");
  require_flag(flags.get_int("seed", 1) >= 0, "--seed must be >= 0");
  require_flag(flags.get_int("delta-est", 8) >= 1,
               "--delta-est must be >= 1");
  require_flag(flags.get_int("max-slots", 10'000'000) >= 1,
               "--max-slots must be >= 1");
  require_flag(flags.get_int("radios", 1) >= 1, "--radios must be >= 1");
  require_flag(flags.get_int("terminate-after", 0) >= 0,
               "--terminate-after must be >= 0");
  const double loss = flags.get_double("loss", 0.0);
  require_flag(loss >= 0.0 && loss <= 1.0, "--loss must be in [0, 1]");
  const double epsilon = flags.get_double("epsilon", 0.1);
  require_flag(epsilon > 0.0 && epsilon < 1.0, "--epsilon must be in (0, 1)");
  const double drift = flags.get_double("drift", 1.0 / 7.0);
  require_flag(drift >= 0.0 && drift < 1.0, "--drift must be in [0, 1)");
  const double wander = flags.get_double("drift-wander", 0.0);
  require_flag(wander >= 0.0 && wander < 1.0,
               "--drift-wander must be in [0, 1)");
  const double frame_length = flags.get_double("frame-length", 3.0);
  require_flag(frame_length > 0.0, "--frame-length must be > 0");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto delta_est =
      static_cast<std::size_t>(flags.get_int("delta-est", 8));
  const auto trials = static_cast<std::size_t>(flags.get_int("trials", 30));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  // --policy= is an alias for --algorithm= (the tournament bench and the
  // related-work docs spell it "policy"); --algorithm wins when both are
  // given. Both flags are always consumed so neither shows up as a typo.
  const std::string algorithm_flag = flags.get_string("algorithm", "");
  const std::string policy_flag = flags.get_string("policy", "");
  const std::string algorithm =
      !algorithm_flag.empty() ? algorithm_flag
                              : (!policy_flag.empty() ? policy_flag
                                                      : std::string("alg3"));
  const runner::AlgorithmEntry* entry = runner::find_algorithm(algorithm);
  if (entry == nullptr) fail("unknown --algorithm=" + algorithm);
  const auto terminate_after =
      static_cast<std::uint64_t>(flags.get_int("terminate-after", 0));
  const std::string kernel_flag = flags.get_string("kernel", "engine");
  require_flag(kernel_flag == "engine" || kernel_flag == "soa",
               "--kernel must be engine or soa");
  const bool soa = kernel_flag == "soa";
  const runner::SyncKernel kernel =
      soa ? runner::SyncKernel::kSoa : runner::SyncKernel::kEngine;
  // --radios > 1 runs multi-radio Algorithm 3 on the slot engine; flags
  // that select anything else are rejected rather than silently ignored.
  const auto radios = static_cast<unsigned>(flags.get_int("radios", 1));
  require_flag(radios == 1 || algorithm == "alg3",
               "--radios > 1 runs multi-radio alg3 only (--algorithm/--policy "
               "must be alg3)");
  require_flag(radios == 1 || terminate_after == 0,
               "--radios > 1 does not support --terminate-after");
  require_flag(radios == 1 || !soa, "--radios > 1 requires --kernel=engine");
  if (soa && entry->spec == nullptr) {
    // The SoA kernel consumes a policy-as-data table, so it covers
    // exactly the spec-representable algorithms.
    fail("--kernel=soa supports only " + runner::algorithm_names(true, "/") +
         " (got --algorithm=" + algorithm + ")");
  }
  require_flag(!soa || terminate_after == 0,
               "--terminate-after requires --kernel=engine");
  const std::string mobility_mode = flags.get_string("mobility", "off");
  require_flag(mobility_mode == "off" || mobility_mode == "rwp",
               "--mobility must be off or rwp");
  const std::string load_path = flags.get_string("load-network");
  const std::string save_path = flags.get_string("save-network");

  // The knob-table flags. The preset and the channel-kind couplings are
  // only defaults: an explicit flag always wins, and one that contradicts
  // a coupling fails validate_knobs.
  runner::ScenarioConfig scenario = preset_scenario();
  sim::SlotFaultPlan faults;
  runner::MobilitySpec mobility;
  mobility.enabled = mobility_mode == "rwp";
  core::TrustConfig trust;
  std::string error;
  if (!runner::apply_flag_knobs(flags, {&scenario, &faults, &mobility, &trust},
                                &error)) {
    fail(error);
  }
  if (!flags.has("topology")) {
    if (scenario.channels == runner::ChannelKind::kChainOverlap) {
      scenario.topology = runner::TopologyKind::kLine;
    } else if (scenario.channels == runner::ChannelKind::kPrimaryUsers) {
      scenario.topology = runner::TopologyKind::kUnitDisk;
    }
  }
  if (scenario.channels == runner::ChannelKind::kVariableRandom &&
      !flags.has("max-size")) {
    scenario.max_size = scenario.set_size;
  }
  // A loaded network overrides every network flag, so only the rest of
  // the knobs are held to the rules.
  if (!runner::validate_knobs(
          {load_path.empty() ? &scenario : nullptr, &faults, &mobility,
           &trust},
          {.loss_probability = loss, .soa_kernel = soa},
          runner::KnobSpelling::kFlag, &error)) {
    fail(error);
  }
  require_flag(!trust.enabled || entry->slotted,
               "--trust is slotted-only (alg4 runs on real time)");
  require_flag(!trust.enabled || radios == 1,
               "--trust supports single-radio runs only");
  if (mobility.enabled) {
    require_flag(load_path.empty(),
                 "--mobility=rwp cannot run on a loaded network "
                 "(trajectories need the unit-disk scenario)");
    require_flag(save_path.empty(),
                 "--mobility=rwp has no single link set to --save-network");
    require_flag(entry->slotted,
                 "--mobility=rwp is slotted-only (alg4 runs on real time)");
    require_flag(radios == 1,
                 "--mobility=rwp supports single-radio runs only");
  }

  sim::SlotEngineCommon engine_knobs;
  engine_knobs.loss_probability = loss;
  engine_knobs.faults = faults;
  std::string scenario_text;
  std::optional<net::Network> owned_network;
  std::unique_ptr<net::EpochTopologyProvider> provider;
  if (mobility.enabled) {
    // Mobile runs own their network through the epoch provider: engines
    // run on the union network and swap per-epoch adjacency internally.
    provider = runner::build_mobility_provider(scenario, mobility, seed);
    scenario_text = runner::describe(scenario, engine_knobs, kernel) +
                    runner::describe_mobility(mobility);
  } else if (!load_path.empty()) {
    scenario_text = "loaded from " + load_path;
    try {
      owned_network.emplace(net::load_network_file(load_path));
    } catch (const std::runtime_error& e) {
      fail(load_path + ": " + e.what());
    }
  } else {
    scenario_text = runner::describe(scenario, engine_knobs, kernel);
    owned_network = runner::try_build_scenario(scenario, seed, &error);
    if (!owned_network.has_value()) fail(error);
  }
  const net::Network& network =
      provider != nullptr ? provider->union_network() : *owned_network;

  if (!save_path.empty()) {
    net::save_network_file(save_path, network);
    std::printf("network written to %s\n", save_path.c_str());
    return 0;
  }

  core::BoundParams params;
  params.n = network.node_count();
  params.s = network.max_channel_set_size();
  params.delta = std::max<std::size_t>(1, network.max_channel_degree());
  params.delta_est = delta_est;
  params.rho = network.min_span_ratio();
  params.epsilon = epsilon;

  std::printf("scenario: %s\n", scenario_text.c_str());
  std::printf("policy:   %s\n",
              runner::describe_algorithm(*entry, delta_est).c_str());
  std::printf("network:  N=%u S=%zu Delta=%zu rho=%.4f links=%zu arcs=%zu\n",
              network.node_count(), params.s, params.delta, params.rho,
              network.links().size(), network.topology().arc_count());

  util::Table table({"metric", "value"});
  auto report_throughput = [&](const auto& stats) {
    table.row().cell("threads").cell(stats.threads_used);
    table.row().cell("wall time (s)").cell(stats.elapsed_seconds, 3);
    table.row().cell("trials/sec").cell(stats.trials_per_second(), 1);
  };
  const double bound =
      entry->bound != nullptr ? entry->bound(params, network) : 0.0;

  runner::RobustnessStats robustness;
  runner::EncounterStats encounter_stats;
  if (!entry->slotted) {
    runner::AsyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = seed;
    trial.threads = threads;
    trial.engine.frame_length = frame_length;
    trial.engine.max_real_time = 1e8;
    trial.engine.loss_probability = loss;
    trial.engine.faults = async_faults(faults);
    if (wander > 0.0) {
      trial.engine.faults.drift_wander.enabled = true;
      trial.engine.faults.drift_wander.max_drift = wander;
    }
    if (drift > 0.0) {
      trial.engine.clock_builder = [drift](net::NodeId,
                                           std::uint64_t clock_seed) {
        return std::make_unique<sim::PiecewiseDriftClock>(
            sim::PiecewiseDriftClock::Config{.max_drift = drift,
                                             .min_segment = 15.0,
                                             .max_segment = 60.0},
            clock_seed);
      };
    }
    auto factory = core::make_algorithm4(delta_est);
    if (terminate_after > 0) {
      factory = core::with_termination(std::move(factory), terminate_after);
    }
    const auto stats = runner::run_async_trials(network, factory, trial);
    const auto frames = stats.max_full_frames.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean full frames").cell(frames.mean, 1);
    table.row().cell("p95 full frames").cell(frames.p95, 1);
    table.row().cell(entry->bound_label).cell(bound, 0);
    report_throughput(stats);
    robustness = stats.robustness;
  } else {
    runner::SyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = seed;
    trial.threads = threads;
    trial.engine.max_slots = static_cast<std::uint64_t>(
        flags.get_int("max-slots", 10'000'000));
    trial.engine.loss_probability = loss;
    trial.engine.faults = faults;

    // Mobile run: point the engines at the epoch schedule and track
    // per-contact detection through the reception hook.
    std::optional<sim::EncounterIndex> encounter_index;
    if (provider != nullptr) {
      trial.engine.topology = provider.get();
      trial.engine.epoch_length = mobility.epoch_slots;
      encounter_index.emplace(*provider, mobility.epoch_slots,
                              trial.engine.max_slots);
      trial.encounters = &*encounter_index;
    }

    runner::SyncTrialStats stats;
    std::string_view bound_name = entry->bound_label;
    if (soa) {
      trial.kernel = runner::SyncKernel::kSoa;
      stats = runner::run_sync_trials(network, entry->spec(delta_est), trial);
    } else if (radios > 1) {
      // Multi-radio Algorithm 3 (extension; cf. related work [19]) on the
      // same slot engine and trial runner as every single-radio policy.
      table.row().cell("radios").cell(static_cast<std::size_t>(radios));
      stats = runner::run_sync_trials(
          network, core::make_multi_radio_alg3(radios, delta_est), trial);
      bound_name = "thm3 slot bound (one radio)";
    } else {
      sim::SyncPolicyFactory factory = runner::make_algorithm_factory(
          *entry, delta_est, network.universe_size());
      if (terminate_after > 0) {
        factory = core::with_termination(std::move(factory), terminate_after);
      }
      if (mobility.enabled) {
        factory = core::with_duty_cycle(std::move(factory), mobility.duty_on,
                                        mobility.duty_period);
      }
      // Identity when --trust is off, so untrusted runs are untouched.
      factory = core::with_trust(std::move(factory), trust);
      stats = runner::run_sync_trials(network, factory, trial);
    }
    const auto summary = stats.completion_slots.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean slots").cell(summary.mean, 1);
    table.row().cell("p50 slots").cell(summary.p50, 1);
    table.row().cell("p95 slots").cell(summary.p95, 1);
    table.row().cell("max slots").cell(summary.max, 1);
    table.row().cell(bound_name).cell(bound, 0);
    report_throughput(stats);
    robustness = stats.robustness;
    encounter_stats = stats.encounters;
  }

  std::printf("\n%s", table.render().c_str());
  runner::print_robustness(robustness);
  if (encounter_stats.enabled()) runner::print_encounters(encounter_stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  // A malformed value (--duty-on=abc) is a usage error like any other
  // flag-validation failure: one-line diagnostic, exit 2 — never a CHECK
  // abort.
  flags.on_parse_error([](const std::string& message) { fail(message); });
  if (flags.has("help")) {
    print_usage();
    return 0;
  }
  const int code = run(flags);
  for (const auto& name : flags.unconsumed()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 name.c_str());
  }
  return code;
}
