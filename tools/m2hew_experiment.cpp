// m2hew_experiment — run a parameter sweep described by an INI file.
//
//   $ m2hew_experiment sweep.ini
//
// Example file:
//
//   [experiment]
//   name        = rho_sweep
//   algorithm   = alg3          ; alg1 | alg2 | alg3 | alg4 | baseline |
//                               ; adaptive | mcdis | rendezvous |
//                               ; consistent-hop
//   delta-est   = 8
//   trials      = 30
//   threads     = 0             ; trial fan-out: 0 = all cores, 1 = serial
//   seed        = 1
//   max-slots   = 1000000
//   sweep-key   = overlap       ; any scenario key (see scenario_kv.hpp)
//   sweep-values = 8 4 2 1
//   plot        = 1             ; optional ascii plot of mean vs sweep value
//
//   [scenario]
//   topology  = line
//   channels  = chain
//   n         = 12
//   set-size  = 8
//
//   [faults]                  ; optional deterministic fault injection
//   crash-prob  = 0.3         ; per-node crash probability (node churn)
//   crash-from  = 200         ; crash window [crash-from, crash-until]
//   crash-until = 2000
//   down-min    = 100         ; downtime window [down-min, down-max]
//   down-max    = 1000
//   reset-on-recovery = 1     ; restart policy state after recovery
//   burst-loss  = 0.9         ; Gilbert-Elliott bad-state loss (bursty)
//   burst-p-gb  = 0.01        ; good->bad transition probability
//   burst-p-bg  = 0.1         ; bad->good transition probability
//
//   [mobility]                ; optional random-waypoint link dynamics
//   epochs      = 8           ; topology schedule length (epochs)
//   epoch-slots = 500         ; slots per epoch
//   speed-min   = 0.0         ; node speed range, units per epoch
//   speed-max   = 0.05
//   pause-epochs = 0          ; max pause at a reached waypoint
//   duty-on     = 1           ; policy active duty-on slots of every
//   duty-period = 1           ; duty-period window (1/1 = always on)
//
//   [adversary]               ; optional adversarial nodes + trust defence
//   fraction    = 0.2         ; fraction of nodes turned adversarial
//   attack      = mix         ; jam | byzantine | non-responder | mix
//   byzantine-tx = 0.45       ; Byzantine per-slot transmit probability
//   victim-fraction = 0.5     ; non-responder silent-victim fraction
//   trust       = 1           ; wrap the policy with the trust table
//   trust-threshold = 0.3     ; (and trust-reward, trust-rate-penalty,
//                             ; trust-decay, trust-rate-window,
//                             ; trust-max-per-window, trust-block-slots,
//                             ; trust-entry-window)
//
// [mobility] requires a unit-disk scenario with a position-independent
// channel kind (homogeneous / uniform / variable); runs then track
// per-contact detection latency, missed contacts and energy per detected
// contact (sim/encounter.hpp).
//
// Output: a table (one row per sweep value), optional plot, robustness
// metrics per sweep value when [faults] is present, encounter metrics per
// sweep value when [mobility] is present, and results/<name>.csv.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/competitors.hpp"
#include "core/duty_cycle.hpp"
#include "core/trust.hpp"
#include "net/topology_provider.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_kv.hpp"
#include "runner/trials.hpp"
#include "sim/encounter.hpp"
#include "sim/fault_plan.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

namespace {

using namespace m2hew;

[[nodiscard]] std::string format_value(double value) {
  char buf[32];
  if (value == std::floor(value)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", value);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: m2hew_experiment <file.ini>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  util::IniParseError parse_error;
  const util::IniFile ini = util::IniFile::parse(in, &parse_error);
  if (!parse_error.ok()) {
    std::fprintf(stderr, "%s:%zu: %s\n  %s\n", argv[1], parse_error.line,
                 parse_error.message.c_str(), parse_error.text.c_str());
    return 2;
  }

  const std::string name = ini.get("experiment", "name", "experiment");
  const std::string algorithm = ini.get("experiment", "algorithm", "alg3");
  const auto delta_est =
      static_cast<std::size_t>(ini.get_int("experiment", "delta-est", 8));
  const auto trials =
      static_cast<std::size_t>(ini.get_int("experiment", "trials", 30));
  const auto threads =
      static_cast<std::size_t>(ini.get_int("experiment", "threads", 0));
  const auto seed =
      static_cast<std::uint64_t>(ini.get_int("experiment", "seed", 1));
  if (ini.get_int("experiment", "max-slots", 1'000'000) < 1) {
    std::fprintf(stderr, "[experiment] max-slots must be >= 1\n");
    return 2;
  }
  const auto max_slots = static_cast<std::uint64_t>(
      ini.get_int("experiment", "max-slots", 1'000'000));
  const std::string sweep_key = ini.get("experiment", "sweep-key");
  std::vector<double> sweep_values =
      ini.get_list("experiment", "sweep-values");
  if (sweep_values.empty()) sweep_values.push_back(0.0);  // single run

  runner::ScenarioConfig base;
  for (const std::string& key : ini.keys("scenario")) {
    if (!runner::apply_scenario_setting(base, key,
                                        ini.get("scenario", key))) {
      std::fprintf(stderr, "unknown scenario key '%s'\n", key.c_str());
      return 2;
    }
  }

  // Optional [faults] section: deterministic fault injection for every run
  // in the sweep (docs/MODEL.md "Fault model"). The parser is shared with
  // the sweep daemon, which reads the same spec format.
  sim::SlotFaultPlan faults;
  {
    std::string fault_error;
    if (!runner::parse_faults_section(ini, faults, &fault_error)) {
      std::fprintf(stderr, "%s\n", fault_error.c_str());
      return 2;
    }
  }

  // Optional [mobility] section: random-waypoint epoch dynamics. Every
  // sweep point rebuilds the trajectory/link schedule from the same seed,
  // so a swept scenario key (say ud-radius) changes the link sets but not
  // the node paths.
  runner::MobilitySpec mobility;
  {
    std::string mobility_error;
    if (!runner::parse_mobility_section(ini, mobility, &mobility_error)) {
      std::fprintf(stderr, "%s\n", mobility_error.c_str());
      return 2;
    }
  }

  // Optional [adversary] section: seed-derived adversarial roles plus the
  // trust-scored neighbor maintenance defence (docs/MODEL.md "Adversary
  // model & trust maintenance"); same parser as the sweep daemon.
  core::TrustConfig trust;
  {
    std::string adversary_error;
    if (!runner::parse_adversary_section(ini, faults.adversary, trust,
                                         &adversary_error)) {
      std::fprintf(stderr, "%s\n", adversary_error.c_str());
      return 2;
    }
  }

  auto make_factory = [&]() -> sim::SyncPolicyFactory {
    if (algorithm == "alg1") return core::make_algorithm1(delta_est);
    if (algorithm == "alg2") return core::make_algorithm2();
    if (algorithm == "alg3") return core::make_algorithm3(delta_est);
    if (algorithm == "adaptive") return core::make_adaptive();
    if (algorithm == "baseline") {
      return core::make_universal_baseline(base.universe, 0.5);
    }
    if (algorithm == "mcdis") return core::make_mcdis();
    if (algorithm == "rendezvous") return core::make_blind_rendezvous();
    if (algorithm == "consistent-hop") return core::make_consistent_hop();
    std::fprintf(stderr,
                 "unknown/unsupported algorithm '%s' (alg4 needs the async "
                 "engine; use m2hew_cli)\n",
                 algorithm.c_str());
    std::exit(2);
  };

  std::printf("experiment: %s (%s, %zu trials/point)\n", name.c_str(),
              algorithm.c_str(), trials);
  std::printf("policy:     %s\n",
              runner::describe_policy(algorithm, delta_est).c_str());
  if (mobility.enabled) {
    std::printf("mobility:  %s\n", runner::describe_mobility(mobility).c_str());
  }

  auto csv_file = runner::open_results_csv(name);
  util::CsvWriter csv(csv_file);
  if (mobility.enabled) {
    csv.header({"sweep_value", "success_rate", "mean_slots", "p50_slots",
                "p95_slots", "trials_per_sec", "contacts",
                "detected_contacts", "mean_detection_latency",
                "mean_missed_fraction"});
  } else {
    csv.header({"sweep_value", "success_rate", "mean_slots", "p50_slots",
                "p95_slots", "trials_per_sec"});
  }

  util::Table table({sweep_key.empty() ? "run" : sweep_key, "success",
                     "mean slots", "p50", "p95", "trials/s"});
  std::vector<double> means;
  double total_seconds = 0.0;
  std::size_t total_trials = 0;
  std::size_t threads_used = 1;
  for (const double value : sweep_values) {
    runner::ScenarioConfig scenario = base;
    if (!sweep_key.empty()) {
      if (!runner::apply_scenario_setting(scenario, sweep_key,
                                          format_value(value))) {
        std::fprintf(stderr, "unknown sweep key '%s'\n", sweep_key.c_str());
        return 2;
      }
    }
    std::unique_ptr<net::EpochTopologyProvider> provider;
    std::optional<net::Network> static_network;
    if (mobility.enabled) {
      if (scenario.topology != runner::TopologyKind::kUnitDisk ||
          (scenario.channels != runner::ChannelKind::kHomogeneous &&
           scenario.channels != runner::ChannelKind::kUniformRandom &&
           scenario.channels != runner::ChannelKind::kVariableRandom)) {
        std::fprintf(stderr,
                     "[mobility] requires topology=unit-disk and "
                     "channels=homogeneous|uniform|variable\n");
        return 2;
      }
      provider = runner::build_mobility_provider(scenario, mobility, seed);
    } else {
      static_network.emplace(runner::build_scenario(scenario, seed));
    }
    const net::Network& network =
        provider != nullptr ? provider->union_network() : *static_network;
    runner::SyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = seed;
    trial.threads = threads;
    trial.engine.max_slots = max_slots;
    trial.engine.faults = faults;
    std::optional<sim::EncounterIndex> encounter_index;
    if (provider != nullptr) {
      trial.engine.topology = provider.get();
      trial.engine.epoch_length = mobility.epoch_slots;
      encounter_index.emplace(*provider, mobility.epoch_slots, max_slots);
      trial.encounters = &*encounter_index;
    }
    sim::SyncPolicyFactory factory = make_factory();
    if (mobility.enabled) {
      factory = core::with_duty_cycle(std::move(factory), mobility.duty_on,
                                      mobility.duty_period);
    }
    // Identity when [adversary] trust is off.
    factory = core::with_trust(std::move(factory), trust);
    const auto stats = runner::run_sync_trials(network, factory, trial);
    if (stats.robustness.enabled() || stats.encounters.enabled()) {
      std::printf("[%s = %s]\n", sweep_key.empty() ? "run" : sweep_key.c_str(),
                  format_value(value).c_str());
      if (stats.robustness.enabled()) {
        runner::print_robustness(stats.robustness);
      }
      if (stats.encounters.enabled()) {
        runner::print_encounters(stats.encounters);
      }
    }
    const auto summary = stats.completion_slots.summarize();
    means.push_back(summary.mean);
    total_seconds += stats.elapsed_seconds;
    total_trials += stats.trials;
    threads_used = stats.threads_used;
    table.row()
        .cell(format_value(value))
        .cell(stats.success_rate(), 2)
        .cell(summary.mean, 1)
        .cell(summary.p50, 1)
        .cell(summary.p95, 1)
        .cell(stats.trials_per_second(), 1);
    csv.field(value).field(stats.success_rate()).field(summary.mean);
    csv.field(summary.p50).field(summary.p95);
    csv.field(stats.trials_per_second());
    if (mobility.enabled) {
      const auto& enc = stats.encounters;
      csv.field(static_cast<unsigned long long>(enc.contacts));
      csv.field(static_cast<unsigned long long>(enc.detected));
      csv.field(enc.detection_latency.summarize().mean);
      csv.field(enc.missed_fraction.summarize().mean);
    }
    csv.end_row();
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\n%zu trials in %.3f s (%.1f trials/s, %zu threads)\n",
              total_trials, total_seconds,
              total_seconds > 0.0
                  ? static_cast<double>(total_trials) / total_seconds
                  : 0.0,
              threads_used);

  if (ini.get_int("experiment", "plot", 0) != 0 && sweep_values.size() > 1) {
    util::PlotOptions plot;
    plot.x_label = sweep_key;
    plot.y_label = "mean slots";
    std::printf("\n%s", util::ascii_plot(sweep_values, means, plot).c_str());
  }
  std::printf("\nwrote %s/%s.csv\n", runner::results_dir().c_str(),
              name.c_str());
  return 0;
}
