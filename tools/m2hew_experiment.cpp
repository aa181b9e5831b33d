// m2hew_experiment — run a parameter sweep described by an INI file.
//
//   $ m2hew_experiment sweep.ini
//
// Example file (experiments/ holds more; comments go on lines of their
// own):
//
//   [experiment]
//   name         = rho_sweep
//   algorithm    = alg3
//   delta-est    = 8
//   trials       = 30
//   threads      = 0
//   seed         = 1
//   max-slots    = 1000000
//   kernel       = engine
//   sweep-key    = overlap
//   sweep-values = 8 4 2 1
//   plot         = 1
//
//   [scenario]
//   topology = line
//   channels = chain
//   n        = 12
//   set-size = 8
//
// [experiment] keys: `algorithm` is any slotted name of the algorithm
// registry (runner/algorithm_registry.hpp); `kernel` is engine or soa (the
// SoA kernel runs the algorithms expressible as data); `sweep-key` is any
// [scenario] key, set to each of `sweep-values` in turn; `threads` is the
// trial fan-out (0 = all cores; results are identical at any value) and
// `plot` draws mean slots against the sweep value. The optional
// [scenario], [faults], [mobility] and [adversary] sections take the rows
// of the knob table (runner/scenario_kv.hpp); `m2hew_cli --help` lists
// every key with its range and default under its CLI spelling.
//
// The file is parsed by service::parse_sweep_spec, the sweep daemon's
// parser: an unknown key, a malformed or out-of-range value and a
// contradictory combination (say channels = chain with topology = ring)
// exit 2 with a message before anything runs, at every sweep point. Each
// point runs through service::run_point, the daemon's batch path, so the
// tool and the daemon produce the same numbers.
//
// [mobility] requires a unit-disk scenario with a position-independent
// channel kind (homogeneous / uniform / variable); runs then track
// per-contact detection latency, missed contacts and energy per detected
// contact (sim/encounter.hpp).
//
// Output: a table (one row per sweep value), optional plot, robustness
// metrics per sweep value when [faults] is present, encounter metrics per
// sweep value when [mobility] is present, and results/<name>.csv.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "runner/algorithm_registry.hpp"
#include "runner/report.hpp"
#include "runner/trials.hpp"
#include "service/sweep_runner.hpp"
#include "service/sweep_spec.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace m2hew;
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
  service::SweepSpec spec;
  std::string error;
  if (!service::parse_sweep_spec(ini, spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
    return 2;
  }
  // parse_sweep_spec has checked both batch-only keys.
  const auto threads =
      static_cast<std::size_t>(ini.get_int("experiment", "threads", 0));
  const bool plot_means = ini.get_int("experiment", "plot", 0) != 0;
  const std::string& sweep_key = spec.sweep_key;
  const bool mobile = spec.mobility.enabled;

  std::printf("experiment: %s (%s, %zu trials/point)\n", spec.name.c_str(),
              spec.algorithm.c_str(), spec.trials);
  std::printf("policy:     %s\n",
              runner::describe_algorithm(*runner::find_algorithm(
                                             spec.algorithm),
                                         spec.delta_est)
                  .c_str());
  if (mobile) {
    std::printf("mobility:  %s\n",
                runner::describe_mobility(spec.mobility).c_str());
  }

  auto csv_file = runner::open_results_csv(spec.name);
  util::CsvWriter csv(csv_file);
  if (mobile) {
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
  for (const double value : spec.sweep_values) {
    runner::SyncTrialStats stats;
    if (!service::run_point(spec, value,
                            {.threads = threads, .track_encounters = true},
                            stats, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
      return 2;
    }
    const std::string label = service::format_sweep_value(value);
    if (stats.robustness.enabled() || stats.encounters.enabled()) {
      std::printf("[%s = %s]\n", sweep_key.empty() ? "run" : sweep_key.c_str(),
                  label.c_str());
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
        .cell(label)
        .cell(stats.success_rate(), 2)
        .cell(summary.mean, 1)
        .cell(summary.p50, 1)
        .cell(summary.p95, 1)
        .cell(stats.trials_per_second(), 1);
    csv.field(value).field(stats.success_rate()).field(summary.mean);
    csv.field(summary.p50).field(summary.p95);
    csv.field(stats.trials_per_second());
    if (mobile) {
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

  if (plot_means && spec.sweep_values.size() > 1) {
    util::PlotOptions plot;
    plot.x_label = sweep_key;
    plot.y_label = "mean slots";
    std::printf("\n%s",
                util::ascii_plot(spec.sweep_values, means, plot).c_str());
  }
  std::printf("\nwrote %s/%s.csv\n", runner::results_dir().c_str(),
              spec.name.c_str());
  return 0;
}
