// Sweep execution: one SweepSpec in, one aggregate per sweep point out.
//
// Two paths produce the SAME numbers:
//
//   workers <= 1   batch — run_point, exactly what tools/m2hew_experiment
//                  does.
//   workers  > 1   sharded — per sweep point, `workers` forked processes
//                  each run the trial subset {t : t ≡ w (mod workers)}
//                  serially and stream one wire record per trial back;
//                  the parent folds them through a StreamingSyncReducer.
//
// Bit-identity holds because trial t's engine seed is derive(root, t) in
// both paths, the per-trial simulation is the same code, and the reducer
// folds records in trial order through the same fold_robustness /
// Samples::add calls as the batch reduction (pinned by
// sweep_service_test). Wall-clock fields (elapsed_seconds, threads_used)
// are the only difference.
//
// A worker that dies without its end-of-shard marker (crash, SIGKILL) is
// detected at pipe EOF; the parent re-runs exactly the missing trials
// in-process and the sweep still completes with identical results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/trials.hpp"
#include "service/sweep_spec.hpp"

namespace m2hew::service {

struct SweepPointResult {
  double sweep_value = 0.0;
  runner::SyncTrialStats stats;
};

struct SweepResult {
  std::vector<SweepPointResult> points;  ///< one per spec.sweep_values
  std::size_t workers = 1;               ///< resolved process fan-out
};

/// In-process execution knobs of one point (run_point).
struct PointOptions {
  std::size_t threads = 1;        ///< trial fan-out; 0 = all cores
  bool track_encounters = false;  ///< mobile specs: per-contact metrics
};

/// Runs one sweep point in-process — the batch path of run_sweep and all
/// of tools/m2hew_experiment: applies the sweep value and checks the point
/// (resolve_point), builds the network or the mobility provider and the
/// engine config, wraps the registry policy with duty cycling and trust,
/// and calls runner::run_sync_trials. Returns false with a one-line
/// message if the point is invalid or cannot be built.
[[nodiscard]] bool run_point(const SweepSpec& spec, double value,
                             const PointOptions& options,
                             runner::SyncTrialStats& out, std::string* error);

/// Runs every sweep point of the spec. `workers` is the process fan-out
/// per point (0 or 1 = batch path). Returns false with a one-line message
/// in *error if a sweep point's scenario cannot be built or applied.
[[nodiscard]] bool run_sweep(const SweepSpec& spec, std::size_t workers,
                             SweepResult& result, std::string* error);

}  // namespace m2hew::service
