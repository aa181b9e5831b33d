#include "service/sweep_runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "core/duty_cycle.hpp"
#include "core/policy_spec.hpp"
#include "core/trust.hpp"
#include "net/topology_provider.hpp"
#include "service/daemon.hpp"
#include "runner/algorithm_registry.hpp"
#include "runner/streaming.hpp"
#include "sim/encounter.hpp"
#include "sim/slot_engine.hpp"
#include "sim/soa_kernel.hpp"
#include "util/ipc.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace m2hew::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One sweep point, ready to run: its network (static, or the union
/// network of its mobility provider), the engine config and the policy.
struct PreparedPoint {
  std::unique_ptr<net::EpochTopologyProvider> provider;
  std::optional<net::Network> static_network;
  sim::SlotEngineConfig engine;
  /// The registry policy with duty cycling and trust wrapped around it
  /// (both are the identity when off); runs on the slot engine.
  sim::SyncPolicyFactory factory;
  /// Set on the SoA kernel, which runs the policy as data.
  std::optional<core::SyncPolicySpec> soa_spec;

  [[nodiscard]] const net::Network& network() const {
    return provider != nullptr ? provider->union_network() : *static_network;
  }
};

/// Resolves and checks the point (resolve_point), builds its network or
/// mobility provider, the engine config and the wrapped policy.
[[nodiscard]] bool prepare_point(const SweepSpec& spec, double value,
                                 PreparedPoint& point, std::string* error) {
  runner::ScenarioConfig scenario;
  if (!resolve_point(spec, value, scenario, error)) return false;
  const runner::AlgorithmEntry* entry = runner::find_algorithm(spec.algorithm);
  if (entry == nullptr || !entry->slotted) {
    *error = "unknown algorithm '" + spec.algorithm + "'";
    return false;
  }
  if (spec.kernel == runner::SyncKernel::kSoa) {
    if (entry->spec == nullptr) {
      *error = "kernel = soa supports only " +
               runner::algorithm_names(true, "/");
      return false;
    }
    point.soa_spec = entry->spec(spec.delta_est);
  }

  // Mobile specs run every engine on the provider's union network; the
  // per-epoch link sets ride along inside the engine config.
  if (spec.mobility.enabled) {
    point.provider =
        runner::build_mobility_provider(scenario, spec.mobility, spec.seed);
    point.engine.topology = point.provider.get();
    point.engine.epoch_length = spec.mobility.epoch_slots;
  } else {
    point.static_network = runner::try_build_scenario(scenario, spec.seed,
                                                      error);
    if (!point.static_network.has_value()) return false;
  }
  point.engine.max_slots = spec.max_slots;
  point.engine.faults = spec.faults;

  // validate_knobs keeps duty cycling and trust off the SoA kernel.
  const bool duty_cycled = spec.mobility.enabled &&
                           spec.mobility.duty_on != spec.mobility.duty_period;
  point.factory = core::with_trust(
      core::with_duty_cycle(
          runner::make_algorithm_factory(*entry, spec.delta_est,
                                         point.network().universe_size()),
          duty_cycled ? spec.mobility.duty_on : 1,
          duty_cycled ? spec.mobility.duty_period : 1),
      spec.trust);
  return true;
}

/// Runs the trials in `indices` serially — engine seed derive(root, t) for
/// trial t, exactly as the batch runner seeds them — and emits one wire
/// record each. Shared by the worker children and the parent's
/// crash-recovery path, so both produce identical records.
void run_trial_subset(
    const PreparedPoint& point, const SweepSpec& spec,
    const sim::SoaPolicyTable* table,
    const std::vector<std::size_t>& indices,
    const std::function<void(const runner::TrialOutcomeRecord&)>& emit) {
  const util::SeedSequence seeds(spec.seed);
  std::optional<sim::SoaSlotKernel> kernel;
  if (table != nullptr) kernel.emplace(point.network());
  const auto record = [&emit](std::size_t t, const auto& result) {
    emit(runner::make_outcome_record(t, result.complete,
                                     result.completion_slot,
                                     result.robustness));
  };
  for (const std::size_t t : indices) {
    sim::SlotEngineConfig engine = point.engine;
    engine.seed = seeds.derive(t);
    if (kernel.has_value()) {
      record(t, kernel->run(*table, engine));
    } else {
      record(t, sim::run_slot_engine(point.network(), point.factory, engine));
    }
  }
}

/// Deterministic crash hook for the worker-kill recovery test. When
/// M2HEW_TEST_WORKER_KILL is "<shard>:<marker-path>", the matching shard
/// SIGKILLs itself halfway through its records — once: the marker file is
/// created O_EXCL first, so later sweep points (and re-runs) survive.
void maybe_kill_for_test(std::size_t shard, std::size_t emitted,
                         std::size_t total) {
  const char* env = std::getenv("M2HEW_TEST_WORKER_KILL");
  if (env == nullptr || *env == '\0') return;
  const std::string_view hook(env);
  const auto colon = hook.find(':');
  if (colon == std::string_view::npos) return;
  char* end = nullptr;
  const std::string shard_text(hook.substr(0, colon));
  const unsigned long target = std::strtoul(shard_text.c_str(), &end, 10);
  if (end == shard_text.c_str() || *end != '\0') return;
  if (shard != target || emitted != (total + 1) / 2) return;
  const std::string marker(hook.substr(colon + 1));
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;  // marker exists: this hook already fired
  ::close(fd);
  ::raise(SIGKILL);
}

[[nodiscard]] bool run_point_sharded(const PreparedPoint& point,
                                     const SweepSpec& spec,
                                     std::size_t workers,
                                     runner::SyncTrialStats& out,
                                     std::string* error) {
  const auto start = Clock::now();
  std::optional<sim::SoaPolicyTable> table;
  if (point.soa_spec.has_value()) {
    table = core::build_soa_policy_table(point.network(), *point.soa_spec);
  }
  const sim::SoaPolicyTable* table_ptr = table.has_value() ? &*table : nullptr;
  runner::StreamingSyncReducer reducer(spec.trials);

  std::vector<util::WorkerProcess> procs;
  procs.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    std::vector<std::size_t> mine;
    for (std::size_t t = w; t < spec.trials; t += workers) mine.push_back(t);
    procs.push_back(util::spawn_worker([&, w, mine](int write_fd) {
      // write_all loops over partial writes/EINTR; false means the
      // parent's read end is gone (EPIPE — spawn_worker ignores
      // SIGPIPE). Exiting nonzero without the end marker routes those
      // trials through the parent's missing-trials recovery.
      bool pipe_ok = true;
      std::size_t emitted = 0;
      run_trial_subset(point, spec, table_ptr, mine,
                       [&](const runner::TrialOutcomeRecord& record) {
                         if (!pipe_ok) return;
                         const std::string line =
                             runner::encode_outcome_record(record) + "\n";
                         pipe_ok = util::write_all(write_fd, line);
                         if (!pipe_ok) return;
                         ++emitted;
                         maybe_kill_for_test(w, emitted, mine.size());
                       });
      if (!pipe_ok) return 1;
      const std::string end_line =
          runner::encode_end_marker(w, emitted) + "\n";
      return util::write_all(write_fd, end_line) ? 0 : 1;
    }));
  }

  std::size_t end_markers = 0;
  std::size_t malformed = 0;
  util::drain_workers(
      procs,
      [&](std::size_t, std::string_view line) {
        if (const auto record = runner::decode_outcome_record(line)) {
          reducer.offer(*record);
          return;
        }
        if (runner::decode_end_marker(line).has_value()) {
          ++end_markers;
          return;
        }
        ++malformed;
      },
      [] { return shutdown_requested(); });
  if (shutdown_requested() && !reducer.all_received()) {
    // Shutdown landed mid-point: the workers were SIGTERMed and drained,
    // but the point is incomplete. Do NOT fall through to the
    // missing-trials recovery — that would re-run the remainder of an
    // arbitrarily long sweep during a termination request.
    *error = "interrupted by shutdown";
    return false;
  }
  if (malformed > 0) {
    *error = "worker protocol violation: " + std::to_string(malformed) +
             " malformed line(s)";
    return false;
  }

  if (!reducer.all_received()) {
    const std::vector<std::size_t> missing = reducer.missing_trials();
    M2HEW_LOG_WARN(
        "sweep: %zu of %zu worker(s) died mid-shard; re-running %zu missing "
        "trial(s) in-process",
        workers - end_markers, workers, missing.size());
    run_trial_subset(point, spec, table_ptr, missing,
                     [&](const runner::TrialOutcomeRecord& record) {
                       reducer.offer(record);
                     });
  }
  out = reducer.finish(seconds_since(start), workers);
  return true;
}

}  // namespace

bool run_point(const SweepSpec& spec, double value,
               const PointOptions& options, runner::SyncTrialStats& out,
               std::string* error) {
  PreparedPoint point;
  if (!prepare_point(spec, value, point, error)) return false;
  runner::SyncTrialConfig trial;
  trial.trials = spec.trials;
  trial.seed = spec.seed;
  trial.threads = options.threads;
  trial.engine = point.engine;
  trial.kernel = spec.kernel;
  std::optional<sim::EncounterIndex> encounters;
  if (options.track_encounters && point.provider != nullptr) {
    encounters.emplace(*point.provider, spec.mobility.epoch_slots,
                       spec.max_slots);
    trial.encounters = &*encounters;
  }
  out = point.soa_spec.has_value()
            ? runner::run_sync_trials(point.network(), *point.soa_spec, trial)
            : runner::run_sync_trials(point.network(), point.factory, trial);
  return true;
}

bool run_sweep(const SweepSpec& spec, std::size_t workers,
               SweepResult& result, std::string* error) {
  result = SweepResult{};
  result.workers = workers == 0 ? 1 : workers;
  // Never more processes than trials: surplus shards would be empty.
  const std::size_t point_workers =
      std::min(result.workers, std::max<std::size_t>(spec.trials, 1));

  for (const double value : spec.sweep_values) {
    if (shutdown_requested()) {
      // Between-point interruption check (the batch path below is not
      // interruptible inside a point; the sharded path also checks in
      // its worker drain).
      *error = "interrupted by shutdown";
      return false;
    }
    // The daemon reports completion/robustness only (encounter metrics
    // are a batch front-end feature — the wire format stays unchanged);
    // the service's unit of fan-out is the process.
    runner::SyncTrialStats stats;
    if (point_workers <= 1) {
      if (!run_point(spec, value, PointOptions{}, stats, error)) return false;
    } else {
      PreparedPoint point;
      if (!prepare_point(spec, value, point, error) ||
          !run_point_sharded(point, spec, point_workers, stats, error)) {
        return false;
      }
    }
    result.points.push_back({value, std::move(stats)});
  }
  return true;
}

}  // namespace m2hew::service
