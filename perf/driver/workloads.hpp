// The benchmark's four workloads and its metric vocabulary. Each workload
// calls the repository's public layer entry points — net generators and
// Network, core::build_soa_policy_table, sim::SoaSlotKernel /
// run_slot_engine / run_async_engine, runner::build_scenario /
// run_async_trials, service::parse_sweep_spec / run_sweep — and records a
// span around every such call when tracing is on. perf/README.md gives the
// rationale for each workload and the layer → end-to-end map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "driver/harness.hpp"

namespace perf {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Metrics of an untraced run, in output order (BENCHMARK.json
/// "end_to_end").
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();
/// Metrics of a traced run, in output order (BENCHMARK.json "per_layer").
/// Every traced run reports all of them; a layer a workload never calls
/// reads 0.
[[nodiscard]] std::span<const MetricSpec> layer_metrics();

[[nodiscard]] std::span<const std::string_view> workload_names();

/// Network shape reported with every result (ROADMAP: always give mean
/// degree, |U| and N with ns/node-step).
struct Shape {
  std::string label;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  double mean_degree = 0.0;
  std::size_t universe = 0;
  std::size_t set_size = 0;
  double rho = 0.0;
  std::size_t delta = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded per-trial digests for (workload, seed); may be empty.
  std::vector<std::uint64_t> reference;
};

struct RunReport {
  std::size_t instances = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// First verification failures, for the log.
  std::vector<std::string> problems;
  /// Per-trial digests of deterministic fields, in trial order.
  std::vector<std::uint64_t> digests;
  std::size_t threads = 1;
  std::size_t workers = 0;
  std::vector<Shape> shapes;
  /// Per-instance timings behind the reported medians.
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> ns_per_node_step;
  /// End-to-end metrics (untraced) or layer metrics (traced), in the
  /// order of the matching *_metrics() list.
  std::vector<double> values;
};

/// Runs workload `name` for about `options.seconds`: a fixed number of
/// instances derived from the seed, each verified. Returns false for an
/// unknown workload name.
[[nodiscard]] bool run_workload(std::string_view name,
                                const RunOptions& options, Tracer& tracer,
                                RunReport& report);

}  // namespace perf
