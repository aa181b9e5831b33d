// SweepSpec: the resolved form of a sweep-definition INI file, as read by
// both tools/m2hew_experiment and the sweep service. The knob sections
// ([scenario], [faults], [mobility], [adversary]) come from the knob table
// (runner/scenario_kv.hpp); [experiment] holds the run keys below plus the
// batch tool's `threads` and `plot`.
//
// Parsing is strict: unknown sections and keys, malformed values, values
// outside a key's range and contradictory combinations (checked at every
// sweep point) are rejected with a one-line message, because a daemon
// cannot ask the submitter "did you mean set-size?" at a terminal and the
// batch tool should fail before it simulates. Parsing never aborts the
// process; every failure is reported through the error out-parameter.
//
// The spec also defines its own identity: scenario_hash() keys the
// content-addressed artifact cache. The hash is taken over the RESOLVED
// spec (every effective field rendered in a fixed order, defaults filled
// in) chained with the binary version, so two files that differ only in
// key order, whitespace, comments, or explicitly writing a default value
// collide onto the same cache entry — and any change to either the
// effective parameters or the simulator binary misses. See
// docs/OPERATIONS.md "Cache layout".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trust.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/fault_plan.hpp"

namespace m2hew::util {
class IniFile;
}

namespace m2hew::service {

struct SweepSpec {
  std::string name = "experiment";
  std::string algorithm = "alg3";  ///< a slotted algorithm_registry() name
  std::size_t delta_est = 8;
  std::size_t trials = 30;
  std::uint64_t seed = 1;          ///< root seed; trial t uses derive(t)
  std::uint64_t max_slots = 1'000'000;
  runner::SyncKernel kernel = runner::SyncKernel::kEngine;
  std::string sweep_key;           ///< empty = single point
  std::vector<double> sweep_values;  ///< one 0.0 entry when no sweep-key
  runner::ScenarioConfig scenario;
  sim::SlotFaultPlan faults;
  /// Optional [mobility] section (random-waypoint epoch dynamics). When
  /// enabled the runner builds an epoch topology provider per point and
  /// reports encounter metrics alongside completion statistics.
  runner::MobilitySpec mobility;
  /// Optional [adversary] section: the attack itself lands in
  /// faults.adversary; this is the trust-maintenance defence (engine
  /// kernel only — trust wraps policy objects).
  core::TrustConfig trust;

  /// Deterministic rendering of every effective field, fixed order,
  /// hexfloat doubles. This — not the submitted file text — is what gets
  /// hashed, so default-vs-explicit spellings of the same run coincide.
  [[nodiscard]] std::string canonical() const;
};

/// Renders a sweep value the way the scenario key-value vocabulary reads
/// it back: integral values without a decimal point, others via %g.
/// Shared by spec validation and the sweep runner so both apply
/// bit-identical settings.
[[nodiscard]] std::string format_sweep_value(double value);

/// The scenario of one sweep point: spec.scenario with the sweep key set
/// to `value` (unchanged when there is no sweep key), checked together
/// with the spec's faults, mobility and trust by runner::validate_knobs.
/// Returns false with a one-line message naming the keys involved.
[[nodiscard]] bool resolve_point(const SweepSpec& spec, double value,
                                 runner::ScenarioConfig& scenario,
                                 std::string* error);

/// Parses and validates a spec file. On failure returns false with a
/// one-line message in *error and leaves `spec` unspecified; never aborts.
[[nodiscard]] bool parse_sweep_spec(const util::IniFile& ini, SweepSpec& spec,
                                    std::string* error);

/// The simulator build identity folded into every cache key: the
/// git-describe string baked in at configure time. The environment
/// variable M2HEW_BINARY_VERSION overrides it when set — a test hook for
/// exercising cache invalidation without rebuilding.
[[nodiscard]] std::string binary_version();

/// Cache key: fnv1a64(canonical spec ‖ binary version).
[[nodiscard]] std::uint64_t scenario_hash(const SweepSpec& spec);
/// The 16-hex-digit form used in file names, status JSON and logs.
[[nodiscard]] std::string scenario_hash_hex(const SweepSpec& spec);

}  // namespace m2hew::service
