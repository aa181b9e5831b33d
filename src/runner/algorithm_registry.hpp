// The algorithm registry: one entry per policy name the front ends accept
// (m2hew_cli --algorithm/--policy, m2hew_trace --algorithm, the INI
// `algorithm =` key of m2hew_experiment and the sweep daemon). Each entry
// says how to build the policy — as a SyncPolicySpec when the algorithm
// can be expressed as data (so it also runs on the SoA kernel), always as
// a policy factory — plus the paper bound it is reported against and a
// one-line description.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "core/bounds.hpp"
#include "core/policy_spec.hpp"
#include "net/network.hpp"
#include "sim/policy.hpp"

namespace m2hew::runner {

struct AlgorithmEntry {
  std::string_view name;
  /// Text after "<name>: " in report lines.
  std::string_view summary;
  /// Whether the description ends in " (delta_est=N)".
  bool uses_delta_est = false;
  /// False for Algorithm 4, which needs the async engine (m2hew_cli only).
  bool slotted = true;
  /// Non-null when the algorithm is expressible as data.
  core::SyncPolicySpec (*spec)(std::size_t delta_est) = nullptr;
  /// Slotted policy factory; `universe` is the agreed channel universe the
  /// universal-channel baselines sweep. Null for async entries.
  sim::SyncPolicyFactory (*factory)(std::size_t delta_est,
                                    net::ChannelId universe) = nullptr;
  /// The closed-form bound reported next to the results; null = none.
  double (*bound)(const core::BoundParams& params,
                  const net::Network& network) = nullptr;
  std::string_view bound_label;
};

/// Every entry, in the order the front ends list them.
[[nodiscard]] std::span<const AlgorithmEntry> algorithm_registry();

/// nullptr for an unknown name.
[[nodiscard]] const AlgorithmEntry* find_algorithm(std::string_view name);

/// "<name>: <summary>[ (delta_est=N)]".
[[nodiscard]] std::string describe_algorithm(const AlgorithmEntry& entry,
                                             std::size_t delta_est);

/// The entry's factory, built from its spec when it has one.
[[nodiscard]] sim::SyncPolicyFactory make_algorithm_factory(
    const AlgorithmEntry& entry, std::size_t delta_est,
    net::ChannelId universe);

/// Names joined by `separator`: every slotted entry, or only those with a
/// spec (the SoA kernel's set).
[[nodiscard]] std::string algorithm_names(bool spec_only,
                                          std::string_view separator);

}  // namespace m2hew::runner
