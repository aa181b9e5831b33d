// The knob table: every scenario, fault, mobility and adversary key that a
// front end can set, declared once. One row holds the key's INI section and
// name, its m2hew_cli flag spelling, value kind, accepted range, default,
// help line and the struct field it sets. The INI sections of
// tools/m2hew_experiment and the sweep daemon, m2hew_cli's flags and
// --help, m2hew_trace's scenario flags and SweepSpec::canonical() (the
// cache key) are all read, checked and rendered from these rows.
//
// Two layers of checks, both recoverable:
//   - per key (parse_knob): the value parses and lies in the row's range.
//     Each range is the CHECK condition the value later meets in
//     validate_fault_plan, validate_trust_config, the topology generators
//     and channel_assign, so a value the table accepts cannot abort there.
//   - across keys (validate_knobs): rules such as set-size <= universe or
//     channels = chain => topology = line, which every front end calls
//     before it builds anything.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/trust.hpp"
#include "runner/scenario.hpp"
#include "sim/fault_plan.hpp"

namespace m2hew::util {
class Flags;
class IniFile;
}  // namespace m2hew::util

namespace m2hew::runner {

/// The INI section a knob lives in.
enum class KnobSection { kScenario, kFaults, kMobility, kAdversary };

/// The rendered groups of keys. Churn and burst loss are gated: a positive
/// crash-prob / burst-loss switches the block on and fills every key of it
/// that was not given with the row default; otherwise the block is left
/// off. Every other block writes only the keys that were given (its
/// defaults are the struct defaults). canonical_knobs() renders a block
/// only while it is on.
enum class KnobBlock { kScenario, kChurn, kBurstLoss, kMobility, kAdversary,
                       kTrust };

enum class KnobKind {
  kCount,   ///< unsigned decimal integer
  kReal,    ///< finite decimal number
  kBool,    ///< 0 | 1 | false | true
  kChoice,  ///< one of Knob::choices
};

/// Every struct the table can set. A null member is a block the caller
/// does not carry; rows of that block are skipped.
struct KnobTarget {
  ScenarioConfig* scenario = nullptr;
  sim::SlotFaultPlan* faults = nullptr;  ///< churn, burst loss, adversary
  MobilitySpec* mobility = nullptr;
  core::TrustConfig* trust = nullptr;
};

/// A parsed value: counts, booleans (0/1) and choice indices (enum order)
/// in `count`, reals in `real`.
struct KnobValue {
  std::uint64_t count = 0;
  double real = 0.0;
};

struct Knob {
  KnobBlock block;
  std::string_view key;   ///< INI key within its section
  std::string_view flag;  ///< m2hew_cli flag, without the leading "--"
  KnobKind kind;
  double min = 0.0;       ///< accepted range (kCount, kReal)
  double max = 0.0;
  bool min_open = false;  ///< exclusive lower bound
  bool max_open = false;  ///< exclusive upper bound
  std::span<const std::string_view> choices;  ///< kChoice names
  std::string_view def;   ///< default, as written in a file
  std::string_view help;  ///< one line
  KnobValue (*read)(const KnobTarget&) = nullptr;
  void (*write)(const KnobTarget&, KnobValue) = nullptr;
};

/// How diagnostics name a key: `[faults] crash-prob` / `crash-prob = 0.5`
/// for files, `--churn-prob` / `--churn-prob=0.5` for the CLI.
enum class KnobSpelling { kIni, kFlag };

/// All rows, in canonical order.
[[nodiscard]] std::span<const Knob> knob_table();
[[nodiscard]] KnobSection section_of(KnobBlock block);
[[nodiscard]] std::string_view section_name(KnobSection section);
/// nullptr when the section has no such key.
[[nodiscard]] const Knob* find_knob(KnobSection section,
                                    std::string_view key);

/// Parses `text` as a value of `knob` and range-checks it. On failure
/// returns nullopt with a one-line message naming the key in `*error`.
[[nodiscard]] std::optional<KnobValue> parse_knob(const Knob& knob,
                                                  std::string_view text,
                                                  KnobSpelling spelling,
                                                  std::string* error);

/// The file front end: rejects unknown keys in the four knob sections,
/// sets `mobility->enabled` when a [mobility] section is present, then
/// parses every row whose block `target` carries and writes the given
/// values (plus the defaults of an enabled gated block). Stops at the
/// first bad value with a message in `*error`; per-key checks only, see
/// validate_knobs for the rules across keys.
[[nodiscard]] bool apply_ini_knobs(const util::IniFile& ini,
                                   const KnobTarget& target,
                                   std::string* error);

/// The command-line front end, as apply_ini_knobs for every row's flag
/// that was given. A bare boolean flag (`--trust`) means 1.
[[nodiscard]] bool apply_flag_knobs(const util::Flags& flags,
                                    const KnobTarget& target,
                                    std::string* error);

/// The execution facts the rules across keys depend on.
struct KnobContext {
  double loss_probability = 0.0;  ///< i.i.d. loss (m2hew_cli --loss)
  bool soa_kernel = false;        ///< the SoA kernel runs the trials
};

/// The rules that involve more than one key, plus every row's range
/// re-checked on the structs as they stand (so a struct edited in code is
/// held to the same contract). Returns false with a one-line message
/// naming the keys involved. Rules:
///   set-size <= universe (homogeneous, uniform); 1 <= min-size <=
///   max-size <= universe (variable); chain => topology = line, overlap <=
///   set-size and a derived universe within range; grid-rows divides n;
///   ring => n >= 3; watts-strogatz => even ws-k < n; barabasi-albert =>
///   ba-m < n; primary-users => unit-disk and pu-min-radius <=
///   pu-max-radius; crash-from <= crash-until and down-min <= down-max;
///   burst loss excludes i.i.d. loss; speed-min <= speed-max <= 1000 x
///   ud-side (a waypoint walk turns once per leg); duty-on <=
///   duty-period; duty cycling and the SoA kernel exclude each other, and
///   duty cycling needs mobility; mobility => unit-disk with homogeneous,
///   uniform or variable channels; trust excludes the SoA kernel.
[[nodiscard]] bool validate_knobs(const KnobTarget& target,
                                  const KnobContext& context,
                                  KnobSpelling spelling, std::string* error);

/// The [scenario], [faults], [mobility] and [adversary] blocks of
/// SweepSpec::canonical(): "[section]" lines, then `key = value` for every
/// row of each enabled block, doubles in hexfloat.
[[nodiscard]] std::string canonical_knobs(const ScenarioConfig& scenario,
                                          const sim::SlotFaultPlan& faults,
                                          const MobilitySpec& mobility,
                                          const core::TrustConfig& trust);

/// m2hew_cli --help lines for one section: flag, value syntax, help and
/// default. `defaults` supplies the shown defaults of ungated blocks (the
/// CLI's preset); gated blocks show the row default.
[[nodiscard]] std::string knob_flag_help(KnobSection section,
                                         const KnobTarget& defaults);

/// Applies one [scenario] key; returns false (leaving the config
/// untouched) if the key is unknown. With a null `error` a malformed or
/// out-of-range value aborts (CHECK); with a sink it is reported there and
/// the call returns false.
[[nodiscard]] bool apply_scenario_setting(ScenarioConfig& config,
                                          std::string_view key,
                                          std::string_view value);
[[nodiscard]] bool apply_scenario_setting(ScenarioConfig& config,
                                          std::string_view key,
                                          std::string_view value,
                                          std::string* error);

/// One section each, with apply_ini_knobs' rules restricted to it: unknown
/// keys, malformed and out-of-range values come back in `*error`; a
/// missing section is a no-op success (parse_mobility_section sets
/// `enabled` when the section is present).
[[nodiscard]] bool parse_faults_section(const util::IniFile& ini,
                                        sim::SlotFaultPlan& faults,
                                        std::string* error);
[[nodiscard]] bool parse_mobility_section(const util::IniFile& ini,
                                          MobilitySpec& mobility,
                                          std::string* error);
[[nodiscard]] bool parse_adversary_section(const util::IniFile& ini,
                                           sim::AdversarySpec& adversary,
                                           core::TrustConfig& trust,
                                           std::string* error);

}  // namespace m2hew::runner
