#include "runner/scenario_kv.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/ini.hpp"

namespace m2hew::runner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Caps where no CHECK bounds a count: node and channel counts stay far
// inside NodeId/ChannelId (and the SoA kernel's 2^30 channel limit), slot
// counts stay below 1e15 so format_sweep_value renders them as integers.
constexpr double kMaxNodes = 1'000'000;
constexpr double kMaxChannels = 65'536;
constexpr double kMaxPrimaryUsers = 10'000;
constexpr double kMaxEpochs = 10'000;
constexpr double kMaxSlots = 999'999'999'999'999;
// A random-waypoint node walks speed / side legs per epoch, one loop turn
// each: the speed cap keeps that loop short.
constexpr double kMaxLegsPerEpoch = 1'000;

constexpr std::string_view kTopologies[] = {
    "line",       "ring",      "grid",           "star",
    "clique",     "erdos-renyi", "unit-disk",    "watts-strogatz",
    "barabasi-albert"};
constexpr std::string_view kChannelKinds[] = {
    "homogeneous", "uniform", "variable", "chain", "primary-users"};
constexpr std::string_view kPropagations[] = {"full", "random", "lowpass"};
constexpr std::string_view kAttacks[] = {"jam", "byzantine", "non-responder",
                                         "mix"};

template <typename T>
[[nodiscard]] KnobValue to_value(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return {0, v};
  } else {
    return {static_cast<std::uint64_t>(v), 0.0};
  }
}

template <typename T>
[[nodiscard]] T from_value(KnobValue v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v.real;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v.count != 0;
  } else {
    return static_cast<T>(v.count);
  }
}

/// Binds a row to the struct field `Field` (a captureless lambda returning
/// a reference into the target) — the only per-row code in the table.
template <typename Field>
[[nodiscard]] Knob bind(Knob row, Field) {
  row.read = [](const KnobTarget& t) { return to_value(Field{}(t)); };
  row.write = [](const KnobTarget& t, KnobValue v) {
    auto& field = Field{}(t);
    field = from_value<std::remove_reference_t<decltype(field)>>(v);
  };
  return row;
}

struct Range {
  double min = 0.0, max = 0.0;
  bool min_open = false, max_open = false;
};
constexpr Range kUnit{0.0, 1.0};
constexpr Range kUnitBelowOne{0.0, 1.0, false, true};
constexpr Range kUnitAboveZero{0.0, 1.0, true, false};
constexpr Range kPositive{0.0, kInf, true, true};
constexpr Range kNonNegative{0.0, kInf, false, true};

[[nodiscard]] Knob knob(KnobBlock block, std::string_view key,
                        std::string_view flag, KnobKind kind, Range range,
                        std::string_view def, std::string_view help,
                        std::span<const std::string_view> choices = {}) {
  return {block, key, flag, kind, range.min, range.max, range.min_open,
          range.max_open, choices, def, help};
}

#define M2HEW_FIELD(path) [](const KnobTarget& t) -> auto& { return t.path; }

const std::vector<Knob>& rows() {
  using enum KnobBlock;
  using enum KnobKind;
  static const std::vector<Knob> table = {
      // [scenario]
      bind(knob(kScenario, "topology", "topology", kChoice, {}, "clique",
                "network topology family", kTopologies),
           M2HEW_FIELD(scenario->topology)),
      bind(knob(kScenario, "n", "n", kCount, {1, kMaxNodes}, "8", "nodes"),
           M2HEW_FIELD(scenario->n)),
      bind(knob(kScenario, "grid-rows", "grid-rows", kCount, {0, kMaxNodes},
                "0", "grid rows, must divide n (0 = 2)"),
           M2HEW_FIELD(scenario->grid_rows)),
      bind(knob(kScenario, "er-p", "er-p", kReal, kUnit, "0.3",
                "erdos-renyi edge probability"),
           M2HEW_FIELD(scenario->er_edge_probability)),
      bind(knob(kScenario, "ud-side", "ud-side", kReal, kPositive, "1",
                "unit-disk deployment square side"),
           M2HEW_FIELD(scenario->ud_side)),
      bind(knob(kScenario, "ud-radius", "ud-radius", kReal, kPositive, "0.35",
                "unit-disk radio range"),
           M2HEW_FIELD(scenario->ud_radius)),
      bind(knob(kScenario, "ws-k", "ws-k", kCount, {2, kMaxNodes}, "4",
                "watts-strogatz lattice degree (even, < n)"),
           M2HEW_FIELD(scenario->ws_k)),
      bind(knob(kScenario, "ws-beta", "ws-beta", kReal, kUnit, "0.2",
                "watts-strogatz rewiring probability"),
           M2HEW_FIELD(scenario->ws_beta)),
      bind(knob(kScenario, "ba-m", "ba-m", kCount, {1, kMaxNodes}, "2",
                "barabasi-albert attachments per node (< n)"),
           M2HEW_FIELD(scenario->ba_m)),
      bind(knob(kScenario, "asymmetric-drop", "asymmetric-drop", kReal, kUnit,
                "0", "drop one arc direction w.p. p"),
           M2HEW_FIELD(scenario->asymmetric_drop)),
      bind(knob(kScenario, "channels", "channels", kChoice, {}, "homogeneous",
                "available-channel model", kChannelKinds),
           M2HEW_FIELD(scenario->channels)),
      bind(knob(kScenario, "universe", "universe", kCount, {1, kMaxChannels},
                "8", "channel universe |U|"),
           M2HEW_FIELD(scenario->universe)),
      bind(knob(kScenario, "set-size", "set-size", kCount, {1, kMaxChannels},
                "4", "channels per node |A(u)| (chain: S)"),
           M2HEW_FIELD(scenario->set_size)),
      bind(knob(kScenario, "min-size", "min-size", kCount, {1, kMaxChannels},
                "2", "variable: smallest |A(u)|"),
           M2HEW_FIELD(scenario->min_size)),
      bind(knob(kScenario, "max-size", "max-size", kCount, {1, kMaxChannels},
                "6", "variable: largest |A(u)|"),
           M2HEW_FIELD(scenario->max_size)),
      bind(knob(kScenario, "overlap", "overlap", kCount, {1, kMaxChannels},
                "2", "chain overlap k (<= set-size)"),
           M2HEW_FIELD(scenario->chain_overlap)),
      bind(knob(kScenario, "pu-count", "pu-count", kCount,
                {0, kMaxPrimaryUsers}, "12",
                "primary-users: number of primary users"),
           M2HEW_FIELD(scenario->pu_count)),
      bind(knob(kScenario, "pu-min-radius", "pu-min-radius", kReal,
                kNonNegative, "0.2", "primary-users: smallest radius"),
           M2HEW_FIELD(scenario->pu_min_radius)),
      bind(knob(kScenario, "pu-max-radius", "pu-max-radius", kReal,
                kNonNegative, "0.5", "primary-users: largest radius"),
           M2HEW_FIELD(scenario->pu_max_radius)),
      bind(knob(kScenario, "require-nonempty-spans", "require-nonempty-spans",
                kBool, {}, "1",
                "redraw random channels until every edge shares one"),
           M2HEW_FIELD(scenario->require_nonempty_spans)),
      bind(knob(kScenario, "propagation", "propagation", kChoice, {}, "full",
                "per-arc channel propagation model", kPropagations),
           M2HEW_FIELD(scenario->propagation)),
      bind(knob(kScenario, "prop-keep", "prop-keep", kReal, kUnitAboveZero,
                "0.7", "random-mask keep probability"),
           M2HEW_FIELD(scenario->prop_keep)),
      // [faults]: node churn, gated on crash-prob > 0
      bind(knob(kChurn, "crash-prob", "churn-prob", kReal, kUnit, "0",
                "per-node crash probability"),
           M2HEW_FIELD(faults->churn.crash_probability)),
      bind(knob(kChurn, "crash-from", "churn-from", kCount, {0, kMaxSlots},
                "200", "earliest crash slot"),
           M2HEW_FIELD(faults->churn.earliest_crash)),
      bind(knob(kChurn, "crash-until", "churn-until", kCount, {0, kMaxSlots},
                "2000", "latest crash slot"),
           M2HEW_FIELD(faults->churn.latest_crash)),
      bind(knob(kChurn, "down-min", "churn-down-min", kCount, {0, kMaxSlots},
                "100", "shortest downtime, slots"),
           M2HEW_FIELD(faults->churn.min_down)),
      bind(knob(kChurn, "down-max", "churn-down-max", kCount, {0, kMaxSlots},
                "1000", "longest downtime, slots"),
           M2HEW_FIELD(faults->churn.max_down)),
      bind(knob(kChurn, "reset-on-recovery", "churn-reset", kBool, {}, "1",
                "restart the policy after recovery"),
           M2HEW_FIELD(faults->churn.reset_policy_on_recovery)),
      // [faults]: Gilbert-Elliott burst loss, gated on burst-loss > 0
      bind(knob(kBurstLoss, "burst-loss", "burst-loss", kReal, kUnitBelowOne,
                "0", "bad-state loss; > 0 enables bursty loss"),
           M2HEW_FIELD(faults->burst_loss.loss_bad)),
      bind(knob(kBurstLoss, "burst-p-gb", "burst-p-gb", kReal, kUnit, "0.01",
                "good->bad transition probability"),
           M2HEW_FIELD(faults->burst_loss.p_good_to_bad)),
      bind(knob(kBurstLoss, "burst-p-bg", "burst-p-bg", kReal, kUnit, "0.1",
                "bad->good transition probability"),
           M2HEW_FIELD(faults->burst_loss.p_bad_to_good)),
      bind(knob(kBurstLoss, "burst-loss-good", "burst-loss-good", kReal,
                kUnitBelowOne, "0", "good-state loss probability"),
           M2HEW_FIELD(faults->burst_loss.loss_good)),
      // [mobility]
      bind(knob(kMobility, "epochs", "mobility-epochs", kCount,
                {1, kMaxEpochs}, "8", "epochs in the topology schedule"),
           M2HEW_FIELD(mobility->epochs)),
      bind(knob(kMobility, "epoch-slots", "mobility-epoch-slots", kCount,
                {1, kMaxSlots}, "500", "slots per epoch"),
           M2HEW_FIELD(mobility->epoch_slots)),
      bind(knob(kMobility, "speed-min", "mobility-speed-min", kReal,
                kNonNegative, "0", "slowest node speed, units/epoch"),
           M2HEW_FIELD(mobility->speed_min)),
      bind(knob(kMobility, "speed-max", "mobility-speed-max", kReal,
                kNonNegative, "0.05", "fastest node speed, units/epoch"),
           M2HEW_FIELD(mobility->speed_max)),
      bind(knob(kMobility, "pause-epochs", "mobility-pause", kCount,
                {0, kMaxSlots}, "0", "longest pause at a waypoint, epochs"),
           M2HEW_FIELD(mobility->pause_epochs)),
      bind(knob(kMobility, "duty-on", "duty-on", kCount, {1, kMaxSlots}, "1",
                "policy active duty-on slots of every duty-period"),
           M2HEW_FIELD(mobility->duty_on)),
      bind(knob(kMobility, "duty-period", "duty-period", kCount,
                {1, kMaxSlots}, "1", "duty-cycle window, slots"),
           M2HEW_FIELD(mobility->duty_period)),
      // [adversary]: the attack
      bind(knob(kAdversary, "fraction", "adversary-fraction", kReal, kUnit,
                "0", "fraction of nodes turned adversarial"),
           M2HEW_FIELD(faults->adversary.fraction)),
      bind(knob(kAdversary, "attack", "adversary-attack", kChoice, {}, "mix",
                "adversary behaviour", kAttacks),
           M2HEW_FIELD(faults->adversary.attack)),
      bind(knob(kAdversary, "byzantine-tx", "adversary-byzantine-tx", kReal,
                kUnitAboveZero, "0.45", "Byzantine per-slot transmit prob"),
           M2HEW_FIELD(faults->adversary.byzantine_tx)),
      bind(knob(kAdversary, "victim-fraction", "adversary-victim-fraction",
                kReal, kUnit, "0.5", "neighbours a non-responder ignores"),
           M2HEW_FIELD(faults->adversary.victim_fraction)),
      // [adversary]: the trust-table defence
      bind(knob(kTrust, "trust", "trust", kBool, {}, "0",
                "wrap the policy with the trust table"),
           M2HEW_FIELD(trust->enabled)),
      bind(knob(kTrust, "trust-threshold", "trust-threshold", kReal,
                kUnitBelowOne, "0.3", "block below this score"),
           M2HEW_FIELD(trust->threshold)),
      bind(knob(kTrust, "trust-reward", "trust-reward", kReal, kNonNegative,
                "0.02", "score per clean admission"),
           M2HEW_FIELD(trust->reward)),
      bind(knob(kTrust, "trust-rate-penalty", "trust-rate-penalty", kReal,
                kPositive, "0.35", "score cost of an anomaly"),
           M2HEW_FIELD(trust->rate_penalty)),
      bind(knob(kTrust, "trust-decay", "trust-decay", kReal, kUnitAboveZero,
                "0.999", "per-slot pull toward 1"),
           M2HEW_FIELD(trust->decay)),
      bind(knob(kTrust, "trust-rate-window", "trust-rate-window", kCount,
                {1, kMaxSlots}, "128", "rate window, slots"),
           M2HEW_FIELD(trust->rate_window)),
      bind(knob(kTrust, "trust-max-per-window", "trust-max-per-window",
                kCount, {1, kMaxSlots}, "6", "anomaly threshold per window"),
           M2HEW_FIELD(trust->max_per_window)),
      bind(knob(kTrust, "trust-block-slots", "trust-block-slots", kCount,
                {1, kMaxSlots}, "2048", "blocklist lifetime, slots"),
           M2HEW_FIELD(trust->block_slots)),
      bind(knob(kTrust, "trust-entry-window", "trust-entry-window", kCount,
                {1, kMaxSlots}, "16384", "last-seen expiry, slots"),
           M2HEW_FIELD(trust->entry_window)),
  };
  return table;
}

#undef M2HEW_FIELD

[[nodiscard]] bool carried(KnobBlock block, const KnobTarget& t) {
  switch (block) {
    case KnobBlock::kScenario: return t.scenario != nullptr;
    case KnobBlock::kChurn:
    case KnobBlock::kBurstLoss:
    case KnobBlock::kAdversary: return t.faults != nullptr;
    case KnobBlock::kMobility: return t.mobility != nullptr;
    case KnobBlock::kTrust: return t.trust != nullptr;
  }
  return false;
}

[[nodiscard]] bool gated(KnobBlock block) {
  return block == KnobBlock::kChurn || block == KnobBlock::kBurstLoss;
}

/// Whether a carried block is switched on (rendered, range-checked).
[[nodiscard]] bool active(KnobBlock block, const KnobTarget& t) {
  switch (block) {
    case KnobBlock::kScenario: return true;
    case KnobBlock::kChurn: return t.faults->churn.enabled();
    case KnobBlock::kBurstLoss: return t.faults->burst_loss.enabled;
    case KnobBlock::kMobility: return t.mobility->enabled;
    case KnobBlock::kAdversary: return t.faults->adversary.enabled();
    case KnobBlock::kTrust: return t.trust->enabled;
  }
  return false;
}

[[nodiscard]] const Knob& row_of(std::string_view key) {
  for (const Knob& row : rows()) {
    if (row.key == key) return row;
  }
  M2HEW_CHECK_MSG(false, "no knob row for key");
  return rows().front();
}

// The strings are built with append: GCC 12 at -O3 reports a bogus
// -Wrestrict for a short literal + std::string.
[[nodiscard]] std::string spelled(const Knob& row, KnobSpelling spelling) {
  if (spelling == KnobSpelling::kFlag) {
    return std::string("--").append(row.flag);
  }
  return std::string("[")
      .append(section_name(section_of(row.block)))
      .append("] ")
      .append(row.key);
}

/// "key = value" / "--flag=value".
[[nodiscard]] std::string setting(const Knob& row, std::string_view value,
                                  KnobSpelling spelling) {
  if (spelling == KnobSpelling::kFlag) {
    return std::string("--").append(row.flag).append("=").append(value);
  }
  return std::string(row.key).append(" = ").append(value);
}

[[nodiscard]] std::string render(const Knob& row, KnobValue value,
                                 bool canonical) {
  char buf[48];
  switch (row.kind) {
    case KnobKind::kCount:
      return std::to_string(value.count);
    case KnobKind::kReal:
      std::snprintf(buf, sizeof buf, canonical ? "%a" : "%g", value.real);
      return buf;
    case KnobKind::kBool:
      return value.count != 0 ? "1" : "0";
    case KnobKind::kChoice:
      return value.count < row.choices.size()
                 ? std::string(row.choices[value.count])
                 : "?";
  }
  return "?";
}

[[nodiscard]] std::string range_text(const Knob& row) {
  char buf[96];
  if (row.kind == KnobKind::kCount) {
    std::snprintf(buf, sizeof buf, "[%llu, %llu]",
                  static_cast<unsigned long long>(row.min),
                  static_cast<unsigned long long>(row.max));
  } else {
    std::snprintf(buf, sizeof buf, "%c%g, %g%c", row.min_open ? '(' : '[',
                  row.min, row.max, row.max_open ? ')' : ']');
  }
  return buf;
}

[[nodiscard]] std::string choice_list(const Knob& row) {
  std::string out;
  for (const std::string_view name : row.choices) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

[[nodiscard]] bool in_range(const Knob& row, KnobValue value) {
  switch (row.kind) {
    case KnobKind::kCount:
      return static_cast<double>(value.count) >= row.min &&
             static_cast<double>(value.count) <= row.max;
    case KnobKind::kReal: {
      const double v = value.real;
      const bool low_ok = row.min_open ? v > row.min : v >= row.min;
      const bool high_ok = row.max_open ? v < row.max : v <= row.max;
      return low_ok && high_ok;  // false for NaN
    }
    case KnobKind::kBool:
      return value.count <= 1;
    case KnobKind::kChoice:
      return value.count < row.choices.size();
  }
  return false;
}

[[nodiscard]] KnobValue default_value(const Knob& row) {
  std::string error;
  const auto value = parse_knob(row, row.def, KnobSpelling::kIni, &error);
  M2HEW_CHECK_MSG(value.has_value(), error.c_str());
  return *value;
}

/// Reads the raw text given for one knob; nullopt when it was not given.
using KnobLookup =
    std::function<std::optional<std::string>(const Knob& knob)>;

/// Parses every row whose block `target` carries (within `only`, when
/// set) from `lookup` and writes the given values plus the defaults of an
/// enabled gated block. Stops at the first bad value.
[[nodiscard]] bool apply_rows(const KnobTarget& target,
                              std::optional<KnobSection> only,
                              const KnobLookup& lookup, KnobSpelling spelling,
                              std::string* error) {
  const std::vector<Knob>& table = rows();
  std::vector<std::optional<KnobValue>> given(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Knob& row = table[i];
    if (!carried(row.block, target)) continue;
    if (only.has_value() && section_of(row.block) != *only) continue;
    const std::optional<std::string> text = lookup(row);
    if (!text.has_value()) continue;
    given[i] = parse_knob(row, *text, spelling, error);
    if (!given[i].has_value()) return false;
  }
  // A gated block's first row is its gate; the block switches on when
  // the gate (given or default) is positive.
  bool gate_open = false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Knob& row = table[i];
    if (!gated(row.block)) {
      if (given[i].has_value()) row.write(target, *given[i]);
      continue;
    }
    if (i == 0 || table[i - 1].block != row.block) {
      gate_open = given[i].has_value() && given[i]->real > 0.0;
      if (gate_open && row.block == KnobBlock::kBurstLoss) {
        target.faults->burst_loss.enabled = true;
      }
    }
    if (gate_open) row.write(target, given[i].value_or(default_value(row)));
  }
  return true;
}

[[nodiscard]] KnobLookup ini_lookup(const util::IniFile& ini) {
  return [&ini](const Knob& row) -> std::optional<std::string> {
    const std::string_view section = section_name(section_of(row.block));
    if (!ini.has(section, row.key)) return std::nullopt;
    return ini.get(section, row.key);
  };
}

/// Rejects keys of `section` that have no row.
[[nodiscard]] bool known_keys_only(const util::IniFile& ini,
                                   KnobSection section, std::string* error) {
  const std::string_view name = section_name(section);
  for (const std::string& key : ini.keys(name)) {
    if (find_knob(section, key) == nullptr) {
      if (error != nullptr) {
        *error = std::string("unknown [")
                     .append(name)
                     .append("] key '")
                     .append(key)
                     .append("'");
      }
      return false;
    }
  }
  return true;
}

[[nodiscard]] double number(const Knob& row, KnobValue value) {
  return row.kind == KnobKind::kReal ? value.real
                                     : static_cast<double>(value.count);
}

[[nodiscard]] bool has_channels(const KnobTarget& t, ChannelKind kind) {
  return t.scenario->channels == kind;
}

/// `lo <= hi` rules across keys, each applying while its condition holds.
struct OrderRule {
  std::string_view lo, hi;
  bool (*applies)(const KnobTarget&);
};
const OrderRule kOrderRules[] = {
    {"set-size", "universe",
     [](const KnobTarget& t) {
       return has_channels(t, ChannelKind::kHomogeneous) ||
              has_channels(t, ChannelKind::kUniformRandom);
     }},
    {"min-size", "max-size",
     [](const KnobTarget& t) {
       return has_channels(t, ChannelKind::kVariableRandom);
     }},
    {"max-size", "universe",
     [](const KnobTarget& t) {
       return has_channels(t, ChannelKind::kVariableRandom);
     }},
    {"overlap", "set-size",
     [](const KnobTarget& t) {
       return has_channels(t, ChannelKind::kChainOverlap);
     }},
    {"pu-min-radius", "pu-max-radius",
     [](const KnobTarget& t) {
       return has_channels(t, ChannelKind::kPrimaryUsers);
     }},
    {"crash-from", "crash-until",
     [](const KnobTarget& t) { return t.faults->churn.enabled(); }},
    {"down-min", "down-max",
     [](const KnobTarget& t) { return t.faults->churn.enabled(); }},
    {"speed-min", "speed-max", [](const KnobTarget&) { return true; }},
    {"duty-on", "duty-period", [](const KnobTarget&) { return true; }},
};

}  // namespace

std::span<const Knob> knob_table() { return rows(); }

KnobSection section_of(KnobBlock block) {
  switch (block) {
    case KnobBlock::kScenario: return KnobSection::kScenario;
    case KnobBlock::kChurn:
    case KnobBlock::kBurstLoss: return KnobSection::kFaults;
    case KnobBlock::kMobility: return KnobSection::kMobility;
    case KnobBlock::kAdversary:
    case KnobBlock::kTrust: return KnobSection::kAdversary;
  }
  return KnobSection::kScenario;
}

std::string_view section_name(KnobSection section) {
  switch (section) {
    case KnobSection::kScenario: return "scenario";
    case KnobSection::kFaults: return "faults";
    case KnobSection::kMobility: return "mobility";
    case KnobSection::kAdversary: return "adversary";
  }
  return "?";
}

const Knob* find_knob(KnobSection section, std::string_view key) {
  for (const Knob& row : rows()) {
    if (section_of(row.block) == section && row.key == key) return &row;
  }
  return nullptr;
}

std::optional<KnobValue> parse_knob(const Knob& knob, std::string_view text,
                                    KnobSpelling spelling,
                                    std::string* error) {
  const std::string value(text);
  const auto fail = [&](const std::string& what) -> std::optional<KnobValue> {
    const std::string message = spelled(knob, spelling) + ": " + what;
    if (error == nullptr) M2HEW_CHECK_MSG(false, message.c_str());
    *error = message;
    return std::nullopt;
  };
  KnobValue parsed;
  switch (knob.kind) {
    case KnobKind::kCount: {
      // strtoull would wrap "-1" to 2^64 - 1: digits only.
      const bool digits = !value.empty() && value[0] >= '0' && value[0] <= '9';
      char* end = nullptr;
      errno = 0;
      parsed.count = digits ? std::strtoull(value.c_str(), &end, 10) : 0;
      if (!digits || *end != '\0') {
        return fail("expected an unsigned integer (got '" + value + "')");
      }
      if (errno == ERANGE) {
        return fail(value + " is outside " + range_text(knob));
      }
      break;
    }
    case KnobKind::kReal: {
      char* end = nullptr;
      parsed.real = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') {
        return fail("expected a number (got '" + value + "')");
      }
      break;
    }
    case KnobKind::kBool:
      if (value == "1" || value == "true") {
        parsed.count = 1;
      } else if (value != "0" && value != "false") {
        return fail("expected 0, 1, false or true (got '" + value + "')");
      }
      break;
    case KnobKind::kChoice: {
      std::size_t index = 0;
      while (index < knob.choices.size() && knob.choices[index] != value) {
        ++index;
      }
      if (index == knob.choices.size()) {
        return fail("expected one of " + choice_list(knob) + " (got '" +
                    value + "')");
      }
      parsed.count = index;
      break;
    }
  }
  if (!in_range(knob, parsed)) {
    return fail(value + " is outside " + range_text(knob));
  }
  return parsed;
}

bool apply_ini_knobs(const util::IniFile& ini, const KnobTarget& target,
                     std::string* error) {
  for (const KnobSection section :
       {KnobSection::kScenario, KnobSection::kFaults, KnobSection::kMobility,
        KnobSection::kAdversary}) {
    if (!known_keys_only(ini, section, error)) return false;
  }
  if (target.mobility != nullptr && ini.has_section("mobility")) {
    target.mobility->enabled = true;
  }
  return apply_rows(target, std::nullopt, ini_lookup(ini), KnobSpelling::kIni,
                    error);
}

bool apply_flag_knobs(const util::Flags& flags, const KnobTarget& target,
                      std::string* error) {
  return apply_rows(
      target, std::nullopt,
      [&flags](const Knob& row) -> std::optional<std::string> {
        if (!flags.has(row.flag)) return std::nullopt;
        std::string text = flags.get_string(row.flag);
        if (text.empty() && row.kind == KnobKind::kBool) text = "1";
        return text;
      },
      KnobSpelling::kFlag, error);
}

bool validate_knobs(const KnobTarget& t, const KnobContext& context,
                    KnobSpelling spelling, std::string* error) {
  const auto fail = [error](const std::string& message) {
    *error = message;
    return false;
  };
  // "key = value" / "--flag=value" for the value a key holds now, or for
  // the value a rule asks for.
  const auto now = [&](std::string_view key) {
    const Knob& row = row_of(key);
    return setting(row, render(row, row.read(t), false), spelling);
  };
  const auto want = [&](std::string_view key, std::string_view value) {
    return setting(row_of(key), value, spelling);
  };
  const bool flag = spelling == KnobSpelling::kFlag;
  const std::string engine_kernel = flag ? "--kernel=engine"
                                         : "kernel = engine";

  // A gated block that is off is inert; every other block is read (trust
  // settings are checked even while trust is off).
  for (const Knob& row : rows()) {
    if (!carried(row.block, t)) continue;
    if (gated(row.block) && !active(row.block, t)) continue;
    const KnobValue value = row.read(t);
    if (!in_range(row, value)) {
      return fail(spelled(row, spelling) + ": " + render(row, value, false) +
                  " is outside " + range_text(row));
    }
  }

  for (const OrderRule& rule : kOrderRules) {
    const Knob& lo = row_of(rule.lo);
    const Knob& hi = row_of(rule.hi);
    if (carried(lo.block, t) && carried(hi.block, t) && rule.applies(t) &&
        number(lo, lo.read(t)) > number(hi, hi.read(t))) {
      return fail(now(rule.lo) + " exceeds " + now(rule.hi));
    }
  }

  if (t.scenario != nullptr) {
    const ScenarioConfig& s = *t.scenario;
    const auto requires_topology = [&](std::string_view topology) {
      return fail(now("channels") + " requires " +
                  want("topology", topology) + " (got " + now("topology") +
                  ")");
    };
    if (s.channels == ChannelKind::kChainOverlap) {
      if (s.topology != TopologyKind::kLine) return requires_topology("line");
      const double universe =
          static_cast<double>(s.n - 1) * (s.set_size - s.chain_overlap) +
          s.set_size;
      if (universe > kMaxChannels) {
        return fail(now("channels") + " with " + now("n") + ", " +
                    now("set-size") + " and " + now("overlap") + " needs " +
                    std::to_string(static_cast<std::uint64_t>(universe)) +
                    " channels (at most 65536)");
      }
    }
    if (s.channels == ChannelKind::kPrimaryUsers &&
        s.topology != TopologyKind::kUnitDisk) {
      return requires_topology("unit-disk");
    }
    const net::NodeId grid_rows = s.grid_rows != 0 ? s.grid_rows : 2;
    if (s.topology == TopologyKind::kGrid && s.n % grid_rows != 0) {
      return fail(now("topology") + " needs " + now("n") + " divisible by " +
                  now("grid-rows") + (s.grid_rows == 0 ? ", i.e. 2" : ""));
    }
    const auto needs = [&](std::string_view what, std::string_view key) {
      return fail(now("topology") + " needs " + std::string(what) + " (got " +
                  now("n") + (key == "n" ? "" : ", " + now(key)) + ")");
    };
    if (s.topology == TopologyKind::kRing && s.n < 3) {
      return needs("n >= 3", "n");
    }
    if (s.topology == TopologyKind::kWattsStrogatz &&
        (s.ws_k % 2 != 0 || s.ws_k >= s.n)) {
      return needs("an even ws-k below n", "ws-k");
    }
    if (s.topology == TopologyKind::kBarabasiAlbert && s.ba_m >= s.n) {
      return needs("ba-m below n", "ba-m");
    }
  }

  if (t.faults != nullptr && t.faults->burst_loss.enabled &&
      context.loss_probability > 0.0) {
    return fail(std::string(flag ? "--loss" : "loss") + " and " +
                spelled(row_of("burst-loss"), spelling) +
                " are mutually exclusive (i.i.d. vs Gilbert-Elliott loss)");
  }

  if (t.mobility != nullptr) {
    const MobilitySpec& m = *t.mobility;
    if (m.enabled && t.scenario != nullptr &&
        m.speed_max > kMaxLegsPerEpoch * t.scenario->ud_side) {
      return fail(now("speed-max") + " exceeds 1000 x " + now("ud-side"));
    }
    const std::string duty = spelled(row_of("duty-on"), spelling) + " < " +
                             spelled(row_of("duty-period"), spelling);
    if (m.duty_on != m.duty_period && context.soa_kernel) {
      return fail(duty + " requires " + engine_kernel +
                  " (duty cycling wraps policy objects, not SoA policy "
                  "tables)");
    }
    const std::string mobility = flag ? "--mobility=rwp" : "[mobility]";
    if (m.duty_on != m.duty_period && !m.enabled) {
      return fail(duty + " requires " + mobility);
    }
    if (m.enabled && t.scenario != nullptr) {
      const ScenarioConfig& s = *t.scenario;
      if (s.topology != TopologyKind::kUnitDisk) {
        return fail(mobility + " requires " + want("topology", "unit-disk"));
      }
      if (s.channels != ChannelKind::kHomogeneous &&
          s.channels != ChannelKind::kUniformRandom &&
          s.channels != ChannelKind::kVariableRandom) {
        return fail(mobility + " requires " +
                    want("channels", "homogeneous|uniform|variable"));
      }
    }
  }

  if (t.trust != nullptr && t.trust->enabled && context.soa_kernel) {
    return fail(want("trust", "1") + " requires " + engine_kernel +
                " (trust wraps policy objects, not SoA policy tables)");
  }
  return true;
}

std::string canonical_knobs(const ScenarioConfig& scenario,
                            const sim::SlotFaultPlan& faults,
                            const MobilitySpec& mobility,
                            const core::TrustConfig& trust) {
  // Rows only read through the target, so the casts never write.
  const KnobTarget t{const_cast<ScenarioConfig*>(&scenario),
                     const_cast<sim::SlotFaultPlan*>(&faults),
                     const_cast<MobilitySpec*>(&mobility),
                     const_cast<core::TrustConfig*>(&trust)};
  std::string out;
  std::optional<KnobSection> open;
  for (const Knob& row : rows()) {
    const KnobSection section = section_of(row.block);
    if (open != section) {
      out.append("[").append(section_name(section)).append("]\n");
      open = section;
    }
    if (!active(row.block, t)) continue;
    out.append(row.key).append(" = ");
    out.append(render(row, row.read(t), true)).append("\n");
  }
  return out;
}

std::string knob_flag_help(KnobSection section, const KnobTarget& defaults) {
  constexpr std::size_t kColumn = 30;
  std::string out;
  for (const Knob& row : rows()) {
    if (section_of(row.block) != section) continue;
    std::string head = std::string("  --").append(row.flag).append("=<");
    switch (row.kind) {
      case KnobKind::kCount: head += "count"; break;
      case KnobKind::kReal: head += "x"; break;
      case KnobKind::kBool: head += "0|1"; break;
      case KnobKind::kChoice: head += choice_list(row); break;
    }
    head += ">";
    out += head;
    if (head.size() + 2 > kColumn) {
      out += "\n";
      out.append(kColumn, ' ');
    } else {
      out.append(kColumn - head.size(), ' ');
    }
    const std::string def =
        gated(row.block) || !carried(row.block, defaults)
            ? std::string(row.def)
            : render(row, row.read(defaults), false);
    out.append(row.help).append(" (default ").append(def);
    if (row.kind == KnobKind::kCount || row.kind == KnobKind::kReal) {
      out += "; " + range_text(row);
    }
    out += ")\n";
  }
  return out;
}

bool apply_scenario_setting(ScenarioConfig& config, std::string_view key,
                            std::string_view value, std::string* error) {
  const Knob* row = find_knob(KnobSection::kScenario, key);
  if (row == nullptr) {
    if (error != nullptr) {
      *error = "unknown scenario key '" + std::string(key) + "'";
    }
    return false;
  }
  const auto parsed = parse_knob(*row, value, KnobSpelling::kIni, error);
  if (!parsed.has_value()) return false;
  row->write(KnobTarget{.scenario = &config}, *parsed);
  return true;
}

bool apply_scenario_setting(ScenarioConfig& config, std::string_view key,
                            std::string_view value) {
  return apply_scenario_setting(config, key, value, nullptr);
}

bool parse_faults_section(const util::IniFile& ini,
                          sim::SlotFaultPlan& faults, std::string* error) {
  return known_keys_only(ini, KnobSection::kFaults, error) &&
         apply_rows(KnobTarget{.faults = &faults}, KnobSection::kFaults,
                    ini_lookup(ini), KnobSpelling::kIni, error);
}

bool parse_mobility_section(const util::IniFile& ini, MobilitySpec& mobility,
                            std::string* error) {
  if (!ini.has_section("mobility")) return true;
  mobility.enabled = true;
  return known_keys_only(ini, KnobSection::kMobility, error) &&
         apply_rows(KnobTarget{.mobility = &mobility}, KnobSection::kMobility,
                    ini_lookup(ini), KnobSpelling::kIni, error);
}

bool parse_adversary_section(const util::IniFile& ini,
                             sim::AdversarySpec& adversary,
                             core::TrustConfig& trust, std::string* error) {
  sim::SlotFaultPlan plan;
  plan.adversary = adversary;
  const bool ok =
      known_keys_only(ini, KnobSection::kAdversary, error) &&
      apply_rows(KnobTarget{.faults = &plan, .trust = &trust},
                 KnobSection::kAdversary, ini_lookup(ini), KnobSpelling::kIni,
                 error);
  adversary = plan.adversary;
  return ok;
}

}  // namespace m2hew::runner
