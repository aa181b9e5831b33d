#include "runner/scenario_kv.hpp"

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "util/check.hpp"
#include "util/ini.hpp"

namespace m2hew::runner {

namespace {

// The parse helpers return nullopt on malformed input; whether that is a
// recoverable error or an abort is decided once, in the applier, by the
// presence of an error sink.

[[nodiscard]] std::optional<double> parse_double(std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

[[nodiscard]] std::optional<std::uint64_t> parse_unsigned(
    std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

[[nodiscard]] std::optional<TopologyKind> parse_topology(
    std::string_view value) {
  if (value == "line") return TopologyKind::kLine;
  if (value == "ring") return TopologyKind::kRing;
  if (value == "grid") return TopologyKind::kGrid;
  if (value == "star") return TopologyKind::kStar;
  if (value == "clique") return TopologyKind::kClique;
  if (value == "erdos-renyi") return TopologyKind::kErdosRenyi;
  if (value == "unit-disk") return TopologyKind::kUnitDisk;
  if (value == "watts-strogatz") return TopologyKind::kWattsStrogatz;
  if (value == "barabasi-albert") return TopologyKind::kBarabasiAlbert;
  return std::nullopt;
}

[[nodiscard]] std::optional<ChannelKind> parse_channels(
    std::string_view value) {
  if (value == "homogeneous") return ChannelKind::kHomogeneous;
  if (value == "uniform") return ChannelKind::kUniformRandom;
  if (value == "variable") return ChannelKind::kVariableRandom;
  if (value == "chain") return ChannelKind::kChainOverlap;
  if (value == "primary-users") return ChannelKind::kPrimaryUsers;
  return std::nullopt;
}

[[nodiscard]] std::optional<PropagationKind> parse_propagation(
    std::string_view value) {
  if (value == "full") return PropagationKind::kFull;
  if (value == "random") return PropagationKind::kRandomMask;
  if (value == "lowpass") return PropagationKind::kLowpass;
  return std::nullopt;
}

[[nodiscard]] std::optional<sim::AdversaryAttack> parse_attack(
    std::string_view value) {
  if (value == "jam") return sim::AdversaryAttack::kJam;
  if (value == "byzantine") return sim::AdversaryAttack::kByzantine;
  if (value == "non-responder") return sim::AdversaryAttack::kNonResponder;
  if (value == "mix") return sim::AdversaryAttack::kMix;
  return std::nullopt;
}

/// Recoverable typed reads over one INI section. Unlike the aborting
/// IniFile typed getters, a malformed value records a one-line message
/// (first failure wins) and returns the default, so the long-lived sweep
/// daemon can reject the spec instead of dying on it.
class SectionReader {
 public:
  SectionReader(const util::IniFile& ini, std::string_view section)
      : ini_(ini), section_(section) {}

  [[nodiscard]] double get_double(std::string_view key, double def) {
    if (!ini_.has(section_, key)) return def;
    const auto parsed = parse_double(ini_.get(section_, key));
    if (!parsed.has_value()) {
      note_malformed(key, "a number");
      return def;
    }
    return *parsed;
  }

  [[nodiscard]] std::uint64_t get_unsigned(std::string_view key,
                                           std::uint64_t def) {
    if (!ini_.has(section_, key)) return def;
    const auto parsed = parse_unsigned(ini_.get(section_, key));
    if (!parsed.has_value()) {
      note_malformed(key, "an unsigned integer");
      return def;
    }
    return *parsed;
  }

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Records a section-scoped failure (range violations, bad enum names).
  void fail(std::string message) {
    if (error_.empty()) {
      error_.append(1, '[').append(section_).append("] ").append(message);
    }
  }

 private:
  void note_malformed(std::string_view key, const char* expected) {
    fail("key '" + std::string(key) + "' expects " + expected + " (got '" +
         ini_.get(section_, key) + "')");
  }

  const util::IniFile& ini_;
  std::string section_;
  std::string error_;
};

/// Flushes a SectionReader verdict into the caller's error sink.
[[nodiscard]] bool finish_section(const SectionReader& reader,
                                  std::string* error) {
  if (reader.ok()) return true;
  if (error != nullptr) *error = reader.error();
  return false;
}

}  // namespace

bool apply_scenario_setting(ScenarioConfig& config, std::string_view key,
                            std::string_view value, std::string* error) {
  // Typed fetchers: on malformed input they record a message and leave the
  // config untouched. `bad` distinguishes a parse failure (key was known,
  // value was not) from the unknown-key `return false` at the bottom.
  bool bad = false;
  const auto fail = [&](const char* what) {
    bad = true;
    const std::string message = "scenario key '" + std::string(key) +
                                "': " + what + " (got '" +
                                std::string(value) + "')";
    if (error == nullptr) M2HEW_CHECK_MSG(false, message.c_str());
    *error = message;
  };
  const auto as_double = [&]() -> double {
    const auto parsed = parse_double(value);
    if (!parsed.has_value()) {
      fail("expected a number");
      return 0.0;
    }
    return *parsed;
  };
  const auto as_unsigned = [&]() -> std::uint64_t {
    const auto parsed = parse_unsigned(value);
    if (!parsed.has_value()) {
      fail("expected an unsigned integer");
      return 0;
    }
    return *parsed;
  };

  if (key == "topology") {
    const auto parsed = parse_topology(value);
    if (!parsed.has_value()) {
      fail("unknown topology name");
    } else {
      config.topology = *parsed;
    }
  } else if (key == "n") {
    config.n = static_cast<net::NodeId>(as_unsigned());
  } else if (key == "grid-rows") {
    config.grid_rows = static_cast<net::NodeId>(as_unsigned());
  } else if (key == "er-p") {
    config.er_edge_probability = as_double();
  } else if (key == "ud-side") {
    config.ud_side = as_double();
  } else if (key == "ud-radius") {
    config.ud_radius = as_double();
  } else if (key == "ws-k") {
    config.ws_k = static_cast<net::NodeId>(as_unsigned());
  } else if (key == "ws-beta") {
    config.ws_beta = as_double();
  } else if (key == "ba-m") {
    config.ba_m = static_cast<net::NodeId>(as_unsigned());
  } else if (key == "channels") {
    const auto parsed = parse_channels(value);
    if (!parsed.has_value()) {
      fail("unknown channel kind");
    } else {
      config.channels = *parsed;
    }
  } else if (key == "universe") {
    config.universe = static_cast<net::ChannelId>(as_unsigned());
  } else if (key == "set-size") {
    config.set_size = static_cast<net::ChannelId>(as_unsigned());
  } else if (key == "min-size") {
    config.min_size = static_cast<net::ChannelId>(as_unsigned());
  } else if (key == "max-size") {
    config.max_size = static_cast<net::ChannelId>(as_unsigned());
  } else if (key == "overlap") {
    config.chain_overlap = static_cast<net::ChannelId>(as_unsigned());
  } else if (key == "pu-count") {
    config.pu_count = as_unsigned();
  } else if (key == "pu-min-radius") {
    config.pu_min_radius = as_double();
  } else if (key == "pu-max-radius") {
    config.pu_max_radius = as_double();
  } else if (key == "asymmetric-drop") {
    config.asymmetric_drop = as_double();
  } else if (key == "propagation") {
    const auto parsed = parse_propagation(value);
    if (!parsed.has_value()) {
      fail("unknown propagation kind");
    } else {
      config.propagation = *parsed;
    }
  } else if (key == "prop-keep") {
    config.prop_keep = as_double();
  } else if (key == "require-nonempty-spans") {
    config.require_nonempty_spans = value == "true" || value == "1";
  } else {
    if (error != nullptr) {
      *error = "unknown scenario key '" + std::string(key) + "'";
    }
    return false;
  }
  return !bad;
}

bool apply_scenario_setting(ScenarioConfig& config, std::string_view key,
                            std::string_view value) {
  return apply_scenario_setting(config, key, value, nullptr);
}

bool parse_faults_section(const util::IniFile& ini,
                          sim::SlotFaultPlan& faults, std::string* error) {
  if (!ini.has_section("faults")) return true;
  static constexpr const char* kKnown[] = {
      "crash-prob", "crash-from", "crash-until",       "down-min",
      "down-max",   "burst-loss", "reset-on-recovery", "burst-p-gb",
      "burst-p-bg", "burst-loss-good"};
  for (const std::string& key : ini.keys("faults")) {
    bool known = false;
    for (const char* k : kKnown) known |= key == k;
    if (!known) {
      if (error != nullptr) *error = "unknown [faults] key '" + key + "'";
      return false;
    }
  }
  SectionReader reader(ini, "faults");
  const double crash_prob = reader.get_double("crash-prob", 0.0);
  if (crash_prob > 0.0) {
    faults.churn.crash_probability = crash_prob;
    faults.churn.earliest_crash = reader.get_unsigned("crash-from", 200);
    faults.churn.latest_crash = reader.get_unsigned("crash-until", 2000);
    faults.churn.min_down = reader.get_unsigned("down-min", 100);
    faults.churn.max_down = reader.get_unsigned("down-max", 1000);
    faults.churn.reset_policy_on_recovery =
        reader.get_unsigned("reset-on-recovery", 1) != 0;
  }
  const double burst_bad = reader.get_double("burst-loss", 0.0);
  if (burst_bad > 0.0) {
    faults.burst_loss.enabled = true;
    faults.burst_loss.loss_bad = burst_bad;
    faults.burst_loss.p_good_to_bad = reader.get_double("burst-p-gb", 0.01);
    faults.burst_loss.p_bad_to_good = reader.get_double("burst-p-bg", 0.1);
    faults.burst_loss.loss_good = reader.get_double("burst-loss-good", 0.0);
  }
  return finish_section(reader, error);
}

bool parse_mobility_section(const util::IniFile& ini, MobilitySpec& mobility,
                            std::string* error) {
  if (!ini.has_section("mobility")) return true;
  static constexpr const char* kKnown[] = {
      "epochs",       "epoch-slots", "speed-min", "speed-max",
      "pause-epochs", "duty-on",     "duty-period"};
  for (const std::string& key : ini.keys("mobility")) {
    bool known = false;
    for (const char* k : kKnown) known |= key == k;
    if (!known) {
      if (error != nullptr) *error = "unknown [mobility] key '" + key + "'";
      return false;
    }
  }
  SectionReader reader(ini, "mobility");
  mobility.enabled = true;
  mobility.epochs = static_cast<std::size_t>(reader.get_unsigned("epochs", 8));
  mobility.epoch_slots = reader.get_unsigned("epoch-slots", 500);
  mobility.speed_min = reader.get_double("speed-min", 0.0);
  mobility.speed_max = reader.get_double("speed-max", 0.05);
  mobility.pause_epochs = reader.get_unsigned("pause-epochs", 0);
  mobility.duty_on = reader.get_unsigned("duty-on", 1);
  mobility.duty_period = reader.get_unsigned("duty-period", 1);
  if (reader.ok() && (mobility.epochs < 1 || mobility.epoch_slots < 1)) {
    reader.fail("epochs and epoch-slots must be >= 1");
  }
  if (reader.ok() &&
      (mobility.speed_min < 0.0 || mobility.speed_max < mobility.speed_min)) {
    reader.fail("need 0 <= speed-min <= speed-max");
  }
  if (reader.ok() &&
      (mobility.duty_on < 1 || mobility.duty_on > mobility.duty_period)) {
    reader.fail("need 1 <= duty-on <= duty-period");
  }
  return finish_section(reader, error);
}

bool parse_adversary_section(const util::IniFile& ini,
                             sim::AdversarySpec& adversary,
                             core::TrustConfig& trust, std::string* error) {
  if (!ini.has_section("adversary")) return true;
  static constexpr const char* kKnown[] = {
      "fraction",          "attack",
      "byzantine-tx",      "victim-fraction",
      "trust",             "trust-threshold",
      "trust-reward",      "trust-rate-penalty",
      "trust-decay",       "trust-rate-window",
      "trust-max-per-window", "trust-block-slots",
      "trust-entry-window"};
  for (const std::string& key : ini.keys("adversary")) {
    bool known = false;
    for (const char* k : kKnown) known |= key == k;
    if (!known) {
      if (error != nullptr) *error = "unknown [adversary] key '" + key + "'";
      return false;
    }
  }
  SectionReader reader(ini, "adversary");
  adversary.fraction = reader.get_double("fraction", adversary.fraction);
  if (ini.has("adversary", "attack")) {
    const auto parsed = parse_attack(ini.get("adversary", "attack"));
    if (!parsed.has_value()) {
      reader.fail("attack must be jam | byzantine | non-responder | mix "
                  "(got '" +
                  ini.get("adversary", "attack") + "')");
    } else {
      adversary.attack = *parsed;
    }
  }
  adversary.byzantine_tx =
      reader.get_double("byzantine-tx", adversary.byzantine_tx);
  adversary.victim_fraction =
      reader.get_double("victim-fraction", adversary.victim_fraction);
  trust.enabled = reader.get_unsigned("trust", trust.enabled ? 1 : 0) != 0;
  trust.threshold = reader.get_double("trust-threshold", trust.threshold);
  trust.reward = reader.get_double("trust-reward", trust.reward);
  trust.rate_penalty =
      reader.get_double("trust-rate-penalty", trust.rate_penalty);
  trust.decay = reader.get_double("trust-decay", trust.decay);
  trust.rate_window =
      reader.get_unsigned("trust-rate-window", trust.rate_window);
  trust.max_per_window =
      reader.get_unsigned("trust-max-per-window", trust.max_per_window);
  trust.block_slots =
      reader.get_unsigned("trust-block-slots", trust.block_slots);
  trust.entry_window =
      reader.get_unsigned("trust-entry-window", trust.entry_window);

  // Recoverable mirrors of validate_fault_plan / validate_trust_config —
  // a daemon-submitted spec must never reach the aborting checks.
  if (reader.ok() &&
      (adversary.fraction < 0.0 || adversary.fraction > 1.0)) {
    reader.fail("fraction must be in [0, 1]");
  }
  if (reader.ok() &&
      (adversary.byzantine_tx <= 0.0 || adversary.byzantine_tx > 1.0)) {
    reader.fail("byzantine-tx must be in (0, 1]");
  }
  if (reader.ok() &&
      (adversary.victim_fraction < 0.0 || adversary.victim_fraction > 1.0)) {
    reader.fail("victim-fraction must be in [0, 1]");
  }
  if (reader.ok() &&
      (trust.threshold < 0.0 || trust.threshold >= 1.0)) {
    reader.fail("trust-threshold must be in [0, 1)");
  }
  if (reader.ok() && trust.reward < 0.0) {
    reader.fail("trust-reward must be >= 0");
  }
  if (reader.ok() && trust.rate_penalty <= 0.0) {
    reader.fail("trust-rate-penalty must be > 0");
  }
  if (reader.ok() && (trust.decay <= 0.0 || trust.decay > 1.0)) {
    reader.fail("trust-decay must be in (0, 1]");
  }
  if (reader.ok() &&
      (trust.rate_window < 1 || trust.max_per_window < 1 ||
       trust.block_slots < 1 || trust.entry_window < 1)) {
    reader.fail("trust windows and block duration must be >= 1 slot");
  }
  return finish_section(reader, error);
}

}  // namespace m2hew::runner
