#include "runner/scenario_kv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/trust.hpp"
#include "service/sweep_spec.hpp"
#include "sim/fault_plan.hpp"
#include "util/flags.hpp"
#include "util/ini.hpp"

namespace m2hew::runner {
namespace {

TEST(ScenarioKv, TopologyNames) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "topology", "unit-disk"));
  EXPECT_EQ(config.topology, TopologyKind::kUnitDisk);
  EXPECT_TRUE(apply_scenario_setting(config, "topology", "barabasi-albert"));
  EXPECT_EQ(config.topology, TopologyKind::kBarabasiAlbert);
}

TEST(ScenarioKv, NumericFields) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "n", "42"));
  EXPECT_EQ(config.n, 42u);
  EXPECT_TRUE(apply_scenario_setting(config, "er-p", "0.35"));
  EXPECT_DOUBLE_EQ(config.er_edge_probability, 0.35);
  EXPECT_TRUE(apply_scenario_setting(config, "set-size", "6"));
  EXPECT_EQ(config.set_size, 6u);
  EXPECT_TRUE(apply_scenario_setting(config, "overlap", "3"));
  EXPECT_EQ(config.chain_overlap, 3u);
  EXPECT_TRUE(apply_scenario_setting(config, "asymmetric-drop", "0.5"));
  EXPECT_DOUBLE_EQ(config.asymmetric_drop, 0.5);
}

TEST(ScenarioKv, ChannelAndPropagationKinds) {
  ScenarioConfig config;
  EXPECT_TRUE(apply_scenario_setting(config, "channels", "chain"));
  EXPECT_EQ(config.channels, ChannelKind::kChainOverlap);
  EXPECT_TRUE(apply_scenario_setting(config, "propagation", "lowpass"));
  EXPECT_EQ(config.propagation, PropagationKind::kLowpass);
  EXPECT_TRUE(apply_scenario_setting(config, "prop-keep", "0.6"));
  EXPECT_DOUBLE_EQ(config.prop_keep, 0.6);
}

TEST(ScenarioKv, BooleanField) {
  ScenarioConfig config;
  EXPECT_TRUE(
      apply_scenario_setting(config, "require-nonempty-spans", "false"));
  EXPECT_FALSE(config.require_nonempty_spans);
  EXPECT_TRUE(
      apply_scenario_setting(config, "require-nonempty-spans", "1"));
  EXPECT_TRUE(config.require_nonempty_spans);
}

TEST(ScenarioKv, UnknownKeyReturnsFalseUntouched) {
  ScenarioConfig config;
  const ScenarioConfig before = config;
  EXPECT_FALSE(apply_scenario_setting(config, "bogus-key", "1"));
  EXPECT_EQ(config.n, before.n);
}

TEST(ScenarioKv, AppliedConfigBuilds) {
  ScenarioConfig config;
  ASSERT_TRUE(apply_scenario_setting(config, "topology", "line"));
  ASSERT_TRUE(apply_scenario_setting(config, "channels", "chain"));
  ASSERT_TRUE(apply_scenario_setting(config, "n", "6"));
  ASSERT_TRUE(apply_scenario_setting(config, "set-size", "4"));
  ASSERT_TRUE(apply_scenario_setting(config, "overlap", "2"));
  const net::Network network = build_scenario(config, 1);
  EXPECT_EQ(network.node_count(), 6u);
  EXPECT_DOUBLE_EQ(network.min_span_ratio(), 0.5);
}

// Parses `text` with parse_adversary_section and returns the diagnostic
// ("" on success). Every failure must be recoverable — a daemon-submitted
// spec must never reach the aborting CHECKs in the validators.
[[nodiscard]] std::string adversary_error_of(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  sim::AdversarySpec adversary;
  core::TrustConfig trust;
  std::string error;
  const bool ok = parse_adversary_section(ini, adversary, trust, &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

TEST(ScenarioKv, AdversarySectionParses) {
  const util::IniFile ini = util::IniFile::parse_string(
      "[adversary]\n"
      "fraction = 0.3\n"
      "attack = non-responder\n"
      "byzantine-tx = 0.7\n"
      "victim-fraction = 0.25\n"
      "trust = 1\n"
      "trust-threshold = 0.4\n"
      "trust-rate-window = 64\n");
  sim::AdversarySpec adversary;
  core::TrustConfig trust;
  std::string error;
  ASSERT_TRUE(parse_adversary_section(ini, adversary, trust, &error)) << error;
  EXPECT_DOUBLE_EQ(adversary.fraction, 0.3);
  EXPECT_EQ(adversary.attack, sim::AdversaryAttack::kNonResponder);
  EXPECT_DOUBLE_EQ(adversary.byzantine_tx, 0.7);
  EXPECT_DOUBLE_EQ(adversary.victim_fraction, 0.25);
  EXPECT_TRUE(trust.enabled);
  EXPECT_DOUBLE_EQ(trust.threshold, 0.4);
  EXPECT_EQ(trust.rate_window, 64u);
}

TEST(ScenarioKv, AdversarySectionAbsentLeavesDefaults) {
  const util::IniFile ini = util::IniFile::parse_string("[scenario]\nn = 4\n");
  sim::AdversarySpec adversary;
  core::TrustConfig trust;
  std::string error;
  ASSERT_TRUE(parse_adversary_section(ini, adversary, trust, &error));
  EXPECT_FALSE(adversary.enabled());
  EXPECT_FALSE(trust.enabled);
  EXPECT_EQ(error, "");
}

TEST(ScenarioKv, AdversarySectionRecoverableDiagnostics) {
  // Unknown key: diagnostic names the section and the key.
  const std::string unknown = adversary_error_of("[adversary]\nbanana = 1\n");
  EXPECT_NE(unknown.find("[adversary]"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("banana"), std::string::npos) << unknown;
  // Malformed value: diagnostic echoes the offending text.
  const std::string malformed =
      adversary_error_of("[adversary]\nfraction = lots\n");
  EXPECT_NE(malformed.find("lots"), std::string::npos) << malformed;
  // Out-of-range values mirror the aborting validators, recoverably.
  EXPECT_NE(adversary_error_of("[adversary]\nfraction = 1.5\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\nattack = meteor\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-decay = 1.5\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-threshold = 1\n"), "");
  EXPECT_NE(adversary_error_of("[adversary]\ntrust-block-slots = 0\n"), "");
}

TEST(ScenarioKv, FaultsAndMobilitySectionsRejectUnknownKeys) {
  // The sibling sections share the recoverable-diagnostic contract.
  {
    const util::IniFile ini =
        util::IniFile::parse_string("[faults]\nbanana = 1\n");
    sim::SlotFaultPlan faults;
    std::string error;
    EXPECT_FALSE(parse_faults_section(ini, faults, &error));
    EXPECT_NE(error.find("banana"), std::string::npos) << error;
  }
  {
    const util::IniFile ini =
        util::IniFile::parse_string("[mobility]\nbanana = 1\n");
    MobilitySpec mobility;
    std::string error;
    EXPECT_FALSE(parse_mobility_section(ini, mobility, &error));
    EXPECT_NE(error.find("banana"), std::string::npos) << error;
  }
}

TEST(ScenarioKvDeath, BadValuesAbort) {
  ScenarioConfig config;
  EXPECT_DEATH((void)apply_scenario_setting(config, "topology", "moebius"),
               "CHECK failed");
  EXPECT_DEATH((void)apply_scenario_setting(config, "n", "many"),
               "CHECK failed");
  EXPECT_DEATH((void)apply_scenario_setting(config, "er-p", "x"),
               "CHECK failed");
  EXPECT_DEATH((void)apply_scenario_setting(config, "channels", "psychic"),
               "CHECK failed");
}

// ---- Table-driven: every row of the knob table ---------------------------

using Settings = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] const Knob& row_named(std::string_view key) {
  for (const Knob& row : knob_table()) {
    if (row.key == key) return row;
  }
  ADD_FAILURE() << "no row " << key;
  return knob_table().front();
}

/// "--flag" (appended: GCC 12 at -O3 reports a bogus -Wrestrict for a
/// short literal + std::string).
[[nodiscard]] std::string flag_of(const Knob& row) {
  return std::string("--").append(row.flag);
}

[[nodiscard]] std::string number_text(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

[[nodiscard]] std::string count_text(double value) {
  return std::to_string(static_cast<std::uint64_t>(value));
}

/// The row's default, parsed.
[[nodiscard]] KnobValue default_of(const Knob& row) {
  std::string error;
  const auto value = parse_knob(row, row.def, KnobSpelling::kIni, &error);
  EXPECT_TRUE(value.has_value()) << error;
  return value.value_or(KnobValue{});
}

/// An in-range value that differs from the row's default.
[[nodiscard]] std::string non_default(const Knob& row) {
  const KnobValue def = default_of(row);
  switch (row.kind) {
    case KnobKind::kCount: return std::to_string(def.count + 1);
    case KnobKind::kReal:
      return number_text(def.real > 0.0 ? def.real / 2 : 0.5);
    case KnobKind::kBool: return def.count != 0 ? "0" : "1";
    case KnobKind::kChoice:
      return std::string(row.choices[(def.count + 1) % row.choices.size()]);
  }
  return "";
}

/// The settings around `key = value` that let the value take effect and
/// pass the rules across keys: the gate of a gated block, trust or the
/// attack switched on, a unit-disk topology under mobility, a universe
/// large enough for a set size, and so on.
[[nodiscard]] Settings context_for(const Knob& row, const std::string& value) {
  const std::string key(row.key);
  const double v = row.kind == KnobKind::kCount || row.kind == KnobKind::kReal
                       ? std::strtod(value.c_str(), nullptr)
                       : 0.0;
  const auto at_least = [](double a, double b) { return std::max(a, b); };
  Settings s;
  switch (row.block) {
    case KnobBlock::kChurn:
      if (key != "crash-prob") s.push_back({"crash-prob", "0.5"});
      if (key == "crash-from") s.push_back({"crash-until", count_text(at_least(v, 2000))});
      if (key == "crash-until") s.push_back({"crash-from", count_text(std::min(v, 200.0))});
      if (key == "down-min") s.push_back({"down-max", count_text(at_least(v, 1000))});
      if (key == "down-max") s.push_back({"down-min", count_text(std::min(v, 100.0))});
      break;
    case KnobBlock::kBurstLoss:
      if (key != "burst-loss") s.push_back({"burst-loss", "0.5"});
      break;
    case KnobBlock::kAdversary:
      if (key != "fraction") s.push_back({"fraction", "0.3"});
      break;
    case KnobBlock::kTrust:
      if (key != "trust") s.push_back({"trust", "1"});
      break;
    case KnobBlock::kMobility: {
      s.push_back({"topology", "unit-disk"});
      if (key == "speed-min" || key == "speed-max") {
        const double speed_max = at_least(v, 0.05);
        if (key == "speed-min") s.push_back({"speed-max", number_text(speed_max)});
        s.push_back({"ud-side", number_text(at_least(1.0, speed_max))});
      }
      if (key == "duty-on") s.push_back({"duty-period", count_text(at_least(v, 1))});
      break;
    }
    case KnobBlock::kScenario:
      if (key == "n" && v > 64) {
        // A line with one channel keeps the largest n cheap to build.
        s = {{"topology", "line"}, {"universe", "1"}, {"set-size", "1"}};
      } else if (key == "grid-rows") {
        // An even n also suits the default two rows.
        const double n = v == 0 ? 2 : (2 * v <= 1'000'000 ? 2 * v : v);
        s = {{"topology", "grid"}, {"n", count_text(n)}};
        if (v > 64) s.insert(s.end(), {{"universe", "1"}, {"set-size", "1"}});
      } else if (key == "ws-k" && v <= 1000 && std::fmod(v, 2) == 0) {
        s = {{"topology", "watts-strogatz"}, {"n", count_text(v + 2)}};
      } else if (key == "ba-m" && v <= 1000) {
        s = {{"topology", "barabasi-albert"}, {"n", count_text(v + 1)}};
      } else if (key == "universe") {
        s = {{"set-size", count_text(std::min(v, 4.0))}};
      } else if (key == "set-size") {
        s = {{"universe", count_text(at_least(v, 8))}};
      } else if (key == "min-size") {
        s = {{"channels", "variable"}, {"max-size", count_text(at_least(v, 6))},
             {"universe", count_text(at_least(v, 8))}};
      } else if (key == "max-size") {
        s = {{"channels", "variable"}, {"min-size", count_text(std::min(v, 2.0))},
             {"universe", count_text(at_least(v, 8))}};
      } else if (key == "overlap") {
        s = {{"channels", "chain"}, {"topology", "line"},
             {"set-size", count_text(at_least(v, 4))}};
      } else if (key == "pu-count" || key == "pu-min-radius" ||
                 key == "pu-max-radius") {
        s = {{"channels", "primary-users"}, {"topology", "unit-disk"}};
        if (key == "pu-min-radius") s.push_back({"pu-max-radius", number_text(at_least(v, 0.5))});
        if (key == "pu-max-radius") s.push_back({"pu-min-radius", number_text(std::min(v, 0.2))});
      } else if (key == "ud-side" || key == "ud-radius") {
        s = {{"topology", "unit-disk"}};
      } else if (key == "er-p") {
        s = {{"topology", "erdos-renyi"}};
      } else if (key == "ws-beta") {
        s = {{"topology", "watts-strogatz"}};
      } else if (key == "prop-keep") {
        s = {{"propagation", "random"}};
      } else if (key == "require-nonempty-spans") {
        s = {{"channels", "uniform"}};
      } else if (key == "channels" && value == "chain") {
        s = {{"topology", "line"}};
      } else if (key == "channels" && value == "primary-users") {
        s = {{"topology", "unit-disk"}};
      }
      break;
  }
  // The row's own setting wins over a context entry for the same key.
  std::erase_if(s, [&](const auto& kv) { return kv.first == key; });
  s.push_back({key, value});
  return s;
}

[[nodiscard]] bool mobile(const Settings& settings) {
  return std::any_of(settings.begin(), settings.end(), [](const auto& kv) {
    return row_named(kv.first).block == KnobBlock::kMobility;
  });
}

[[nodiscard]] std::string ini_text(const Settings& settings) {
  std::string text = "[experiment]\nname = knob\n";
  for (const auto& [key, value] : settings) {
    text.append("[")
        .append(section_name(section_of(row_named(key).block)))
        .append("]\n" + key + " = " + value + "\n");
  }
  return text;
}

[[nodiscard]] std::optional<service::SweepSpec> spec_from_ini(
    const Settings& settings, std::string* error) {
  const util::IniFile ini = util::IniFile::parse_string(ini_text(settings));
  service::SweepSpec spec;
  if (!service::parse_sweep_spec(ini, spec, error)) return std::nullopt;
  return spec;
}

[[nodiscard]] std::optional<service::SweepSpec> spec_from_flags(
    const Settings& settings, std::string* error) {
  std::vector<std::string> args = {"m2hew_cli"};
  for (const auto& [key, value] : settings) {
    args.push_back(flag_of(row_named(key)) + "=" + value);
  }
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  service::SweepSpec spec;  // the [experiment] part spec_from_ini parses
  spec.name = "knob";
  spec.sweep_values = {0.0};
  spec.mobility.enabled = mobile(settings);  // --mobility=rwp
  const KnobTarget target{&spec.scenario, &spec.faults, &spec.mobility,
                          &spec.trust};
  if (!apply_flag_knobs(flags, target, error) ||
      !validate_knobs(target, {}, KnobSpelling::kFlag, error)) {
    return std::nullopt;
  }
  return spec;
}

TEST(KnobTable, KeysAndFlagsAreUniqueAndEveryRowIsDocumented) {
  std::set<std::string_view> keys;
  std::set<std::string_view> flags;
  for (const Knob& row : knob_table()) {
    EXPECT_TRUE(keys.insert(row.key).second) << row.key;
    EXPECT_TRUE(flags.insert(row.flag).second) << row.flag;
    EXPECT_FALSE(row.help.empty()) << row.key;
    EXPECT_EQ(find_knob(section_of(row.block), row.key), &row);
  }
  EXPECT_EQ(knob_table().size(), 52u);
}

TEST(KnobTable, DefaultsAreTheStructDefaults) {
  // Ungated rows write only what was given, so their defaults must be
  // the structs' own; gated blocks start off.
  ScenarioConfig scenario;
  sim::SlotFaultPlan faults;
  MobilitySpec mobility;
  core::TrustConfig trust;
  const KnobTarget target{&scenario, &faults, &mobility, &trust};
  for (const Knob& row : knob_table()) {
    const KnobValue def = default_of(row);
    const KnobValue now = row.read(target);
    if (row.block == KnobBlock::kChurn || row.block == KnobBlock::kBurstLoss) {
      if (row.key == "crash-prob" || row.key == "burst-loss") {
        EXPECT_EQ(def.real, 0.0) << row.key;
      }
      continue;
    }
    EXPECT_EQ(def.count, now.count) << row.key;
    EXPECT_EQ(def.real, now.real) << row.key;
  }
}

TEST(KnobTable, FlagAndIniSpellingsGiveTheSameSpec) {
  for (const Knob& row : knob_table()) {
    const std::string value = non_default(row);
    const Settings settings = context_for(row, value);
    std::string error;
    const auto from_ini = spec_from_ini(settings, &error);
    ASSERT_TRUE(from_ini.has_value()) << row.key << ": " << error;
    const auto from_flags = spec_from_flags(settings, &error);
    ASSERT_TRUE(from_flags.has_value()) << row.flag << ": " << error;
    EXPECT_EQ(from_ini->canonical(), from_flags->canonical()) << row.key;
    EXPECT_EQ(service::scenario_hash(*from_ini),
              service::scenario_hash(*from_flags))
        << row.key;
    // The value reaches the cache key: dropping it changes the spec.
    Settings without = settings;
    without.pop_back();
    const auto context_only = spec_from_ini(without, &error);
    ASSERT_TRUE(context_only.has_value()) << row.key << ": " << error;
    EXPECT_NE(from_ini->canonical(), context_only->canonical()) << row.key;
  }
}

/// The values at a row's bounds: min and max for numbers (the nearest
/// double inside an open bound, the largest finite double for an
/// unbounded one), both values of a boolean, every choice.
[[nodiscard]] std::vector<std::string> bound_values(const Knob& row) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (row.kind) {
    case KnobKind::kCount: return {count_text(row.min), count_text(row.max)};
    case KnobKind::kReal: {
      const double lo = row.min_open ? std::nextafter(row.min, inf) : row.min;
      const double hi =
          row.max == inf ? std::numeric_limits<double>::max()
                         : (row.max_open ? std::nextafter(row.max, -inf)
                                         : row.max);
      return {number_text(lo), number_text(hi)};
    }
    case KnobKind::kBool: return {"0", "1"};
    case KnobKind::kChoice: {
      std::vector<std::string> all;
      for (const std::string_view name : row.choices) all.emplace_back(name);
      return all;
    }
  }
  return {};
}

TEST(KnobTable, EveryBoundPassesValidationAndBuildsWithoutAbort) {
  for (const Knob& row : knob_table()) {
    for (const std::string& value : bound_values(row)) {
      SCOPED_TRACE(std::string(row.key) + " = " + value);
      std::string error;
      const auto spec = spec_from_ini(context_for(row, value), &error);
      ASSERT_TRUE(spec.has_value()) << error;
      // The aborting validators the engines run: any CHECK here kills the
      // test binary.
      sim::validate_fault_plan(spec->faults, spec->scenario.n, 0.0);
      core::validate_trust_config(spec->trust);
      if (spec->mobility.enabled) {
        const auto provider =
            build_mobility_provider(spec->scenario, spec->mobility, 1);
        EXPECT_EQ(provider->union_network().node_count(), spec->scenario.n);
        continue;
      }
      // A primary-user field can fail its 100 draws at extreme radii;
      // that must come back as a message, not an abort.
      const auto network = try_build_scenario(spec->scenario, 1, &error);
      if (network.has_value()) {
        EXPECT_EQ(network->node_count(), spec->scenario.n);
      } else {
        EXPECT_EQ(spec->scenario.channels, ChannelKind::kPrimaryUsers)
            << error;
      }
    }
  }
}

/// Values just outside a row's range, plus malformed text.
[[nodiscard]] std::vector<std::string> outside_values(const Knob& row) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (row.kind) {
    case KnobKind::kCount: {
      std::vector<std::string> out = {"-1", count_text(row.max + 1), "1.5"};
      if (row.min >= 1) out.push_back(count_text(row.min - 1));
      return out;
    }
    case KnobKind::kReal:
      return {number_text(row.min_open ? row.min
                                       : std::nextafter(row.min, -inf)),
              row.max == inf ? "inf"
                             : number_text(row.max_open
                                               ? row.max
                                               : std::nextafter(row.max, inf)),
              "nan", "x"};
    case KnobKind::kBool: return {"2", "yes"};
    case KnobKind::kChoice: return {"bogus", ""};
  }
  return {};
}

TEST(KnobTable, ValuesOutsideTheRangeAreRejectedNamingTheKey) {
  for (const Knob& row : knob_table()) {
    for (const std::string& value : outside_values(row)) {
      SCOPED_TRACE(std::string(row.key) + " = " + value);
      std::string error;
      EXPECT_FALSE(parse_knob(row, value, KnobSpelling::kIni, &error));
      EXPECT_NE(error.find(row.key), std::string::npos) << error;
      error.clear();
      EXPECT_FALSE(spec_from_ini({{std::string(row.key), value}}, &error));
      EXPECT_NE(error.find(row.key), std::string::npos) << error;
      error.clear();
      EXPECT_FALSE(spec_from_flags({{std::string(row.key), value}}, &error));
      EXPECT_NE(error.find(flag_of(row)), std::string::npos)
          << error;
    }
  }
}

TEST(KnobTable, CliHelpListsEveryFlag) {
  FILE* pipe = ::popen(M2HEW_CLI_PATH " --help", "r");
  ASSERT_NE(pipe, nullptr);
  std::string help;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    help.append(buf, n);
  }
  EXPECT_EQ(::pclose(pipe), 0);
  for (const Knob& row : knob_table()) {
    EXPECT_NE(help.find(flag_of(row) + "=<"),
              std::string::npos)
        << row.flag;
  }
}

}  // namespace
}  // namespace m2hew::runner
