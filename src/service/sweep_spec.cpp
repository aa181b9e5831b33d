#include "service/sweep_spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "runner/scenario_kv.hpp"
#include "util/hash.hpp"
#include "util/ini.hpp"

#ifndef M2HEW_GIT_DESCRIBE
#define M2HEW_GIT_DESCRIBE "unknown"
#endif

namespace m2hew::service {

namespace {

// Canonical renderings. Doubles use C99 hexfloat so the canonical text is
// exact (no decimal rounding can merge or split two distinct specs).
[[nodiscard]] std::string canon_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

[[nodiscard]] const char* canon_topology(runner::TopologyKind kind) {
  using runner::TopologyKind;
  switch (kind) {
    case TopologyKind::kLine: return "line";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kClique: return "clique";
    case TopologyKind::kErdosRenyi: return "erdos-renyi";
    case TopologyKind::kUnitDisk: return "unit-disk";
    case TopologyKind::kWattsStrogatz: return "watts-strogatz";
    case TopologyKind::kBarabasiAlbert: return "barabasi-albert";
  }
  return "?";
}

[[nodiscard]] const char* canon_channels(runner::ChannelKind kind) {
  using runner::ChannelKind;
  switch (kind) {
    case ChannelKind::kHomogeneous: return "homogeneous";
    case ChannelKind::kUniformRandom: return "uniform";
    case ChannelKind::kVariableRandom: return "variable";
    case ChannelKind::kChainOverlap: return "chain";
    case ChannelKind::kPrimaryUsers: return "primary-users";
  }
  return "?";
}

[[nodiscard]] const char* canon_propagation(runner::PropagationKind kind) {
  using runner::PropagationKind;
  switch (kind) {
    case PropagationKind::kFull: return "full";
    case PropagationKind::kRandomMask: return "random";
    case PropagationKind::kLowpass: return "lowpass";
  }
  return "?";
}

[[nodiscard]] const char* canon_attack(sim::AdversaryAttack attack) {
  using sim::AdversaryAttack;
  switch (attack) {
    case AdversaryAttack::kJam: return "jam";
    case AdversaryAttack::kByzantine: return "byzantine";
    case AdversaryAttack::kNonResponder: return "non-responder";
    case AdversaryAttack::kMix: return "mix";
  }
  return "?";
}

void emit(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

void emit_u64(std::string& out, std::string_view key, std::uint64_t value) {
  emit(out, key, std::to_string(value));
}

void emit_f64(std::string& out, std::string_view key, double value) {
  emit(out, key, canon_double(value));
}

// Non-aborting typed INI reads (IniFile's typed getters CHECK on malformed
// values; a daemon parsing untrusted specs must report instead).
[[nodiscard]] bool read_u64(const util::IniFile& ini, std::string_view section,
                            std::string_view key, std::uint64_t& out,
                            std::string* error) {
  if (!ini.has(section, key)) return true;
  const std::string text = ini.get(section, key);
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    error->assign(1, '[').append(section).append("] ").append(key);
    error->append(": expected an unsigned integer (got '")
        .append(text)
        .append("')");
    return false;
  }
  out = parsed;
  return true;
}

}  // namespace

std::string format_sweep_value(double value) {
  char buf[32];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", value);
  }
  return buf;
}

std::string SweepSpec::canonical() const {
  std::string out = "m2hew-sweep-spec v1\n";
  emit(out, "name", name);
  emit(out, "algorithm", algorithm);
  emit_u64(out, "delta-est", delta_est);
  emit_u64(out, "trials", trials);
  emit_u64(out, "seed", seed);
  emit_u64(out, "max-slots", max_slots);
  emit(out, "kernel",
       kernel == runner::SyncKernel::kSoa ? "soa" : "engine");
  emit(out, "sweep-key", sweep_key);
  std::string values;
  for (const double v : sweep_values) {
    if (!values.empty()) values += ' ';
    values += canon_double(v);
  }
  emit(out, "sweep-values", values);

  out += "[scenario]\n";
  emit(out, "topology", canon_topology(scenario.topology));
  emit_u64(out, "n", scenario.n);
  emit_u64(out, "grid-rows", scenario.grid_rows);
  emit_f64(out, "er-p", scenario.er_edge_probability);
  emit_f64(out, "ud-side", scenario.ud_side);
  emit_f64(out, "ud-radius", scenario.ud_radius);
  emit_u64(out, "ws-k", scenario.ws_k);
  emit_f64(out, "ws-beta", scenario.ws_beta);
  emit_u64(out, "ba-m", scenario.ba_m);
  emit_f64(out, "asymmetric-drop", scenario.asymmetric_drop);
  emit(out, "channels", canon_channels(scenario.channels));
  emit_u64(out, "universe", scenario.universe);
  emit_u64(out, "set-size", scenario.set_size);
  emit_u64(out, "min-size", scenario.min_size);
  emit_u64(out, "max-size", scenario.max_size);
  emit_u64(out, "overlap", scenario.chain_overlap);
  emit_u64(out, "pu-count", scenario.pu_count);
  emit_f64(out, "pu-min-radius", scenario.pu_min_radius);
  emit_f64(out, "pu-max-radius", scenario.pu_max_radius);
  emit(out, "require-nonempty-spans",
       scenario.require_nonempty_spans ? "1" : "0");
  emit(out, "propagation", canon_propagation(scenario.propagation));
  emit_f64(out, "prop-keep", scenario.prop_keep);

  // Only the fault knobs a spec can set; both blocks render their full
  // effective state when enabled so defaulted and explicit spellings of
  // the same plan coincide.
  out += "[faults]\n";
  if (faults.churn.enabled()) {
    emit_f64(out, "crash-prob", faults.churn.crash_probability);
    emit_u64(out, "crash-from", faults.churn.earliest_crash);
    emit_u64(out, "crash-until", faults.churn.latest_crash);
    emit_u64(out, "down-min", faults.churn.min_down);
    emit_u64(out, "down-max", faults.churn.max_down);
    emit(out, "reset-on-recovery",
         faults.churn.reset_policy_on_recovery ? "1" : "0");
  }
  if (faults.burst_loss.enabled) {
    emit_f64(out, "burst-loss", faults.burst_loss.loss_bad);
    emit_f64(out, "burst-p-gb", faults.burst_loss.p_good_to_bad);
    emit_f64(out, "burst-p-bg", faults.burst_loss.p_bad_to_good);
    emit_f64(out, "burst-loss-good", faults.burst_loss.loss_good);
  }

  out += "[mobility]\n";
  if (mobility.enabled) {
    emit_u64(out, "epochs", mobility.epochs);
    emit_u64(out, "epoch-slots", mobility.epoch_slots);
    emit_f64(out, "speed-min", mobility.speed_min);
    emit_f64(out, "speed-max", mobility.speed_max);
    emit_u64(out, "pause-epochs", mobility.pause_epochs);
    emit_u64(out, "duty-on", mobility.duty_on);
    emit_u64(out, "duty-period", mobility.duty_period);
  }

  out += "[adversary]\n";
  if (faults.adversary.enabled()) {
    emit_f64(out, "fraction", faults.adversary.fraction);
    emit(out, "attack", canon_attack(faults.adversary.attack));
    emit_f64(out, "byzantine-tx", faults.adversary.byzantine_tx);
    emit_f64(out, "victim-fraction", faults.adversary.victim_fraction);
  }
  if (trust.enabled) {
    emit(out, "trust", "1");
    emit_f64(out, "trust-threshold", trust.threshold);
    emit_f64(out, "trust-reward", trust.reward);
    emit_f64(out, "trust-rate-penalty", trust.rate_penalty);
    emit_f64(out, "trust-decay", trust.decay);
    emit_u64(out, "trust-rate-window", trust.rate_window);
    emit_u64(out, "trust-max-per-window", trust.max_per_window);
    emit_u64(out, "trust-block-slots", trust.block_slots);
    emit_u64(out, "trust-entry-window", trust.entry_window);
  }
  return out;
}

bool parse_sweep_spec(const util::IniFile& ini, SweepSpec& spec,
                      std::string* error) {
  spec = SweepSpec{};

  for (const std::string& section : ini.section_names()) {
    if (section != "experiment" && section != "scenario" &&
        section != "faults" && section != "mobility" &&
        section != "adversary") {
      *error = section.empty()
                   ? "keys outside any section (expected [experiment], "
                     "[scenario], [faults], [mobility] or [adversary])"
                   : "unknown section [" + section + "]";
      return false;
    }
  }

  // threads and plot are batch-tool knobs with no daemon meaning (the
  // daemon owns its own worker fan-out); accepted and ignored so the same
  // file drives both front ends.
  static constexpr const char* kExperimentKeys[] = {
      "name",      "algorithm", "delta-est",    "trials", "threads",
      "seed",      "max-slots", "sweep-key",    "plot",   "sweep-values",
      "kernel"};
  for (const std::string& key : ini.keys("experiment")) {
    bool known = false;
    for (const char* k : kExperimentKeys) known |= key == k;
    if (!known) {
      *error = "unknown [experiment] key '" + key + "'";
      return false;
    }
  }

  spec.name = ini.get("experiment", "name", "experiment");
  spec.algorithm = ini.get("experiment", "algorithm", "alg3");

  std::uint64_t delta_est = 8, trials = 30;
  if (!read_u64(ini, "experiment", "delta-est", delta_est, error)) {
    return false;
  }
  if (!read_u64(ini, "experiment", "trials", trials, error)) return false;
  if (!read_u64(ini, "experiment", "seed", spec.seed, error)) return false;
  if (!read_u64(ini, "experiment", "max-slots", spec.max_slots, error)) {
    return false;
  }
  spec.delta_est = static_cast<std::size_t>(delta_est);
  spec.trials = static_cast<std::size_t>(trials);
  if (spec.trials == 0) {
    *error = "[experiment] trials must be >= 1";
    return false;
  }
  if (spec.max_slots == 0) {
    *error = "[experiment] max-slots must be >= 1";
    return false;
  }

  const std::string kernel = ini.get("experiment", "kernel", "engine");
  if (kernel == "engine") {
    spec.kernel = runner::SyncKernel::kEngine;
  } else if (kernel == "soa") {
    spec.kernel = runner::SyncKernel::kSoa;
  } else {
    *error = "[experiment] kernel must be 'engine' or 'soa' (got '" +
             kernel + "')";
    return false;
  }

  // Spec-representable algorithms (policy-as-data: run on either kernel);
  // consistent-hop is the one competitor expressible as data.
  const bool spec_algorithm =
      spec.algorithm == "alg1" || spec.algorithm == "alg2" ||
      spec.algorithm == "alg2x" || spec.algorithm == "alg3" ||
      spec.algorithm == "consistent-hop";
  if (!spec_algorithm && spec.algorithm != "adaptive" &&
      spec.algorithm != "baseline" && spec.algorithm != "mcdis" &&
      spec.algorithm != "rendezvous") {
    *error = "[experiment] unknown algorithm '" + spec.algorithm +
             "' (alg1|alg2|alg2x|alg3|adaptive|baseline|mcdis|rendezvous|"
             "consistent-hop)";
    return false;
  }
  if (spec.kernel == runner::SyncKernel::kSoa && !spec_algorithm) {
    *error = "[experiment] kernel = soa supports only "
             "alg1/alg2/alg2x/alg3/consistent-hop";
    return false;
  }

  spec.sweep_key = ini.get("experiment", "sweep-key");
  spec.sweep_values.clear();
  {
    const std::string text = ini.get("experiment", "sweep-values");
    std::size_t pos = 0;
    while (pos < text.size()) {
      while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
        ++pos;
      }
      if (pos >= text.size()) break;
      std::size_t end = pos;
      while (end < text.size() && text[end] != ' ' && text[end] != '\t') {
        ++end;
      }
      const std::string token = text.substr(pos, end - pos);
      char* stop = nullptr;
      const double parsed = std::strtod(token.c_str(), &stop);
      if (stop == token.c_str() || *stop != '\0') {
        *error = "[experiment] sweep-values element '" + token +
                 "' is not a number";
        return false;
      }
      spec.sweep_values.push_back(parsed);
      pos = end;
    }
  }
  if (spec.sweep_values.empty()) spec.sweep_values.push_back(0.0);
  if (!spec.sweep_key.empty() && spec.sweep_values.size() > 64) {
    *error = "[experiment] sweep-values: at most 64 points per spec";
    return false;
  }

  for (const std::string& key : ini.keys("scenario")) {
    if (!runner::apply_scenario_setting(spec.scenario, key,
                                        ini.get("scenario", key), error)) {
      return false;
    }
  }

  // Every sweep point is pre-validated here so a bad point fails the spec
  // at submission instead of mid-sweep.
  if (!spec.sweep_key.empty()) {
    for (const double value : spec.sweep_values) {
      runner::ScenarioConfig scratch = spec.scenario;
      if (!runner::apply_scenario_setting(scratch, spec.sweep_key,
                                          format_sweep_value(value), error)) {
        return false;
      }
    }
  }

  if (!runner::parse_faults_section(ini, spec.faults, error)) return false;

  if (!runner::parse_mobility_section(ini, spec.mobility, error)) {
    return false;
  }
  if (spec.mobility.enabled) {
    // Mobile specs fail at submission, not mid-sweep: the provider needs
    // the unit-disk square and a position-independent channel assignment,
    // and duty cycling wraps policy objects (engine kernel only).
    if (spec.scenario.topology != runner::TopologyKind::kUnitDisk) {
      *error = "[mobility] requires [scenario] topology = unit-disk";
      return false;
    }
    if (spec.scenario.channels != runner::ChannelKind::kHomogeneous &&
        spec.scenario.channels != runner::ChannelKind::kUniformRandom &&
        spec.scenario.channels != runner::ChannelKind::kVariableRandom) {
      *error = "[mobility] requires [scenario] channels = "
               "homogeneous|uniform|variable";
      return false;
    }
    if (spec.kernel == runner::SyncKernel::kSoa &&
        spec.mobility.duty_on != spec.mobility.duty_period) {
      *error = "[mobility] duty cycling (duty-on < duty-period) requires "
               "kernel = engine";
      return false;
    }
    if (spec.sweep_key == "topology" || spec.sweep_key == "channels") {
      *error = "[mobility] cannot sweep the topology/channel kind";
      return false;
    }
  }

  if (!runner::parse_adversary_section(ini, spec.faults.adversary, spec.trust,
                                       error)) {
    return false;
  }
  if (spec.trust.enabled && spec.kernel == runner::SyncKernel::kSoa) {
    // Trust wraps policy objects; the SoA kernel runs policy tables.
    *error = "[adversary] trust = 1 requires kernel = engine";
    return false;
  }
  return true;
}

std::string binary_version() {
  const char* env = std::getenv("M2HEW_BINARY_VERSION");
  if (env != nullptr && *env != '\0') return env;
  return M2HEW_GIT_DESCRIBE;
}

std::uint64_t scenario_hash(const SweepSpec& spec) {
  return util::fnv1a64(binary_version(), util::fnv1a64(spec.canonical()));
}

std::string scenario_hash_hex(const SweepSpec& spec) {
  return util::hash_hex(scenario_hash(spec));
}

}  // namespace m2hew::service
