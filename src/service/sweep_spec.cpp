#include "service/sweep_spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "runner/algorithm_registry.hpp"
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

void emit(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

void emit_u64(std::string& out, std::string_view key, std::uint64_t value) {
  emit(out, key, std::to_string(value));
}

// Non-aborting typed read of one [experiment] count: IniFile's typed
// getters CHECK on malformed values; a daemon parsing untrusted specs must
// report instead.
[[nodiscard]] bool read_u64(const util::IniFile& ini, std::string_view key,
                            std::uint64_t min, std::uint64_t& out,
                            std::string* error) {
  if (!ini.has("experiment", key)) return true;
  const std::string text = ini.get("experiment", key);
  char* end = nullptr;
  const bool digits = !text.empty() && text[0] >= '0' && text[0] <= '9';
  const unsigned long long parsed =
      digits ? std::strtoull(text.c_str(), &end, 10) : 0;
  if (!digits || *end != '\0') {
    *error = "[experiment] " + std::string(key) +
             ": expected an unsigned integer (got '" + text + "')";
    return false;
  }
  if (parsed < min) {
    *error = "[experiment] " + std::string(key) + " must be >= " +
             std::to_string(min) + " (got " + text + ")";
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

  out += runner::canonical_knobs(scenario, faults, mobility, trust);
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
  // daemon owns its own worker fan-out): checked here, read by
  // m2hew_experiment, ignored by the daemon.
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

  std::uint64_t delta_est = 8, trials = 30, threads = 0, plot = 0;
  if (!read_u64(ini, "delta-est", 1, delta_est, error) ||
      !read_u64(ini, "trials", 1, trials, error) ||
      !read_u64(ini, "threads", 0, threads, error) ||
      !read_u64(ini, "seed", 0, spec.seed, error) ||
      !read_u64(ini, "max-slots", 1, spec.max_slots, error) ||
      !read_u64(ini, "plot", 0, plot, error)) {
    return false;
  }
  spec.delta_est = static_cast<std::size_t>(delta_est);
  spec.trials = static_cast<std::size_t>(trials);

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

  const runner::AlgorithmEntry* entry = runner::find_algorithm(spec.algorithm);
  if (entry == nullptr || !entry->slotted) {
    *error = "[experiment] unknown algorithm '" + spec.algorithm + "' (" +
             runner::algorithm_names(false, "|") +
             (entry != nullptr ? "; alg4 needs the async engine, use m2hew_cli)"
                               : ")");
    return false;
  }
  if (spec.kernel == runner::SyncKernel::kSoa && entry->spec == nullptr) {
    *error = "[experiment] kernel = soa supports only " +
             runner::algorithm_names(true, "/");
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

  if (!runner::apply_ini_knobs(
          ini, {&spec.scenario, &spec.faults, &spec.mobility, &spec.trust},
          error)) {
    return false;
  }
  if (spec.mobility.enabled &&
      (spec.sweep_key == "topology" || spec.sweep_key == "channels")) {
    *error = "[mobility] cannot sweep the topology/channel kind";
    return false;
  }

  // Every sweep point is checked here, so a bad point fails the spec at
  // submission instead of mid-sweep.
  for (const double value : spec.sweep_values) {
    runner::ScenarioConfig point;
    std::string point_error;
    if (!resolve_point(spec, value, point, &point_error)) {
      *error = spec.sweep_key.empty()
                   ? point_error
                   : "[experiment] sweep point " + spec.sweep_key + " = " +
                         format_sweep_value(value) + ": " + point_error;
      return false;
    }
  }
  return true;
}

bool resolve_point(const SweepSpec& spec, double value,
                   runner::ScenarioConfig& scenario, std::string* error) {
  scenario = spec.scenario;
  if (!spec.sweep_key.empty() &&
      !runner::apply_scenario_setting(scenario, spec.sweep_key,
                                      format_sweep_value(value), error)) {
    return false;
  }
  // The rules only read the structs; the casts never write.
  const runner::KnobTarget target{
      &scenario, const_cast<sim::SlotFaultPlan*>(&spec.faults),
      const_cast<runner::MobilitySpec*>(&spec.mobility),
      const_cast<core::TrustConfig*>(&spec.trust)};
  const runner::KnobContext context{
      .soa_kernel = spec.kernel == runner::SyncKernel::kSoa};
  return runner::validate_knobs(target, context, runner::KnobSpelling::kIni,
                                error);
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
