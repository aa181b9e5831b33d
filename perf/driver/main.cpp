// m2hew_perf: runs one benchmark workload and prints its metrics. The last
// line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perf/run.py builds this binary and calls it; see
// perf/README.md.
//
//   m2hew_perf --workload NAME --seed N --seconds S --trace 0|1
//              [--reference FILE] [--git-describe TEXT] [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "driver/harness.hpp"
#include "driver/workloads.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string git_describe = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "m2hew_perf: %s\nusage: m2hew_perf --workload NAME --seed N "
               "--seconds S --trace 0|1 [--reference FILE] "
               "[--git-describe TEXT] [--trace-out FILE]\n",
               message);
  std::exit(2);
}

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) usage("every flag takes a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        usage("--trace must be 0 or 1");
      }
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--git-describe") {
      args.git_describe = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

[[nodiscard]] std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// JSON string literal; the inputs here are names and labels we control,
/// plus /proc and git text, so escaping quotes and backslashes suffices.
[[nodiscard]] std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

[[nodiscard]] bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

[[nodiscard]] std::string provenance_json(const Args& args,
                                          const perf::RunReport& report) {
  std::string out = "{\"git_describe\": " + quote(args.git_describe);
  out += ", \"build_type\": " + quote(PERF_BUILD_TYPE);
  out += ", \"optimized\": " + std::string(optimized_build() ? "true" : "false");
  out += ", \"cpu\": " + quote(cpu_model());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"threads\": " + std::to_string(report.threads);
  out += ", \"workers\": " + std::to_string(report.workers);
  out += ", \"instances\": " + std::to_string(report.instances);
  out += ", \"seed\": " + std::to_string(args.seed) + "}";
  return out;
}

[[nodiscard]] std::string shape_json(const perf::Shape& s) {
  return "{\"label\": " + quote(s.label) + ", \"n\": " + std::to_string(s.n) +
         ", \"arcs\": " + std::to_string(s.arcs) +
         ", \"mean_degree\": " + number(s.mean_degree) +
         ", \"universe\": " + std::to_string(s.universe) +
         ", \"set_size\": " + std::to_string(s.set_size) +
         ", \"rho\": " + number(s.rho) +
         ", \"delta\": " + std::to_string(s.delta) + "}";
}

void write_trace(const std::string& path, const std::string& provenance,
                 const perf::Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "m2hew_perf: cannot write trace %s\n", path.c_str());
    return;
  }
  const auto& spans = tracer.spans();
  out << "{\"provenance\": " << provenance << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perf::Span& s = spans[i];
    out << "  {\"name\": " << quote(s.name) << ", \"start\": "
        << number(s.start) << ", \"end\": " << number(s.end)
        << ", \"parent\": " << s.parent << ", \"run_id\": " << s.run_id
        << ", \"self\": " << number(perf::self_seconds(spans, i)) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  perf::RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace;
  if (!args.reference.empty()) {
    std::ifstream in(args.reference);
    if (!in) usage("cannot read --reference file");
    options.reference = perf::load_reference(in, args.workload, args.seed);
  }

  perf::Tracer tracer(args.trace);
  perf::RunReport report;
  if (!perf::run_workload(args.workload, options, tracer, report)) {
    usage("unknown workload");
  }

  const std::string provenance = provenance_json(args, report);
  std::printf("workload %s  seed %llu  trace %d  instances %zu  reference "
              "digests %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, report.instances, options.reference.size());
  std::printf("provenance %s\n", provenance.c_str());
  for (const perf::Shape& s : report.shapes) {
    std::printf("shape %s\n", shape_json(s).c_str());
  }
  const auto print_series = [](const char* name, const std::vector<double>& v) {
    const perf::TimingSummary s = perf::summarize_timing(v);
    std::printf("instance %s: n=%zu median=%.6g", name, s.samples, s.median);
    if (s.tail_percentile > 0.0) {
      std::printf(" p%g=%.6g", s.tail_percentile, s.tail_value);
    }
    std::printf(" values");
    for (const double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  print_series("setup_s", report.setup_s);
  print_series("wall_s", report.wall_s);
  print_series("ns_per_node_step", report.ns_per_node_step);
  std::printf("digests");
  for (const std::uint64_t d : report.digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(d));
  }
  std::printf("\n");
  for (const std::string& p : report.problems) {
    std::printf("FAILED %s\n", p.c_str());
  }

  const auto specs =
      args.trace ? perf::layer_metrics() : perf::end_to_end_metrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::printf("%-30s %16.6f %s\n", std::string(specs[i].name).c_str(),
                report.values[i], std::string(specs[i].unit).c_str());
  }
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%-30s %16.6f ratio (%zu of %zu trials)\n", "failed_trials_frac",
              failed_frac, report.failed, report.attempted);

  if (args.trace && !args.trace_out.empty()) {
    write_trace(args.trace_out, provenance, tracer);
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) json += ", ";
    json += quote(specs[i].name) + ": {\"value\": " + number(report.values[i]) +
            ", \"unit\": " + quote(specs[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
