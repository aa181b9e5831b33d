#include "driver/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace perf {

using namespace m2hew;

int Tracer::begin(std::string_view name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::string(name), seconds_since(epoch_), 0.0,
                    open_.empty() ? -1 : open_.back(), run_id_});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  M2HEW_CHECK_MSG(!open_.empty() && open_.back() == id,
                  "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end = seconds_since(epoch_);
  open_.pop_back();
}

double self_seconds(std::span<const Span> spans, std::size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent == static_cast<int>(index)) {
      children.emplace_back(std::max(s.start, span.start),
                            std::min(s.end, span.end));
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end - span.start) - covered;
}

std::vector<double> self_seconds_per_run(std::span<const Span> spans,
                                         std::string_view name) {
  std::map<std::uint64_t, double> per_run;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) per_run[spans[i].run_id] += self_seconds(spans, i);
  }
  std::vector<double> out;
  for (const auto& [run, seconds] : per_run) out.push_back(seconds);
  return out;
}

std::vector<double> durations(std::span<const Span> spans,
                              std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return util::quantile_sorted(values, 0.5);
}

double maximum(std::span<const double> values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double sum(std::span<const double> values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double tail_percentile(std::size_t samples) {
  double best = 0.0;
  for (const double p : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9) {
      best = p;
    }
  }
  return best;
}

TimingSummary summarize_timing(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  TimingSummary out;
  out.samples = values.size();
  out.median = util::quantile_sorted(values, 0.5);
  out.tail_percentile = tail_percentile(values.size());
  if (out.tail_percentile > 0.0) {
    out.tail_value = util::quantile_sorted(values, out.tail_percentile / 100.0);
  }
  return out;
}

Digest& Digest::add(std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  state_ = util::fnv1a64(std::string_view(bytes, sizeof bytes), state_);
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

std::vector<std::uint64_t> load_reference(std::istream& in,
                                          std::string_view workload,
                                          std::uint64_t seed) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    if (!(fields >> name >> line_seed) || name != workload ||
        line_seed != seed) {
      continue;
    }
    std::vector<std::uint64_t> digests;
    std::string hex;
    while (fields >> hex) digests.push_back(std::stoull(hex, nullptr, 16));
    return digests;
  }
  return {};
}

std::size_t check_reference(std::span<const std::uint64_t> digests,
                            std::span<const std::uint64_t> reference,
                            std::vector<bool>& ok) {
  std::size_t mismatches = 0;
  const std::size_t n = std::min(digests.size(), reference.size());
  for (std::size_t t = 0; t < n; ++t) {
    if (digests[t] != reference[t]) {
      ok[t] = false;
      ++mismatches;
    }
  }
  return mismatches;
}

double failed_fraction(const std::vector<bool>& ok) {
  if (ok.empty()) return 0.0;
  const auto failed = std::count(ok.begin(), ok.end(), false);
  return static_cast<double>(failed) / static_cast<double>(ok.size());
}

std::uint64_t slotted_node_steps(net::NodeId n, std::uint64_t slots_executed) {
  return static_cast<std::uint64_t>(n) * slots_executed;
}

std::uint64_t sweep_node_steps(net::NodeId n,
                               const runner::SyncTrialStats& stats) {
  std::uint64_t slots = 0;
  for (const double slot : stats.completion_slots.values()) {
    slots += static_cast<std::uint64_t>(slot) + 1;
  }
  return slotted_node_steps(n, slots);
}

std::uint64_t async_node_frames(net::NodeId n,
                                const runner::AsyncTrialStats& stats) {
  std::uint64_t frames = 0;
  for (const double f : stats.max_full_frames.values()) {
    frames += static_cast<std::uint64_t>(f);
  }
  return static_cast<std::uint64_t>(n) * frames;
}

double peak_rss_mib(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perf
