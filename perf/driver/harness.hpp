// Benchmark harness primitives: spans, self time, timing summaries,
// deterministic-field digests and node-step denominators. Kept apart from
// the workloads so perf/tests/harness_test.cpp can pin each one down.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/types.hpp"
#include "runner/trials.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One traced interval around a call into a layer. Times are seconds since
/// the tracer was created; `parent` indexes the enclosing span (-1 = root);
/// spans of one workload instance share `run_id`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t run_id = 0;
};

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_run(std::uint64_t run_id) noexcept { run_id_ = run_id; }

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when disabled.
  int begin(std::string_view name);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::uint64_t run_id_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// A span's duration minus the part of its interval covered by its direct
/// children (overlapping children are counted once).
[[nodiscard]] double self_seconds(std::span<const Span> spans,
                                  std::size_t index);

/// Per-run sums of self time for spans named `name`, one entry per run id
/// in ascending order (runs without such a span contribute nothing).
[[nodiscard]] std::vector<double> self_seconds_per_run(
    std::span<const Span> spans, std::string_view name);

/// Durations of every span named `name`, in recording order.
[[nodiscard]] std::vector<double> durations(std::span<const Span> spans,
                                            std::string_view name);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double maximum(std::span<const double> values);
[[nodiscard]] double sum(std::span<const double> values);

/// The highest of the percentiles 90, 99, 99.9 that leaves at least ten of
/// `samples` beyond it, or 0 when none does (fewer than 100 samples): a
/// tail figure is only reported where it rests on ten observations.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// A timing as reported: median, the tail percentile above (0 = none) and
/// its value, and the sample count both rest on.
struct TimingSummary {
  std::size_t samples = 0;
  double median = 0.0;
  double tail_percentile = 0.0;
  double tail_value = 0.0;
};
[[nodiscard]] TimingSummary summarize_timing(std::vector<double> values);

/// FNV-1a accumulator over the bit patterns of deterministic result fields.
class Digest {
 public:
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Reads the per-trial reference digests recorded for (workload, seed)
/// from a reference file: one line per pair, "<workload> <seed> <hex>...",
/// '#' starts a comment line. Empty when the pair is not recorded.
[[nodiscard]] std::vector<std::uint64_t> load_reference(
    std::istream& in, std::string_view workload, std::uint64_t seed);

/// Marks trial t failed in `ok` when digests[t] differs from reference[t];
/// positions beyond the end of the reference are not compared. Returns the
/// number of mismatches.
std::size_t check_reference(std::span<const std::uint64_t> digests,
                            std::span<const std::uint64_t> reference,
                            std::vector<bool>& ok);

/// Failed trials over trials attempted; 0 when none were attempted.
[[nodiscard]] double failed_fraction(const std::vector<bool>& ok);

/// Node-step denominators of ns_per_node_step, taken from returned
/// results only. Slotted paths: N × slots executed.
[[nodiscard]] std::uint64_t slotted_node_steps(m2hew::net::NodeId n,
                                               std::uint64_t slots_executed);

/// Sharded sweep point: N × Σ (completion slot + 1) over its completed
/// trials — the slots each stop-when-complete trial executed.
[[nodiscard]] std::uint64_t sweep_node_steps(
    m2hew::net::NodeId n, const m2hew::runner::SyncTrialStats& stats);

/// Async trials: N × Σ max full frames over completed trials.
[[nodiscard]] std::uint64_t async_node_frames(
    m2hew::net::NodeId n, const m2hew::runner::AsyncTrialStats& stats);

/// Peak resident set in MiB of this process, or of its largest reaped
/// child process when `children` is set.
[[nodiscard]] double peak_rss_mib(bool children);

}  // namespace perf
