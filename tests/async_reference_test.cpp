// Cross-validation of the event-driven asynchronous engine against an
// independent brute-force reference: both replay identical clocks and
// scripted frame actions; the reference recomputes every reception with a
// direct O(n²·frames²) interval scan of the paper's coverage definition.
// Any divergence in covered links or first-coverage times is an engine bug.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "net/channel_assign.hpp"
#include "net/topology_gen.hpp"
#include "sim/async_engine.hpp"
#include "util/rng.hpp"

namespace m2hew {
namespace {

constexpr double kL = 3.0;
constexpr unsigned kSlots = 3;
constexpr std::size_t kFrames = 60;

struct RefFrame {
  double start = 0.0;
  double end = 0.0;
  sim::Mode mode = sim::Mode::kQuiet;
  net::ChannelId channel = net::kInvalidChannel;
  std::array<double, kSlots + 1> bounds{};
};

class ScriptPolicy final : public sim::AsyncPolicy {
 public:
  explicit ScriptPolicy(std::vector<sim::FrameAction> script)
      : script_(std::move(script)) {}
  sim::FrameAction next_frame(util::Rng&) override {
    const sim::FrameAction a =
        index_ < script_.size() ? script_[index_] : sim::FrameAction{};
    ++index_;
    return a;
  }

 private:
  std::vector<sim::FrameAction> script_;
  std::size_t index_ = 0;
};

struct Instance {
  net::Network network;
  std::vector<std::vector<sim::FrameAction>> scripts;
  std::vector<double> start_times;
  double max_drift = 0.0;
  std::uint64_t seed = 0;
};

[[nodiscard]] sim::PiecewiseDriftClock::Config clock_config(double drift) {
  return {.max_drift = drift, .min_segment = 5.0, .max_segment = 25.0};
}

[[nodiscard]] std::uint64_t clock_seed(std::uint64_t base, net::NodeId u) {
  return base * 1000 + u;
}

[[nodiscard]] Instance make_instance(std::uint64_t seed, double drift,
                                     bool asymmetric) {
  util::Rng rng(seed);
  net::Topology topology = net::make_clique(6);
  if (asymmetric) {
    topology = net::make_asymmetric(topology, 0.5, rng);
  }
  auto assignment = net::generate_with_nonempty_spans(
      topology, 100,
      [&] { return net::uniform_random_assignment(6, 6, 3, rng); });
  Instance inst{net::Network(std::move(topology), std::move(assignment)),
                {},
                {},
                drift,
                seed};
  for (net::NodeId u = 0; u < inst.network.node_count(); ++u) {
    std::vector<sim::FrameAction> script;
    script.reserve(kFrames);
    const auto channels = inst.network.available(u).to_vector();
    for (std::size_t k = 0; k < kFrames; ++k) {
      sim::FrameAction action;
      const double dice = rng.uniform_double();
      action.mode = dice < 0.40   ? sim::Mode::kTransmit
                    : dice < 0.90 ? sim::Mode::kReceive
                                  : sim::Mode::kQuiet;
      if (action.mode != sim::Mode::kQuiet) {
        action.channel = rng.pick(std::span<const net::ChannelId>(channels));
      }
      script.push_back(action);
    }
    inst.scripts.push_back(std::move(script));
    inst.start_times.push_back(rng.uniform_double(0.0, 2.0 * kL));
  }
  return inst;
}

// Reference reception computation.
struct RefResult {
  // (from, to) -> first coverage time.
  std::map<std::pair<net::NodeId, net::NodeId>, double> first_coverage;
};

[[nodiscard]] RefResult reference_run(const Instance& inst) {
  const net::NodeId n = inst.network.node_count();
  std::vector<std::vector<RefFrame>> frames(n);
  for (net::NodeId u = 0; u < n; ++u) {
    sim::PiecewiseDriftClock clock(clock_config(inst.max_drift),
                                   clock_seed(inst.seed, u));
    const double local0 = clock.local_at_real(inst.start_times[u]);
    for (std::size_t k = 0; k < kFrames; ++k) {
      RefFrame f;
      for (unsigned j = 0; j <= kSlots; ++j) {
        f.bounds[j] = clock.real_at_local(
            local0 + kL * static_cast<double>(k) +
            kL / kSlots * static_cast<double>(j));
      }
      f.start = f.bounds[0];
      f.end = f.bounds[kSlots];
      f.mode = inst.scripts[u][k].mode;
      f.channel = inst.scripts[u][k].channel;
      frames[u].push_back(f);
    }
  }

  RefResult result;
  for (net::NodeId u = 0; u < n; ++u) {
    for (const RefFrame& g : frames[u]) {
      if (g.mode != sim::Mode::kReceive) continue;
      const net::ChannelId c = g.channel;
      for (const net::NodeId v : inst.network.in_links(u)) {
        if (!inst.network.span(v, u).contains(c)) continue;
        for (const RefFrame& f : frames[v]) {
          if (f.mode != sim::Mode::kTransmit || f.channel != c) continue;
          if (f.start >= g.end || f.end <= g.start) continue;
          for (unsigned j = 0; j < kSlots; ++j) {
            const double s0 = f.bounds[j];
            const double s1 = f.bounds[j + 1];
            if (s0 < g.start || s1 > g.end) continue;
            bool interfered = false;
            for (const net::NodeId other : inst.network.in_links(u)) {
              if (other == v || !inst.network.span(other, u).contains(c)) {
                continue;
              }
              for (const RefFrame& h : frames[other]) {
                if (h.mode != sim::Mode::kTransmit || h.channel != c) {
                  continue;
                }
                if (h.start < s1 && h.end > s0) {
                  interfered = true;
                  break;
                }
              }
              if (interfered) break;
            }
            if (interfered) continue;
            const auto key = std::make_pair(v, u);
            const auto it = result.first_coverage.find(key);
            if (it == result.first_coverage.end() || s1 < it->second) {
              result.first_coverage[key] = s1;
            }
            break;  // earliest clear slot of this f; later f can't improve
          }
        }
      }
    }
  }
  return result;
}

class AsyncReference
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double, bool>> {
};

TEST_P(AsyncReference, EngineMatchesBruteForce) {
  const auto [seed, drift, asymmetric] = GetParam();
  const Instance inst = make_instance(seed, drift, asymmetric);

  sim::AsyncEngineConfig config;
  config.frame_length = kL;
  config.slots_per_frame = kSlots;
  config.starts = inst.start_times;
  config.max_frames_per_node = kFrames;
  config.max_real_time = 1e9;
  config.stop_when_complete = false;
  config.seed = 777;  // engine node RNGs are unused by scripted policies
  config.clock_builder = [&inst](net::NodeId u, std::uint64_t) {
    return std::make_unique<sim::PiecewiseDriftClock>(
        clock_config(inst.max_drift), clock_seed(inst.seed, u));
  };
  const auto scripts = inst.scripts;
  const sim::AsyncPolicyFactory factory =
      [&scripts](const net::Network&, net::NodeId u)
      -> std::unique_ptr<sim::AsyncPolicy> {
    return std::make_unique<ScriptPolicy>(scripts[u]);
  };
  const auto engine = sim::run_async_engine(inst.network, factory, config);

  const RefResult reference = reference_run(inst);

  std::size_t checked = 0;
  for (const net::Link link : inst.network.links()) {
    const auto key = std::make_pair(link.from, link.to);
    const auto it = reference.first_coverage.find(key);
    const bool ref_covered = it != reference.first_coverage.end();
    EXPECT_EQ(engine.state.is_covered(link), ref_covered)
        << "link " << link.from << "->" << link.to;
    if (ref_covered && engine.state.is_covered(link)) {
      EXPECT_NEAR(engine.state.first_coverage_time(link), it->second, 1e-9)
          << "link " << link.from << "->" << link.to;
      ++checked;
    }
  }
  // The random scripts must produce a non-trivial number of receptions or
  // the test validates nothing.
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncReference,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0.0, 1.0 / 7.0),
                       ::testing::Values(false, true)));

}  // namespace
}  // namespace m2hew
