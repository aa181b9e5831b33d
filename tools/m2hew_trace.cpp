// m2hew_trace — run a short discovery and print the execution timeline
// (the textual analogue of the paper's Fig. 1/2) plus the reception log.
// A debugging lens on the radio schedule: columns are slots, rows are
// nodes, T<c>/R<c>/. are transmit/receive/quiet on channel c.
//
//   $ m2hew_trace --topology=line --n=4 --slots=40
//   $ m2hew_trace --algorithm=alg1 --delta-est=16 --slots=60 --seed=3
#include <cstdio>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/baseline_deterministic.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_kv.hpp"
#include "sim/slot_engine.hpp"
#include "sim/trace.hpp"
#include "util/flags.hpp"

namespace {

using namespace m2hew;

constexpr const char* kUsage = R"(m2hew_trace — execution timeline viewer

  --topology/--n/--channels/... any scenario key (see scenario_kv.hpp,
                                 dashes as in the CLI), defaults: line n=4,
                                 uniform channels |U|=6 |A|=3
  --algorithm=<alg1|alg2|alg3|adaptive|baseline|deterministic> (default alg3)
  --delta-est=<bound>            (default 8)
  --slots=<count>                timeline window (default 40)
  --seed=<seed>                  (default 1)
)";

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  runner::ScenarioConfig scenario;
  scenario.topology = runner::TopologyKind::kLine;
  scenario.n = 4;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.universe = 6;
  scenario.set_size = 3;
  // Any flag that names a scenario key overrides the default.
  for (const char* key :
       {"topology", "n", "grid-rows", "er-p", "ud-side", "ud-radius",
        "ws-k", "ws-beta", "ba-m", "channels", "universe", "set-size",
        "min-size", "max-size", "overlap", "asymmetric-drop", "propagation",
        "prop-keep"}) {
    if (flags.has(key)) {
      if (!runner::apply_scenario_setting(scenario, key,
                                          flags.get_string(key))) {
        std::fprintf(stderr, "bad scenario key --%s\n", key);
        return 2;
      }
    }
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (flags.get_int("slots", 40) < 1) {
    std::fprintf(stderr, "--slots must be >= 1\n");
    return 2;
  }
  const auto slots = static_cast<std::uint64_t>(flags.get_int("slots", 40));
  const auto delta_est =
      static_cast<std::size_t>(flags.get_int("delta-est", 8));
  const std::string algorithm = flags.get_string("algorithm", "alg3");

  const net::Network network = runner::build_scenario(scenario, seed);
  std::printf("scenario: %s\n", runner::describe(scenario).c_str());
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    std::printf("node %3u available:", u);
    for (const auto c : network.available(u).to_vector()) {
      std::printf(" %u", c);
    }
    std::printf("\n");
  }

  sim::SyncPolicyFactory factory;
  if (algorithm == "alg1") {
    factory = core::make_algorithm1(delta_est);
  } else if (algorithm == "alg2") {
    factory = core::make_algorithm2();
  } else if (algorithm == "alg3") {
    factory = core::make_algorithm3(delta_est);
  } else if (algorithm == "adaptive") {
    factory = core::make_adaptive();
  } else if (algorithm == "baseline") {
    factory = core::make_universal_baseline(network.universe_size(), 0.5);
  } else if (algorithm == "deterministic") {
    factory = core::make_deterministic_baseline(network.universe_size());
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
    return 2;
  }

  sim::Trace trace;
  sim::SlotEngineConfig engine;
  engine.max_slots = slots;
  engine.seed = seed;
  engine.stop_when_complete = false;
  struct Reception {
    std::uint64_t slot;
    net::NodeId from;
    net::NodeId to;
    net::ChannelId channel;
  };
  std::vector<Reception> receptions;
  engine.on_reception = [&receptions](std::uint64_t slot, net::NodeId from,
                                      net::NodeId to, net::ChannelId c) {
    receptions.push_back({slot, from, to, c});
  };
  const auto result =
      sim::run_slot_engine(network, sim::traced(factory, trace), engine);

  std::printf("\ntimeline (%s, %llu slots; T<c> transmit, R<c> receive, "
              "'.' quiet):\n\n%s",
              algorithm.c_str(), static_cast<unsigned long long>(slots),
              trace.render_timeline(0, slots).c_str());

  std::printf("\nreceptions (%zu):\n", receptions.size());
  for (const Reception& r : receptions) {
    std::printf("  slot %4llu: %u -> %u on channel %u\n",
                static_cast<unsigned long long>(r.slot), r.from, r.to,
                r.channel);
  }
  std::printf("\ncoverage after %llu slots: %zu / %zu links%s\n",
              static_cast<unsigned long long>(slots),
              result.state.covered_links(), result.state.total_links(),
              result.complete ? " (complete)" : "");
  return 0;
}
