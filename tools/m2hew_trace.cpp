// m2hew_trace — run a short discovery and print the execution timeline
// (the textual analogue of the paper's Fig. 1/2) plus the reception log.
// A debugging lens on the radio schedule: columns are slots, rows are
// nodes, T<c>/R<c>/. are transmit/receive/quiet on channel c.
//
//   $ m2hew_trace --topology=line --n=4 --slots=40
//   $ m2hew_trace --algorithm=alg1 --delta-est=16 --slots=60 --seed=3
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "runner/algorithm_registry.hpp"
#include "runner/scenario.hpp"
#include "runner/scenario_kv.hpp"
#include "sim/slot_engine.hpp"
#include "sim/trace.hpp"
#include "util/flags.hpp"

namespace {

using namespace m2hew;

void print_usage() {
  std::printf(
      "m2hew_trace — execution timeline viewer\n\n"
      "  --topology/--n/--channels/... any [scenario] key of the knob table\n"
      "                                 (m2hew_cli --help lists them), "
      "defaults: line n=4,\n"
      "                                 uniform channels |U|=6 |A|=3\n"
      "  --algorithm=<%s> (default alg3)\n"
      "  --delta-est=<bound>            (default 8)\n"
      "  --slots=<count>                timeline window (default 40)\n"
      "  --seed=<seed>                  (default 1)\n",
      runner::algorithm_names(false, "|").c_str());
}

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "m2hew_trace: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.on_parse_error([](const std::string& message) { fail(message); });
  if (flags.has("help")) {
    print_usage();
    return 0;
  }

  runner::ScenarioConfig scenario;
  scenario.topology = runner::TopologyKind::kLine;
  scenario.n = 4;
  scenario.channels = runner::ChannelKind::kUniformRandom;
  scenario.universe = 6;
  scenario.set_size = 3;
  // Any flag that names a scenario key overrides the default.
  std::string error;
  if (!runner::apply_flag_knobs(flags, {.scenario = &scenario}, &error) ||
      !runner::validate_knobs({.scenario = &scenario}, {},
                              runner::KnobSpelling::kFlag, &error)) {
    fail(error);
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (flags.get_int("slots", 40) < 1) fail("--slots must be >= 1");
  const auto slots = static_cast<std::uint64_t>(flags.get_int("slots", 40));
  if (flags.get_int("delta-est", 8) < 1) fail("--delta-est must be >= 1");
  const auto delta_est =
      static_cast<std::size_t>(flags.get_int("delta-est", 8));
  const std::string algorithm = flags.get_string("algorithm", "alg3");
  const runner::AlgorithmEntry* entry = runner::find_algorithm(algorithm);
  if (entry == nullptr || !entry->slotted) {
    fail("unknown --algorithm=" + algorithm);
  }

  std::optional<net::Network> built =
      runner::try_build_scenario(scenario, seed, &error);
  if (!built.has_value()) fail(error);
  const net::Network& network = *built;
  std::printf("scenario: %s\n", runner::describe(scenario).c_str());
  for (net::NodeId u = 0; u < network.node_count(); ++u) {
    std::printf("node %3u available:", u);
    for (const auto c : network.available(u).to_vector()) {
      std::printf(" %u", c);
    }
    std::printf("\n");
  }

  const sim::SyncPolicyFactory factory = runner::make_algorithm_factory(
      *entry, delta_est, network.universe_size());

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
