// m2hew_cli — run neighbor-discovery experiments from the command line.
//
// Examples:
//   m2hew_cli --topology=clique --n=16 --algorithm=alg3 --trials=30
//   m2hew_cli --topology=unit-disk --n=24 --channels=primary-users
//             --algorithm=alg4 --delta-est=8 --drift=0.14   (one line)
//   m2hew_cli --topology=line --channels=chain --set-size=8 --overlap=2
//             --algorithm=alg1 --epsilon=0.05               (one line)
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <memory>
#include <string>

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/baseline_deterministic.hpp"
#include "core/bounds.hpp"
#include "core/competitors.hpp"
#include "core/duty_cycle.hpp"
#include "core/multi_radio.hpp"
#include "core/policy_spec.hpp"
#include "core/termination.hpp"
#include "core/transmit_probability.hpp"
#include "core/trust.hpp"
#include "net/serialize.hpp"
#include "net/topology_provider.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "runner/trials.hpp"
#include "sim/clock.hpp"
#include "sim/encounter.hpp"
#include "sim/fault_plan.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace m2hew;

constexpr const char* kUsage = R"(m2hew_cli — M2HeW neighbor-discovery simulator

Network:
  --topology=<line|ring|grid|star|clique|erdos-renyi|unit-disk|
              watts-strogatz|barabasi-albert>   (default clique)
  --n=<nodes>                 (default 16)
  --channels=<homogeneous|uniform|variable|chain|primary-users>
                              (default uniform)
  --universe=<channels>       (default 10)
  --set-size=<|A(u)|>         (default 4)
  --overlap=<k>               chain overlap (default 2)
  --asymmetric-drop=<p>       drop one arc direction w.p. p (default 0)
  --propagation=<full|random|lowpass>  (default full)
  --prop-keep=<p>             random-mask keep probability (default 0.7)

Algorithm:
  --algorithm=<alg1|alg2|alg2x|alg3|alg4|baseline|deterministic|adaptive|
               mcdis|rendezvous|consistent-hop>   (default alg3)
  --policy=<same values>      alias for --algorithm (competitor-tournament
                              spelling; --algorithm wins when both given)
  --delta-est=<bound>         degree bound for alg1/alg3/alg4 (default 8)
  --terminate-after=<slots>   optional silence-based termination
  --radios=<R>                multi-radio alg3 (R transceivers per node;
                              R > 1 takes no --terminate-after and needs
                              --algorithm=alg3, --kernel=engine)

Network I/O:
  --save-network=<path>       write the generated network and exit
  --load-network=<path>       run on a previously saved network (overrides
                              all network flags)

Execution:
  --kernel=<engine|soa>       sync inner loop: classic slot engine or the
                              structure-of-arrays kernel (default engine;
                              soa supports alg1/alg2/alg2x/alg3, identical
                              results, built for large N)
  --trials=<count>            (default 30)
  --threads=<workers>         trial fan-out; 0 = all cores, 1 = serial
                              (default 0; results identical either way)
  --seed=<seed>               (default 1)
  --epsilon=<eps>             for bound reporting (default 0.1)
  --max-slots=<budget>        sync slot budget (default 10000000)
  --loss=<p>                  per-reception loss probability (default 0)
  --drift=<delta>             alg4 max clock drift (default 1/7)
  --frame-length=<L>          alg4 frame length (default 3)

Mobility (random waypoint over the unit-disk square; slotted only):
  --mobility=<off|rwp>        epoch-based link dynamics (default off;
                              requires --topology=unit-disk and a
                              position-independent channel kind)
  --mobility-epochs=<E>       epochs in the topology schedule (default 8)
  --mobility-epoch-slots=<S>  slots per epoch (default 500)
  --mobility-speed-min=<v>    min node speed, units/epoch (default 0)
  --mobility-speed-max=<v>    max node speed, units/epoch (default 0.05)
  --mobility-pause=<E>        max pause epochs at a waypoint (default 0)
  --duty-on=<k>               policy active k slots out of every
  --duty-period=<p>           p slots (default 1/1 = always on; k < p
                              requires --mobility=rwp and --kernel=engine)

Fault injection (sim::FaultPlan; all off by default):
  --churn-prob=<p>            per-node crash probability
  --churn-from=<t>            earliest crash time   (default 200)
  --churn-until=<t>           latest crash time     (default 2000)
  --churn-down-min=<t>        min downtime          (default 100)
  --churn-down-max=<t>        max downtime          (default 1000)
  --churn-reset=<0|1>         reset policy state on recovery (default 1)
  --burst-loss=<p>            Gilbert-Elliott bad-state loss (enables the
                              bursty model; mutually exclusive with --loss)
  --burst-p-gb=<p>            good->bad transition prob (default 0.01)
  --burst-p-bg=<p>            bad->good transition prob (default 0.1)
  --burst-loss-good=<p>       good-state loss prob (default 0)
  --drift-wander=<delta>      alg4 drift re-drawn per segment within delta
                              (replaces --drift's fixed-rate clock)

Adversarial nodes (seed-derived roles; all off by default):
  --adversary-fraction=<p>    fraction of nodes turned adversarial
  --adversary-attack=<jam|byzantine|non-responder|mix>   (default mix)
  --adversary-byzantine-tx=<p>  Byzantine per-slot transmit prob
                              (default 0.45)
  --adversary-victim-fraction=<p>  fraction of a non-responder's
                              neighbors it stays silent toward (default 0.5)

Trust-scored neighbor maintenance (requires --kernel=engine):
  --trust=<0|1>               wrap the policy with the trust table
  --trust-threshold=<s>       block below this score     (default 0.3)
  --trust-reward=<r>          score per clean admission  (default 0.02)
  --trust-rate-penalty=<r>    score cost of an anomaly   (default 0.35)
  --trust-decay=<d>           per-slot pull toward 1     (default 0.999)
  --trust-rate-window=<k>     rate window, slots         (default 128)
  --trust-max-per-window=<k>  anomaly threshold          (default 6)
  --trust-block-slots=<k>     blocklist lifetime         (default 2048)
  --trust-entry-window=<k>    last-seen expiry, slots    (default 16384)
)";

/// One-line flag-validation diagnostic; exits 2 (usage error) on failure so
/// bad knobs fail fast instead of tripping a CHECK deep in the engine.
void require_flag(bool ok, const char* message) {
  if (ok) return;
  std::fprintf(stderr, "m2hew_cli: %s\n", message);
  std::exit(2);
}

/// Builds the engine fault plan from the --churn-*/--burst-* flags. Shared
/// by the slotted and async paths; Time is uint64_t slots or real seconds.
template <typename Time>
void apply_fault_flags(const util::Flags& flags,
                       sim::FaultPlan<Time>& faults) {
  const double churn_prob = flags.get_double("churn-prob", 0.0);
  require_flag(churn_prob >= 0.0 && churn_prob <= 1.0,
               "--churn-prob must be in [0, 1]");
  if (churn_prob > 0.0) {
    const double from = flags.get_double("churn-from", 200.0);
    const double until = flags.get_double("churn-until", 2000.0);
    const double down_min = flags.get_double("churn-down-min", 100.0);
    const double down_max = flags.get_double("churn-down-max", 1000.0);
    require_flag(from >= 0.0 && until >= from,
                 "--churn-from/--churn-until must satisfy 0 <= from <= "
                 "until");
    require_flag(down_min >= 0.0 && down_max >= down_min,
                 "--churn-down-min/--churn-down-max must satisfy 0 <= min "
                 "<= max");
    faults.churn.crash_probability = churn_prob;
    faults.churn.earliest_crash = static_cast<Time>(from);
    faults.churn.latest_crash = static_cast<Time>(until);
    faults.churn.min_down = static_cast<Time>(down_min);
    faults.churn.max_down = static_cast<Time>(down_max);
    faults.churn.reset_policy_on_recovery =
        flags.get_int("churn-reset", 1) != 0;
  }
  const double burst_bad = flags.get_double("burst-loss", 0.0);
  require_flag(burst_bad >= 0.0 && burst_bad <= 1.0,
               "--burst-loss must be in [0, 1]");
  if (burst_bad > 0.0) {
    const double p_gb = flags.get_double("burst-p-gb", 0.01);
    const double p_bg = flags.get_double("burst-p-bg", 0.1);
    const double loss_good = flags.get_double("burst-loss-good", 0.0);
    require_flag(p_gb >= 0.0 && p_gb <= 1.0 && p_bg >= 0.0 && p_bg <= 1.0,
                 "--burst-p-gb/--burst-p-bg must be in [0, 1]");
    require_flag(loss_good >= 0.0 && loss_good <= 1.0,
                 "--burst-loss-good must be in [0, 1]");
    faults.burst_loss.enabled = true;
    faults.burst_loss.loss_bad = burst_bad;
    faults.burst_loss.p_good_to_bad = p_gb;
    faults.burst_loss.p_bad_to_good = p_bg;
    faults.burst_loss.loss_good = loss_good;
  }
  const double adv_fraction = flags.get_double("adversary-fraction", 0.0);
  require_flag(adv_fraction >= 0.0 && adv_fraction <= 1.0,
               "--adversary-fraction must be in [0, 1]");
  if (adv_fraction > 0.0) {
    faults.adversary.fraction = adv_fraction;
    const std::string attack = flags.get_string("adversary-attack", "mix");
    if (attack == "jam") {
      faults.adversary.attack = sim::AdversaryAttack::kJam;
    } else if (attack == "byzantine") {
      faults.adversary.attack = sim::AdversaryAttack::kByzantine;
    } else if (attack == "non-responder") {
      faults.adversary.attack = sim::AdversaryAttack::kNonResponder;
    } else if (attack == "mix") {
      faults.adversary.attack = sim::AdversaryAttack::kMix;
    } else {
      require_flag(false,
                   "--adversary-attack must be jam, byzantine, "
                   "non-responder or mix");
    }
    const double byz_tx = flags.get_double("adversary-byzantine-tx", 0.45);
    require_flag(byz_tx > 0.0 && byz_tx <= 1.0,
                 "--adversary-byzantine-tx must be in (0, 1]");
    const double victim =
        flags.get_double("adversary-victim-fraction", 0.5);
    require_flag(victim >= 0.0 && victim <= 1.0,
                 "--adversary-victim-fraction must be in [0, 1]");
    faults.adversary.byzantine_tx = byz_tx;
    faults.adversary.victim_fraction = victim;
  }
}

/// Reads the --trust-* flags into a TrustConfig, range-checking every knob
/// (exit 2). All flags are consumed even when --trust is off, so they
/// never surface as typo warnings.
[[nodiscard]] core::TrustConfig trust_from_flags(const util::Flags& flags) {
  core::TrustConfig trust;
  trust.enabled = flags.get_bool("trust", false);
  trust.threshold = flags.get_double("trust-threshold", trust.threshold);
  trust.reward = flags.get_double("trust-reward", trust.reward);
  trust.rate_penalty =
      flags.get_double("trust-rate-penalty", trust.rate_penalty);
  trust.decay = flags.get_double("trust-decay", trust.decay);
  trust.rate_window = static_cast<std::uint64_t>(flags.get_int(
      "trust-rate-window", static_cast<std::int64_t>(trust.rate_window)));
  trust.max_per_window = static_cast<std::uint64_t>(
      flags.get_int("trust-max-per-window",
                    static_cast<std::int64_t>(trust.max_per_window)));
  trust.block_slots = static_cast<std::uint64_t>(flags.get_int(
      "trust-block-slots", static_cast<std::int64_t>(trust.block_slots)));
  trust.entry_window = static_cast<std::uint64_t>(flags.get_int(
      "trust-entry-window", static_cast<std::int64_t>(trust.entry_window)));
  require_flag(trust.threshold >= 0.0 && trust.threshold < 1.0,
               "--trust-threshold must be in [0, 1)");
  require_flag(trust.reward >= 0.0, "--trust-reward must be >= 0");
  require_flag(trust.rate_penalty > 0.0,
               "--trust-rate-penalty must be > 0");
  require_flag(trust.decay > 0.0 && trust.decay <= 1.0,
               "--trust-decay must be in (0, 1]");
  require_flag(trust.rate_window >= 1 && trust.max_per_window >= 1 &&
                   trust.block_slots >= 1 && trust.entry_window >= 1,
               "--trust-rate-window/--trust-max-per-window/"
               "--trust-block-slots/--trust-entry-window must be >= 1");
  return trust;
}

[[nodiscard]] runner::ScenarioConfig scenario_from_flags(
    const util::Flags& flags) {
  runner::ScenarioConfig config;
  const std::string topology = flags.get_string("topology", "clique");
  if (topology == "line") {
    config.topology = runner::TopologyKind::kLine;
  } else if (topology == "ring") {
    config.topology = runner::TopologyKind::kRing;
  } else if (topology == "grid") {
    config.topology = runner::TopologyKind::kGrid;
    config.grid_rows = 2;
  } else if (topology == "star") {
    config.topology = runner::TopologyKind::kStar;
  } else if (topology == "clique") {
    config.topology = runner::TopologyKind::kClique;
  } else if (topology == "erdos-renyi") {
    config.topology = runner::TopologyKind::kErdosRenyi;
  } else if (topology == "unit-disk") {
    config.topology = runner::TopologyKind::kUnitDisk;
    config.ud_radius = 0.4;
  } else if (topology == "watts-strogatz") {
    config.topology = runner::TopologyKind::kWattsStrogatz;
  } else if (topology == "barabasi-albert") {
    config.topology = runner::TopologyKind::kBarabasiAlbert;
  } else {
    std::fprintf(stderr, "unknown --topology=%s\n", topology.c_str());
    std::exit(2);
  }

  config.n = static_cast<net::NodeId>(flags.get_int("n", 16));
  config.universe =
      static_cast<net::ChannelId>(flags.get_int("universe", 10));
  config.set_size =
      static_cast<net::ChannelId>(flags.get_int("set-size", 4));
  config.chain_overlap =
      static_cast<net::ChannelId>(flags.get_int("overlap", 2));

  const std::string channels = flags.get_string("channels", "uniform");
  if (channels == "homogeneous") {
    config.channels = runner::ChannelKind::kHomogeneous;
  } else if (channels == "uniform") {
    config.channels = runner::ChannelKind::kUniformRandom;
  } else if (channels == "variable") {
    config.channels = runner::ChannelKind::kVariableRandom;
    config.min_size = 2;
    config.max_size = config.set_size;
  } else if (channels == "chain") {
    config.channels = runner::ChannelKind::kChainOverlap;
    config.topology = runner::TopologyKind::kLine;
  } else if (channels == "primary-users") {
    config.channels = runner::ChannelKind::kPrimaryUsers;
    config.topology = runner::TopologyKind::kUnitDisk;
    config.ud_radius = 0.4;
  } else {
    std::fprintf(stderr, "unknown --channels=%s\n", channels.c_str());
    std::exit(2);
  }

  config.asymmetric_drop = flags.get_double("asymmetric-drop", 0.0);
  const std::string propagation = flags.get_string("propagation", "full");
  if (propagation == "full") {
    config.propagation = runner::PropagationKind::kFull;
  } else if (propagation == "random") {
    config.propagation = runner::PropagationKind::kRandomMask;
  } else if (propagation == "lowpass") {
    config.propagation = runner::PropagationKind::kLowpass;
  } else {
    std::fprintf(stderr, "unknown --propagation=%s\n", propagation.c_str());
    std::exit(2);
  }
  config.prop_keep = flags.get_double("prop-keep", 0.7);
  return config;
}

/// Reads the --mobility-*/--duty-* flags into a MobilitySpec, range-checking
/// every knob (exit 2) so a bad value never reaches a CHECK in the builder.
[[nodiscard]] runner::MobilitySpec mobility_from_flags(
    const util::Flags& flags) {
  runner::MobilitySpec mobility;
  const std::string mode = flags.get_string("mobility", "off");
  require_flag(mode == "off" || mode == "rwp",
               "--mobility must be off or rwp");
  mobility.enabled = mode == "rwp";
  require_flag(flags.get_int("mobility-epochs", 8) >= 1,
               "--mobility-epochs must be >= 1");
  require_flag(flags.get_int("mobility-epoch-slots", 500) >= 1,
               "--mobility-epoch-slots must be >= 1");
  require_flag(flags.get_int("mobility-pause", 0) >= 0,
               "--mobility-pause must be >= 0");
  require_flag(flags.get_int("duty-on", 1) >= 1, "--duty-on must be >= 1");
  require_flag(flags.get_int("duty-period", 1) >= 1,
               "--duty-period must be >= 1");
  mobility.epochs =
      static_cast<std::size_t>(flags.get_int("mobility-epochs", 8));
  mobility.epoch_slots =
      static_cast<std::uint64_t>(flags.get_int("mobility-epoch-slots", 500));
  mobility.speed_min = flags.get_double("mobility-speed-min", 0.0);
  mobility.speed_max = flags.get_double("mobility-speed-max", 0.05);
  mobility.pause_epochs =
      static_cast<std::uint64_t>(flags.get_int("mobility-pause", 0));
  mobility.duty_on = static_cast<std::uint64_t>(flags.get_int("duty-on", 1));
  mobility.duty_period =
      static_cast<std::uint64_t>(flags.get_int("duty-period", 1));
  require_flag(mobility.speed_min >= 0.0 &&
                   mobility.speed_max >= mobility.speed_min,
               "--mobility-speed-min/--mobility-speed-max must satisfy "
               "0 <= min <= max");
  require_flag(mobility.duty_on <= mobility.duty_period,
               "--duty-on/--duty-period must satisfy on <= period");
  // Duty cycling's kernel/mobility prerequisites are validated in main(),
  // where the --kernel flag is in scope, so one message can name every
  // flag involved.
  return mobility;
}

/// Everything after --help: validates the flags, builds the network, runs
/// the trials and prints the report. Returns the process exit code; main()
/// reports unknown flags after it on every path.
[[nodiscard]] int run(const util::Flags& flags) {
  // Range-check every numeric knob up front (exit 2 with a one-line
  // diagnostic) so a typo'd flag cannot reach a CHECK deep in the engine.
  require_flag(flags.get_int("n", 16) >= 1, "--n must be >= 1");
  require_flag(flags.get_int("universe", 10) >= 1,
               "--universe must be >= 1");
  require_flag(flags.get_int("set-size", 4) >= 1,
               "--set-size must be >= 1");
  require_flag(flags.get_int("trials", 30) >= 1, "--trials must be >= 1");
  require_flag(flags.get_int("threads", 0) >= 0,
               "--threads must be >= 0 (0 = all cores)");
  require_flag(flags.get_int("seed", 1) >= 0, "--seed must be >= 0");
  require_flag(flags.get_int("delta-est", 8) >= 1,
               "--delta-est must be >= 1");
  require_flag(flags.get_int("max-slots", 10'000'000) >= 1,
               "--max-slots must be >= 1");
  require_flag(flags.get_int("radios", 1) >= 1, "--radios must be >= 1");
  require_flag(flags.get_int("terminate-after", 0) >= 0,
               "--terminate-after must be >= 0");
  {
    const double loss_p = flags.get_double("loss", 0.0);
    require_flag(loss_p >= 0.0 && loss_p <= 1.0,
                 "--loss must be in [0, 1]");
    const double eps = flags.get_double("epsilon", 0.1);
    require_flag(eps > 0.0 && eps < 1.0, "--epsilon must be in (0, 1)");
    const double drift = flags.get_double("drift", 1.0 / 7.0);
    require_flag(drift >= 0.0 && drift < 1.0,
                 "--drift must be in [0, 1)");
    const double wander = flags.get_double("drift-wander", 0.0);
    require_flag(wander >= 0.0 && wander < 1.0,
                 "--drift-wander must be in [0, 1)");
    require_flag(flags.get_double("frame-length", 3.0) > 0.0,
                 "--frame-length must be > 0");
    const double drop = flags.get_double("asymmetric-drop", 0.0);
    require_flag(drop >= 0.0 && drop <= 1.0,
                 "--asymmetric-drop must be in [0, 1]");
    const double keep = flags.get_double("prop-keep", 0.7);
    require_flag(keep >= 0.0 && keep <= 1.0,
                 "--prop-keep must be in [0, 1]");
    require_flag(!(loss_p > 0.0 && flags.get_double("burst-loss", 0.0) > 0.0),
                 "--loss and --burst-loss are mutually exclusive (i.i.d. vs "
                 "Gilbert-Elliott loss)");
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto delta_est =
      static_cast<std::size_t>(flags.get_int("delta-est", 8));
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 30));
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  const double epsilon = flags.get_double("epsilon", 0.1);
  const double loss = flags.get_double("loss", 0.0);
  // --policy= is an alias for --algorithm= (the tournament bench and the
  // related-work docs spell it "policy"); --algorithm wins when both are
  // given. Both flags are always consumed so neither shows up as a typo.
  const std::string algorithm_flag = flags.get_string("algorithm", "");
  const std::string policy_flag = flags.get_string("policy", "");
  const std::string algorithm =
      !algorithm_flag.empty() ? algorithm_flag
                              : (!policy_flag.empty() ? policy_flag
                                                      : std::string("alg3"));
  const auto terminate_after =
      static_cast<std::uint64_t>(flags.get_int("terminate-after", 0));
  const std::string kernel = flags.get_string("kernel", "engine");
  require_flag(kernel == "engine" || kernel == "soa",
               "--kernel must be engine or soa");
  // --radios > 1 runs multi-radio Algorithm 3 on the slot engine; flags
  // that select anything else are rejected rather than silently ignored.
  const auto radios = static_cast<unsigned>(flags.get_int("radios", 1));
  require_flag(radios == 1 || algorithm == "alg3",
               "--radios > 1 runs multi-radio alg3 only (--algorithm/--policy "
               "must be alg3)");
  require_flag(radios == 1 || terminate_after == 0,
               "--radios > 1 does not support --terminate-after");
  require_flag(radios == 1 || kernel == "engine",
               "--radios > 1 requires --kernel=engine");
  const runner::MobilitySpec mobility = mobility_from_flags(flags);
  // SoA check first, so --kernel=soa with a duty cycle gets the message
  // naming every flag involved whether or not --mobility was given.
  require_flag(!(kernel == "soa" && mobility.duty_on != mobility.duty_period),
               "--duty-on < --duty-period requires --kernel=engine (duty "
               "cycling wraps policy objects, not SoA policy tables)");
  require_flag(mobility.enabled || mobility.duty_on == mobility.duty_period,
               "--duty-on < --duty-period requires --mobility=rwp");
  const core::TrustConfig trust = trust_from_flags(flags);
  require_flag(!trust.enabled || kernel == "engine",
               "--trust requires --kernel=engine (trust wraps policy "
               "objects, not SoA policy tables)");
  require_flag(!trust.enabled || algorithm != "alg4",
               "--trust is slotted-only (alg4 runs on real time)");
  require_flag(!trust.enabled || radios == 1,
               "--trust supports single-radio runs only");

  std::string scenario_text;
  std::optional<net::Network> owned_network;
  std::unique_ptr<net::EpochTopologyProvider> provider;
  if (mobility.enabled) {
    // Mobile runs own their network through the epoch provider: engines
    // run on the union network and swap per-epoch adjacency internally.
    require_flag(flags.get_string("load-network").empty(),
                 "--mobility=rwp cannot run on a loaded network "
                 "(trajectories need the unit-disk scenario)");
    require_flag(flags.get_string("save-network").empty(),
                 "--mobility=rwp has no single link set to --save-network");
    require_flag(algorithm != "alg4",
                 "--mobility=rwp is slotted-only (alg4 runs on real time)");
    require_flag(radios == 1,
                 "--mobility=rwp supports single-radio runs only");
    const runner::ScenarioConfig scenario = scenario_from_flags(flags);
    require_flag(scenario.topology == runner::TopologyKind::kUnitDisk,
                 "--mobility=rwp requires --topology=unit-disk");
    require_flag(
        scenario.channels == runner::ChannelKind::kHomogeneous ||
            scenario.channels == runner::ChannelKind::kUniformRandom ||
            scenario.channels == runner::ChannelKind::kVariableRandom,
        "--mobility=rwp requires --channels=homogeneous|uniform|variable");
    provider = runner::build_mobility_provider(scenario, mobility, seed);
    sim::SlotEngineCommon engine_knobs;
    engine_knobs.loss_probability = loss;
    apply_fault_flags(flags, engine_knobs.faults);
    scenario_text =
        runner::describe(scenario, engine_knobs,
                         kernel == "soa" ? runner::SyncKernel::kSoa
                                         : runner::SyncKernel::kEngine) +
        runner::describe_mobility(mobility);
  } else {
    owned_network.emplace([&]() -> net::Network {
      const std::string load_path = flags.get_string("load-network");
      if (!load_path.empty()) {
        // Consume (and ignore) the network-shape flags so they do not show
        // up as typos when a file overrides them.
        (void)scenario_from_flags(flags);
        scenario_text = "loaded from " + load_path;
        try {
          return net::load_network_file(load_path);
        } catch (const std::runtime_error& e) {
          std::fprintf(stderr, "m2hew_cli: %s: %s\n", load_path.c_str(),
                       e.what());
          std::exit(2);
        }
      }
      const runner::ScenarioConfig scenario = scenario_from_flags(flags);
      sim::SlotEngineCommon engine_knobs;
      engine_knobs.loss_probability = loss;
      apply_fault_flags(flags, engine_knobs.faults);
      scenario_text = runner::describe(scenario, engine_knobs,
                                       kernel == "soa"
                                           ? runner::SyncKernel::kSoa
                                           : runner::SyncKernel::kEngine);
      return runner::build_scenario(scenario, seed);
    }());
  }
  const net::Network& network =
      provider != nullptr ? provider->union_network() : *owned_network;

  const std::string save_path = flags.get_string("save-network");
  if (!save_path.empty()) {
    net::save_network_file(save_path, network);
    std::printf("network written to %s\n", save_path.c_str());
    return 0;
  }

  core::BoundParams params;
  params.n = network.node_count();
  params.s = network.max_channel_set_size();
  params.delta = std::max<std::size_t>(1, network.max_channel_degree());
  params.delta_est = delta_est;
  params.rho = network.min_span_ratio();
  params.epsilon = epsilon;

  std::printf("scenario: %s\n", scenario_text.c_str());
  std::printf("policy:   %s\n",
              runner::describe_policy(algorithm, delta_est).c_str());
  std::printf("network:  N=%u S=%zu Delta=%zu rho=%.4f links=%zu arcs=%zu\n",
              network.node_count(), params.s, params.delta, params.rho,
              network.links().size(), network.topology().arc_count());

  util::Table table({"metric", "value"});
  auto report_throughput = [&](const auto& stats) {
    table.row().cell("threads").cell(stats.threads_used);
    table.row().cell("wall time (s)").cell(stats.elapsed_seconds, 3);
    table.row().cell("trials/sec").cell(stats.trials_per_second(), 1);
  };
  auto report_sync = [&](const runner::SyncTrialStats& stats, double bound,
                         const char* bound_name) {
    const auto summary = stats.completion_slots.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean slots").cell(summary.mean, 1);
    table.row().cell("p50 slots").cell(summary.p50, 1);
    table.row().cell("p95 slots").cell(summary.p95, 1);
    table.row().cell("max slots").cell(summary.max, 1);
    table.row().cell(bound_name).cell(bound, 0);
    report_throughput(stats);
  };

  runner::RobustnessStats robustness;
  runner::EncounterStats encounter_stats;
  if (algorithm == "alg4") {
    runner::AsyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = seed;
    trial.threads = threads;
    trial.engine.frame_length = flags.get_double("frame-length", 3.0);
    trial.engine.max_real_time = 1e8;
    trial.engine.loss_probability = loss;
    apply_fault_flags(flags, trial.engine.faults);
    const double wander = flags.get_double("drift-wander", 0.0);
    if (wander > 0.0) {
      trial.engine.faults.drift_wander.enabled = true;
      trial.engine.faults.drift_wander.max_drift = wander;
    }
    const double drift = flags.get_double("drift", 1.0 / 7.0);
    if (drift > 0.0) {
      trial.engine.clock_builder = [drift](net::NodeId,
                                           std::uint64_t clock_seed) {
        return std::make_unique<sim::PiecewiseDriftClock>(
            sim::PiecewiseDriftClock::Config{.max_drift = drift,
                                             .min_segment = 15.0,
                                             .max_segment = 60.0},
            clock_seed);
      };
    }
    auto factory = core::make_algorithm4(delta_est);
    if (terminate_after > 0) {
      factory = core::with_termination(std::move(factory), terminate_after);
    }
    const auto stats = runner::run_async_trials(network, factory, trial);
    const auto frames = stats.max_full_frames.summarize();
    table.row().cell("trials").cell(stats.trials);
    table.row().cell("completed").cell(stats.completed);
    table.row().cell("success rate").cell(stats.success_rate(), 3);
    table.row().cell("mean full frames").cell(frames.mean, 1);
    table.row().cell("p95 full frames").cell(frames.p95, 1);
    table.row().cell("thm9 frame bound")
        .cell(core::theorem9_frame_bound(params), 0);
    report_throughput(stats);
    robustness = stats.robustness;
  } else {
    runner::SyncTrialConfig trial;
    trial.trials = trials;
    trial.seed = seed;
    trial.threads = threads;
    trial.engine.max_slots = static_cast<std::uint64_t>(
        flags.get_int("max-slots", 10'000'000));
    trial.engine.loss_probability = loss;
    apply_fault_flags(flags, trial.engine.faults);

    // Mobile run: point the engines at the epoch schedule and track
    // per-contact detection through the reception hook.
    std::optional<sim::EncounterIndex> encounter_index;
    if (provider != nullptr) {
      trial.engine.topology = provider.get();
      trial.engine.epoch_length = mobility.epoch_slots;
      encounter_index.emplace(*provider, mobility.epoch_slots,
                              trial.engine.max_slots);
      trial.encounters = &*encounter_index;
    }

    runner::SyncTrialStats stats;
    double bound = 0.0;
    const char* bound_name = "bound";
    if (kernel == "soa") {
      // The SoA kernel consumes a policy-as-data table, so it covers
      // exactly the spec-representable algorithms.
      core::SyncPolicySpec spec;
      if (algorithm == "alg1") {
        spec = core::SyncPolicySpec::algorithm1(delta_est);
        bound = core::theorem1_slot_bound(params);
        bound_name = "thm1 slot bound";
      } else if (algorithm == "alg2") {
        spec = core::SyncPolicySpec::algorithm2();
        bound = core::theorem2_slot_bound(params);
        bound_name = "thm2 slot bound";
      } else if (algorithm == "alg2x") {
        spec = core::SyncPolicySpec::algorithm2(core::EstimateSchedule::kDouble);
        bound = core::theorem2_slot_bound(params);
        bound_name = "thm2 slot bound (d+=1 schedule)";
      } else if (algorithm == "alg3") {
        spec = core::SyncPolicySpec::algorithm3(delta_est);
        bound = core::theorem3_slot_bound(params);
        bound_name = "thm3 slot bound";
      } else if (algorithm == "consistent-hop") {
        spec = core::SyncPolicySpec::consistent_hop();
        bound_name = "(competitor hop; no closed-form bound)";
      } else {
        std::fprintf(stderr,
                     "--kernel=soa supports only "
                     "alg1/alg2/alg2x/alg3/consistent-hop "
                     "(got --algorithm=%s)\n",
                     algorithm.c_str());
        return 2;
      }
      require_flag(terminate_after == 0,
                   "--terminate-after requires --kernel=engine");
      trial.kernel = runner::SyncKernel::kSoa;
      stats = runner::run_sync_trials(network, spec, trial);
    } else if (radios > 1) {
      // Multi-radio Algorithm 3 (extension; cf. related work [19]) on the
      // same slot engine and trial runner as every single-radio policy.
      table.row().cell("radios").cell(static_cast<std::size_t>(radios));
      stats = runner::run_sync_trials(
          network, core::make_multi_radio_alg3(radios, delta_est), trial);
      bound = core::theorem3_slot_bound(params);
      bound_name = "thm3 slot bound (one radio)";
    } else {
      sim::SyncPolicyFactory factory;
      if (algorithm == "alg1") {
        factory = core::make_algorithm1(delta_est);
        bound = core::theorem1_slot_bound(params);
        bound_name = "thm1 slot bound";
      } else if (algorithm == "alg2") {
        factory = core::make_algorithm2();
        bound = core::theorem2_slot_bound(params);
        bound_name = "thm2 slot bound";
      } else if (algorithm == "alg2x") {
        factory = core::make_algorithm2(core::EstimateSchedule::kDouble);
        bound = core::theorem2_slot_bound(params);
        bound_name = "thm2 slot bound (d+=1 schedule)";
      } else if (algorithm == "alg3") {
        factory = core::make_algorithm3(delta_est);
        bound = core::theorem3_slot_bound(params);
        bound_name = "thm3 slot bound";
      } else if (algorithm == "baseline") {
        factory = core::make_universal_baseline(network.universe_size(), 0.5);
        bound_name = "(no closed-form bound)";
      } else if (algorithm == "deterministic") {
        factory = core::make_deterministic_baseline(network.universe_size());
        bound = static_cast<double>(network.node_count()) *
                network.universe_size();
        bound_name = "N x |U| sweep (deterministic guarantee)";
      } else if (algorithm == "adaptive") {
        factory = core::make_adaptive();
        bound_name = "(adaptive; no closed-form bound)";
      } else if (algorithm == "mcdis") {
        factory = core::make_mcdis();
        bound_name = "(competitor Mc-Dis; no closed-form bound)";
      } else if (algorithm == "rendezvous") {
        factory = core::make_blind_rendezvous();
        bound_name = "(competitor jump-stay; no closed-form bound)";
      } else if (algorithm == "consistent-hop") {
        factory = core::make_consistent_hop();
        bound_name = "(competitor hop; no closed-form bound)";
      } else {
        std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
        return 2;
      }
      if (terminate_after > 0) {
        factory = core::with_termination(std::move(factory), terminate_after);
      }
      if (mobility.enabled) {
        factory = core::with_duty_cycle(std::move(factory), mobility.duty_on,
                                        mobility.duty_period);
      }
      // Identity when --trust is off, so untrusted runs are untouched.
      factory = core::with_trust(std::move(factory), trust);
      stats = runner::run_sync_trials(network, factory, trial);
    }
    report_sync(stats, bound, bound_name);
    robustness = stats.robustness;
    encounter_stats = stats.encounters;
  }

  std::printf("\n%s", table.render().c_str());
  runner::print_robustness(robustness);
  if (encounter_stats.enabled()) runner::print_encounters(encounter_stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  // A malformed value (--duty-on=abc) is a usage error like any other
  // flag-validation failure: one-line diagnostic, exit 2 — never a CHECK
  // abort.
  flags.on_parse_error([](const std::string& message) {
    std::fprintf(stderr, "m2hew_cli: %s\n", message.c_str());
    std::exit(2);
  });
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const int code = run(flags);
  for (const auto& name : flags.unconsumed()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 name.c_str());
  }
  return code;
}
