#include "sim/slot_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "sim/slot_medium.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {
namespace {

/// Presents a single-radio SyncPolicy as a one-radio MultiRadioPolicy:
/// next_slot forwards to the wrapped policy (same RNG draws), and feedback
/// and admission are forwarded with the radio index dropped.
class SingleRadioSyncAdapter final : public MultiRadioPolicy {
 public:
  explicit SingleRadioSyncAdapter(std::unique_ptr<SyncPolicy> inner)
      : inner_(std::move(inner)) {
    M2HEW_CHECK_MSG(inner_ != nullptr, "factory returned null");
  }

  [[nodiscard]] unsigned radio_count() const override { return 1; }
  void next_slot(util::Rng& rng, std::span<SlotAction> actions) override {
    actions[0] = inner_->next_slot(rng);
  }
  void observe_reception(unsigned /*radio*/, net::NodeId from,
                         bool first_time) override {
    inner_->observe_reception(from, first_time);
  }
  void observe_listen_outcome(unsigned /*radio*/,
                              ListenOutcome outcome) override {
    inner_->observe_listen_outcome(outcome);
  }
  [[nodiscard]] bool admit_neighbor(net::NodeId announced) override {
    return inner_->admit_neighbor(announced);
  }

 private:
  std::unique_ptr<SyncPolicy> inner_;
};

/// A policy's actions for one slot: channels from A(u), and no two
/// non-quiet radios of the node on one channel.
void check_radio_actions([[maybe_unused]] const net::Network& network,
                         [[maybe_unused]] net::NodeId u,
                         std::span<const SlotAction> radios) {
  for (std::size_t r = 0; r < radios.size(); ++r) {
    if (radios[r].mode == Mode::kQuiet) continue;
    M2HEW_DCHECK(network.available(u).contains(radios[r].channel));
    for (std::size_t other = 0; other < r; ++other) {
      M2HEW_CHECK_MSG(radios[other].mode == Mode::kQuiet ||
                          radios[other].channel != radios[r].channel,
                      "two radios of one node on the same channel");
    }
  }
}

/// The slot engine. Policy is MultiRadioPolicy, or the final
/// SingleRadioSyncAdapter so a single-radio run calls its wrapped policy
/// without a second virtual dispatch.
template <typename Policy>
SlotEngineResult run_engine(const net::Network& network,
                            const typename TrialSetup<Policy>::Factory& factory,
                            const SlotEngineConfig& config) {
  const net::NodeId n = network.node_count();
  M2HEW_CHECK(config.max_slots >= 1);
  validate_engine_common(config, n);

  TrialSetup<Policy> setup(network, factory, config.seed);
  FaultState<std::uint64_t> faults(network, setup.seeds(), config.faults);

  // One flat action array per trial: node u's radios own entries
  // [first[u], first[u + 1]), laid out once from radio_count().
  std::vector<std::size_t> first(static_cast<std::size_t>(n) + 1, 0);
  for (net::NodeId u = 0; u < n; ++u) {
    const unsigned radios = setup.policy(u).radio_count();
    M2HEW_CHECK(radios >= 1);
    first[u + 1] = first[u] + radios;
  }
  std::vector<SlotAction> actions(first[n]);
  const auto radios_of = [&](net::NodeId u) {
    return std::span<SlotAction>(actions).subspan(first[u],
                                                  first[u + 1] - first[u]);
  };

  // External interference at (slot, node, channel): the configured PU
  // schedule OR an active scheduled spectrum fault.
  const bool has_interference =
      static_cast<bool>(config.interference) || faults.has_spectrum();
  const auto jammed = [&](std::uint64_t slot, net::NodeId who,
                          net::ChannelId c) {
    return (config.interference && config.interference(slot, who, c)) ||
           faults.spectrum_blocked(slot, who, c);
  };

  SlotEngineResult result{false,
                          0,
                          0,
                          std::vector<RadioActivity>(n),
                          DiscoveryState(network),
                          {}};

  // Transmitter push (indexed_reception): each slot's surviving
  // transmitters, in node order, and per radio entry how many of them
  // reach it on its listening channel (saturating at 2) plus the first.
  struct Sender {
    net::NodeId node;
    net::ChannelId channel;
  };
  std::vector<Sender> senders;
  std::vector<std::uint8_t> pushes(actions.size(), 0);
  std::vector<net::NodeId> pusher(actions.size());

  // Time-varying topology: `cur` is the link set in force this slot,
  // swapped at epoch boundaries. Policies, discovery state and completion
  // stay on the union `network`; only reception resolution sees `cur`.
  const net::TopologyProvider* provider =
      topology_provider_of(config, network);
  const net::Network* cur = &network;

  for (std::uint64_t slot = 0; slot < config.max_slots; ++slot) {
    ++result.slots_executed;
    if (provider != nullptr) {
      cur = &provider->epoch(epoch_at(*provider, config.epoch_length, slot));
    }

    senders.clear();
    for (net::NodeId u = 0; u < n; ++u) {
      const std::span<SlotAction> mine = radios_of(u);
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        // Not started or crashed: all radios quiet, and the policy is not
        // polled (its slot indices are node-local).
        std::fill(mine.begin(), mine.end(), SlotAction{});
        continue;
      }
      // Adversary roles replace the node's policy on radio 0, every other
      // radio quiet: a jammer transmits noise on its fixed channel without
      // any stream draws, a Byzantine announcer draws channel + coin from
      // the node's policy stream (same shape as the SoA action pass).
      // Their policy objects are never polled, so recovery resets are
      // moot. A non-responder keeps its honest schedule: suppression
      // happens at its victims' decode step.
      switch (faults.role(u)) {
        case AdversaryRole::kJammer:
          std::fill(mine.begin(), mine.end(), SlotAction{});
          mine[0] = SlotAction{Mode::kTransmit, faults.jam_channel(u)};
          break;
        case AdversaryRole::kByzantine:
          std::fill(mine.begin(), mine.end(), SlotAction{});
          mine[0] = faults.byzantine_slot_action(u, setup.rng(u));
          break;
        default:
          if (faults.consume_reset(u, slot)) {
            setup.reset_policy(u);
            M2HEW_CHECK_MSG(setup.policy(u).radio_count() == mine.size(),
                            "policy changed its radio count on reset");
          }
          setup.policy(u).next_slot(setup.rng(u), mine);
          check_radio_actions(network, u, mine);
          break;
      }
      // A transmission on a channel with active primary-user interference
      // at the transmitter is suppressed (the node senses the PU and
      // vacates, idling that radio for the slot). Radio accounting counts
      // one mode per radio per slot from the node's start slot on: before
      // that, or while crashed, its radios are off (E13's idle energy
      // would otherwise be inflated for late starters).
      for (SlotAction& action : mine) {
        if (action.mode == Mode::kTransmit && has_interference &&
            jammed(slot, u, action.channel)) {
          action.mode = Mode::kQuiet;
        }
        count_mode(result.activity[u], action.mode);
        if (action.mode == Mode::kTransmit) {
          senders.push_back({u, action.channel});
        }
      }
    }

    // Push: each transmitter counts itself at every radio of its current
    // out-neighbors listening on its channel. The counted transmitters of
    // a radio are exactly the candidates the reference scan would walk
    // (in-neighbors transmitting on the radio's channel; radios of one
    // node are on distinct channels), before the span test.
    if (config.indexed_reception) {
      const auto out_off = cur->topology().out_offsets();
      const auto out_dst = cur->topology().out_targets();
      for (const Sender& tx : senders) {
        for (std::size_t arc = out_off[tx.node]; arc < out_off[tx.node + 1];
             ++arc) {
          const net::NodeId w = out_dst[arc];
          for (std::size_t i = first[w]; i < first[w + 1]; ++i) {
            if (actions[i].mode != Mode::kReceive ||
                actions[i].channel != tx.channel) {
              continue;
            }
            if (pushes[i] == 0) pusher[i] = tx.node;
            if (pushes[i] < 2) ++pushes[i];
          }
        }
      }
    }

    // Reception resolution, per listening radio in (node id, radio index)
    // order: u hears v iff v is the only in-neighbor transmitting on the
    // radio's channel whose arc to u carries that channel (transmissions
    // that do not propagate to u neither deliver nor interfere). With the
    // push, a radio no transmitter reached is silence without a scan (the
    // scan would find no candidate and draw nothing), one reached by a
    // single transmitter probes that arc's span, and only the rest scan.
    for (net::NodeId u = 0; u < n; ++u) {
      Policy& policy = setup.policy(u);
      for (std::size_t i = first[u]; i < first[u + 1]; ++i) {
        if (actions[i].mode != Mode::kReceive) continue;
        const auto r = static_cast<unsigned>(i - first[u]);
        const net::ChannelId c = actions[i].channel;
        const std::uint8_t reached = std::exchange(pushes[i], 0);

        // Active primary-user noise at the listener drowns the channel.
        if (has_interference && jammed(slot, u, c)) {
          policy.observe_listen_outcome(r, ListenOutcome::kCollision);
          continue;
        }

        Resolution heard;
        if (config.indexed_reception && reached == 1) {
          const std::size_t arc = cur->in_arc(pusher[i], u);
          M2HEW_DCHECK(arc != net::Network::kNoArc);
          if (cur->carries(arc, c)) heard.sender = pusher[i];
        } else if (!config.indexed_reception || reached == 2) {
          heard = resolve_reference(*cur, u, c, [&](net::NodeId v) {
            const std::span<const SlotAction> theirs = radios_of(v);
            return std::any_of(theirs.begin(), theirs.end(),
                               [c](const SlotAction& action) {
                                 return action.mode == Mode::kTransmit &&
                                        action.channel == c;
                               });
          });
        }
        if (heard.collision) {
          policy.observe_listen_outcome(r, ListenOutcome::kCollision);
          continue;
        }
        if (heard.sender == net::kInvalidNode) {
          policy.observe_listen_outcome(r, ListenOutcome::kSilence);
          continue;
        }
        // Adversarial dispositions of a uniquely-resolved sender: jammer
        // noise reads as a collision, a non-responder's message never
        // decodes at its victims (silence) — neither consumes a loss draw,
        // because neither is a decodable message.
        if (faults.adversaries()) {
          if (faults.jam_noise(heard.sender)) {
            policy.observe_listen_outcome(r, ListenOutcome::kCollision);
            continue;
          }
          if (faults.suppressed(heard.sender, u)) {
            policy.observe_listen_outcome(r, ListenOutcome::kSilence);
            continue;
          }
        }
        if (faults.message_lost(heard.sender, u, setup.loss_rng(),
                                config.loss_probability)) {
          policy.observe_listen_outcome(r, ListenOutcome::kSilence);
          continue;
        }
        // A Byzantine message decodes cleanly but announces a fake ID: it
        // pollutes the listener's table (fault-layer accounting) and feeds
        // the policy the announced ID, never the real arc.
        if (faults.fake_source(heard.sender)) {
          const net::NodeId announced = faults.fake_id(heard.sender);
          if (!policy.admit_neighbor(announced)) {
            faults.note_isolation(u, announced, slot);
            policy.observe_listen_outcome(r, ListenOutcome::kClear);
            continue;
          }
          const bool first_fake =
              faults.note_fake_decode(heard.sender, u, slot);
          policy.observe_listen_outcome(r, ListenOutcome::kClear);
          policy.observe_reception(r, announced, first_fake);
          continue;
        }
        if (!policy.admit_neighbor(heard.sender)) {
          faults.note_isolation(u, heard.sender, slot);
          policy.observe_listen_outcome(r, ListenOutcome::kClear);
          continue;
        }
        const bool first_time = result.state.record_reception(
            heard.sender, u, static_cast<double>(slot));
        faults.note_reception(heard.sender, u, slot);
        policy.observe_listen_outcome(r, ListenOutcome::kClear);
        policy.observe_reception(r, heard.sender, first_time);
        if (config.on_reception) {
          config.on_reception(slot, heard.sender, u, c);
        }
      }
    }

    if (note_completion(result.state, result.complete, result.completion_slot,
                        slot, config.stop_when_complete)) {
      break;
    }
  }
  result.robustness = faults.assess(result.state, result.slots_executed - 1);
  return result;
}

}  // namespace

SlotEngineResult run_slot_engine(const net::Network& network,
                                 const SyncPolicyFactory& factory,
                                 const SlotEngineConfig& config) {
  M2HEW_CHECK_MSG(factory != nullptr, "run_slot_engine needs a factory");
  return run_engine<SingleRadioSyncAdapter>(
      network,
      [&factory](const net::Network& net, net::NodeId u) {
        return std::make_unique<SingleRadioSyncAdapter>(factory(net, u));
      },
      config);
}

SlotEngineResult run_slot_engine(const net::Network& network,
                                 const MultiRadioPolicyFactory& factory,
                                 const SlotEngineConfig& config) {
  return run_engine<MultiRadioPolicy>(network, factory, config);
}

}  // namespace m2hew::sim
