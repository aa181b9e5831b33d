#include "sim/slot_engine.hpp"

#include "sim/slot_medium.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

SlotEngineResult run_slot_engine(const net::Network& network,
                                 const SyncPolicyFactory& factory,
                                 const SlotEngineConfig& config) {
  const net::NodeId n = network.node_count();
  validate_engine_common(config, n);

  TrialSetup<SyncPolicy> setup(network, factory, config.seed);
  FaultState<std::uint64_t> faults(network, setup.seeds(), config.faults);

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
  std::vector<SlotAction> actions(n);
  SlotMedium medium(network.universe_size(), config.indexed_reception);

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

    for (net::NodeId u = 0; u < n; ++u) {
      if (slot >= start_of(config.starts, u) && !faults.down_at(u, slot)) {
        // Adversary roles replace the node's policy: a jammer transmits
        // noise on its fixed channel without any stream draws, a
        // Byzantine announcer draws channel + coin from the node's policy
        // stream (same shape as the SoA action pass). Their policy
        // objects are never polled, so recovery resets are moot.
        switch (faults.role(u)) {
          case AdversaryRole::kJammer:
            actions[u] = SlotAction{Mode::kTransmit, faults.jam_channel(u)};
            break;
          case AdversaryRole::kByzantine:
            actions[u] = faults.byzantine_slot_action(u, setup.rng(u));
            break;
          default:
            if (faults.consume_reset(u, slot)) setup.reset_policy(u);
            actions[u] = setup.policy(u).next_slot(setup.rng(u));
            if (actions[u].mode != Mode::kQuiet) {
              M2HEW_DCHECK(
                  network.available(u).contains(actions[u].channel));
            }
            break;
        }
      } else {
        actions[u] = SlotAction{};  // not started or crashed: quiet
      }
    }

    // Transmissions on a channel with active primary-user interference at
    // the transmitter are suppressed (the node senses the PU and vacates,
    // idling its radio for the slot).
    if (has_interference) {
      for (net::NodeId u = 0; u < n; ++u) {
        if (actions[u].mode == Mode::kTransmit &&
            jammed(slot, u, actions[u].channel)) {
          actions[u].mode = Mode::kQuiet;
        }
      }
    }

    // Radio accounting starts at the node's start slot: before that the
    // node is not executing and its radio is off (E13's idle energy would
    // otherwise be inflated for late starters). A crashed node's radio is
    // off for the same reason.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      count_mode(result.activity[u], actions[u].mode);
    }

    // One O(#transmitters) sweep groups this slot's (non-suppressed)
    // transmitters by channel; the sweep runs in node id order so each
    // bucket stays id-sorted.
    if (config.indexed_reception) {
      medium.begin_slot();
      for (net::NodeId u = 0; u < n; ++u) {
        if (actions[u].mode != Mode::kTransmit) continue;
        medium.add_transmitter(actions[u].channel, u);
      }
    }

    // Reception resolution, per listening node: u hears v iff v is the
    // only in-neighbor transmitting on u's channel whose arc to u carries
    // that channel (transmissions that do not propagate to u neither
    // deliver nor interfere).
    for (net::NodeId u = 0; u < n; ++u) {
      if (actions[u].mode != Mode::kReceive) continue;
      const net::ChannelId c = actions[u].channel;

      // Active primary-user noise at the listener drowns the channel.
      if (has_interference && jammed(slot, u, c)) {
        setup.policy(u).observe_listen_outcome(ListenOutcome::kCollision);
        continue;
      }

      const SlotMedium::Resolution heard =
          config.indexed_reception
              ? medium.resolve(*cur, u, c)
              : SlotMedium::resolve_reference(
                    *cur, u, c, [&](net::NodeId v) {
                      return actions[v].mode == Mode::kTransmit &&
                             actions[v].channel == c;
                    });
      if (heard.collision) {
        setup.policy(u).observe_listen_outcome(ListenOutcome::kCollision);
        continue;
      }
      if (heard.sender == net::kInvalidNode) {
        setup.policy(u).observe_listen_outcome(ListenOutcome::kSilence);
        continue;
      }
      // Adversarial dispositions of a uniquely-resolved sender: jammer
      // noise reads as a collision, a non-responder's message never
      // decodes at its victims (silence) — neither consumes a loss draw,
      // because neither is a decodable message.
      if (faults.adversaries()) {
        if (faults.jam_noise(heard.sender)) {
          setup.policy(u).observe_listen_outcome(ListenOutcome::kCollision);
          continue;
        }
        if (faults.suppressed(heard.sender, u)) {
          setup.policy(u).observe_listen_outcome(ListenOutcome::kSilence);
          continue;
        }
      }
      if (faults.message_lost(heard.sender, u, setup.loss_rng(),
                              config.loss_probability)) {
        setup.policy(u).observe_listen_outcome(ListenOutcome::kSilence);
        continue;
      }
      // A Byzantine message decodes cleanly but announces a fake ID: it
      // pollutes the listener's table (fault-layer accounting) and feeds
      // the policy the announced ID, never the real arc.
      if (faults.fake_source(heard.sender)) {
        const net::NodeId announced = faults.fake_id(heard.sender);
        if (!setup.policy(u).admit_neighbor(announced)) {
          faults.note_isolation(u, announced, slot);
          setup.policy(u).observe_listen_outcome(ListenOutcome::kClear);
          continue;
        }
        const bool first_fake = faults.note_fake_decode(heard.sender, u, slot);
        setup.policy(u).observe_listen_outcome(ListenOutcome::kClear);
        setup.policy(u).observe_reception(announced, first_fake);
        continue;
      }
      if (!setup.policy(u).admit_neighbor(heard.sender)) {
        faults.note_isolation(u, heard.sender, slot);
        setup.policy(u).observe_listen_outcome(ListenOutcome::kClear);
        continue;
      }
      const bool first_time = result.state.record_reception(
          heard.sender, u, static_cast<double>(slot));
      faults.note_reception(heard.sender, u, slot);
      setup.policy(u).observe_listen_outcome(ListenOutcome::kClear);
      setup.policy(u).observe_reception(heard.sender, first_time);
      if (config.on_reception) {
        config.on_reception(slot, heard.sender, u, c);
      }
    }

    if (note_completion(result.state, result.complete, result.completion_slot,
                        slot, config.stop_when_complete)) {
      break;
    }
  }
  result.robustness = faults.assess(
      result.state,
      result.slots_executed == 0 ? 0 : result.slots_executed - 1);
  return result;
}

}  // namespace m2hew::sim
