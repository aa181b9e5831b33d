#include "sim/multi_radio_engine.hpp"

#include "sim/slot_medium.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

MultiRadioEngineResult run_multi_radio_engine(
    const net::Network& network, const MultiRadioPolicyFactory& factory,
    const MultiRadioEngineConfig& config) {
  const net::NodeId n = network.node_count();
  M2HEW_CHECK(config.max_slots >= 1);
  validate_engine_common(config, n);

  TrialSetup<MultiRadioPolicy> setup(network, factory, config.seed);
  FaultState<std::uint64_t> faults(network, setup.seeds(), config.faults);
  for (net::NodeId u = 0; u < n; ++u) {
    M2HEW_CHECK(setup.policy(u).radio_count() >= 1);
  }

  // External interference at (slot, node, channel): the configured PU
  // schedule OR an active scheduled spectrum fault.
  const bool has_interference =
      static_cast<bool>(config.interference) || faults.has_spectrum();
  const auto jammed = [&](std::uint64_t slot, net::NodeId who,
                          net::ChannelId c) {
    return (config.interference && config.interference(slot, who, c)) ||
           faults.spectrum_blocked(slot, who, c);
  };

  MultiRadioEngineResult result{false,
                                0,
                                0,
                                std::vector<RadioActivity>(n),
                                DiscoveryState(network),
                                {}};
  std::vector<std::vector<SlotAction>> actions(n);
  SlotMedium medium(network.universe_size(), config.indexed_reception);
  // Per-node channel usage scratch for validating radio distinctness.
  std::vector<net::ChannelId> used;

  // Time-varying topology: `cur` is the link set in force this slot,
  // swapped at epoch boundaries (see run_slot_engine).
  const net::TopologyProvider* provider =
      topology_provider_of(config, network);
  const net::Network* cur = &network;

  for (std::uint64_t slot = 0; slot < config.max_slots; ++slot) {
    ++result.slots_executed;
    if (provider != nullptr) {
      cur = &provider->epoch(epoch_at(*provider, config.epoch_length, slot));
    }

    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        // Not started or crashed: all radios quiet, and the policy is not
        // polled (its slot indices are node-local, as in the slot engine).
        actions[u].assign(setup.policy(u).radio_count(), SlotAction{});
        continue;
      }
      // Jammer and Byzantine roles use a single radio (radio 0) — the
      // same behaviour and draw shape as the single-radio engines — with
      // every other radio quiet (two radios of one node may not share a
      // channel, so a jammer cannot jam with all of them anyway). A
      // non-responder keeps its honest schedule: suppression happens at
      // its victims' decode step.
      const AdversaryRole role = faults.role(u);
      if (role == AdversaryRole::kJammer ||
          role == AdversaryRole::kByzantine) {
        actions[u].assign(setup.policy(u).radio_count(), SlotAction{});
        actions[u][0] =
            role == AdversaryRole::kJammer
                ? SlotAction{Mode::kTransmit, faults.jam_channel(u)}
                : faults.byzantine_slot_action(u, setup.rng(u));
        continue;
      }
      if (faults.consume_reset(u, slot)) setup.reset_policy(u);
      actions[u] = setup.policy(u).next_slot(setup.rng(u));
      M2HEW_CHECK_MSG(actions[u].size() == setup.policy(u).radio_count(),
                      "policy returned wrong radio count");
      used.clear();
      for (const SlotAction& action : actions[u]) {
        if (action.mode == Mode::kQuiet) continue;
        M2HEW_DCHECK(network.available(u).contains(action.channel));
        for (const net::ChannelId c : used) {
          M2HEW_CHECK_MSG(c != action.channel,
                          "two radios of one node on the same channel");
        }
        used.push_back(action.channel);
      }
    }

    // Transmissions on a channel with active primary-user interference at
    // the transmitter are suppressed (the node senses the PU and vacates,
    // idling that radio for the slot).
    if (has_interference) {
      for (net::NodeId u = 0; u < n; ++u) {
        for (SlotAction& action : actions[u]) {
          if (action.mode == Mode::kTransmit &&
              jammed(slot, u, action.channel)) {
            action.mode = Mode::kQuiet;
          }
        }
      }
    }

    // Radio accounting starts at the node's start slot, one count per
    // radio per slot; a crashed node's radios are off.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      for (const SlotAction& action : actions[u]) {
        count_mode(result.activity[u], action.mode);
      }
    }

    // One sweep groups this slot's (non-suppressed) transmitting radios by
    // channel; the sweep runs in node id order so each bucket stays
    // id-sorted (distinct-channel validation guarantees a node appears at
    // most once per bucket).
    if (config.indexed_reception) {
      medium.begin_slot();
      for (net::NodeId u = 0; u < n; ++u) {
        for (const SlotAction& action : actions[u]) {
          if (action.mode != Mode::kTransmit) continue;
          medium.add_transmitter(action.channel, u);
        }
      }
    }

    // Reception resolution, per listening radio in (node id, radio index)
    // order — the slot engine's listener order, so with one radio per node
    // the policy callbacks and loss-RNG draws are bit-identical to
    // run_slot_engine.
    for (net::NodeId u = 0; u < n; ++u) {
      for (unsigned r = 0; r < actions[u].size(); ++r) {
        const SlotAction& mine = actions[u][r];
        if (mine.mode != Mode::kReceive) continue;
        const net::ChannelId c = mine.channel;

        // Active primary-user noise at the listener drowns the channel.
        if (has_interference && jammed(slot, u, c)) {
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kCollision);
          continue;
        }

        const SlotMedium::Resolution heard =
            config.indexed_reception
                ? medium.resolve(*cur, u, c)
                : SlotMedium::resolve_reference(
                      *cur, u, c, [&](net::NodeId v) {
                        for (const SlotAction& theirs : actions[v]) {
                          if (theirs.mode == Mode::kTransmit &&
                              theirs.channel == c) {
                            return true;
                          }
                        }
                        return false;
                      });
        if (heard.collision) {
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kCollision);
          continue;
        }
        if (heard.sender == net::kInvalidNode) {
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kSilence);
          continue;
        }
        // Adversarial dispositions, mirroring the slot engine (see
        // run_slot_engine for the rationale and ordering).
        if (faults.adversaries()) {
          if (faults.jam_noise(heard.sender)) {
            setup.policy(u).observe_listen_outcome(r,
                                                   ListenOutcome::kCollision);
            continue;
          }
          if (faults.suppressed(heard.sender, u)) {
            setup.policy(u).observe_listen_outcome(r,
                                                   ListenOutcome::kSilence);
            continue;
          }
        }
        if (faults.message_lost(heard.sender, u, setup.loss_rng(),
                                config.loss_probability)) {
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kSilence);
          continue;
        }
        if (faults.fake_source(heard.sender)) {
          const net::NodeId announced = faults.fake_id(heard.sender);
          if (!setup.policy(u).admit_neighbor(announced)) {
            faults.note_isolation(u, announced, slot);
            setup.policy(u).observe_listen_outcome(r, ListenOutcome::kClear);
            continue;
          }
          const bool first_fake =
              faults.note_fake_decode(heard.sender, u, slot);
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kClear);
          setup.policy(u).observe_reception(r, announced, first_fake);
          continue;
        }
        if (!setup.policy(u).admit_neighbor(heard.sender)) {
          faults.note_isolation(u, heard.sender, slot);
          setup.policy(u).observe_listen_outcome(r, ListenOutcome::kClear);
          continue;
        }
        const bool first_time = result.state.record_reception(
            heard.sender, u, static_cast<double>(slot));
        faults.note_reception(heard.sender, u, slot);
        setup.policy(u).observe_listen_outcome(r, ListenOutcome::kClear);
        setup.policy(u).observe_reception(r, heard.sender, first_time);
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
  result.robustness = faults.assess(
      result.state,
      result.slots_executed == 0 ? 0 : result.slots_executed - 1);
  return result;
}

}  // namespace m2hew::sim
