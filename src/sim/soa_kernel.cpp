#include "sim/soa_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/engine_common.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

bool SoaSlotKernelResult::is_covered(net::Link link) const {
  return covered[network->arc_of(link.from, link.to)] != 0;
}

double SoaSlotKernelResult::first_coverage_slot(net::Link link) const {
  const std::size_t arc = network->arc_of(link.from, link.to);
  M2HEW_CHECK_MSG(covered[arc] != 0, "link not covered yet");
  return first_slot[arc];
}

SoaSlotKernel::SoaSlotKernel(const net::Network& network)
    : network_(&network),
      n_(network.node_count()),
      total_links_(network.links().size()) {
  avail_off_.reserve(static_cast<std::size_t>(n_) + 1);
  avail_off_.push_back(0);
  for (net::NodeId u = 0; u < n_; ++u) {
    const auto words = network.available(u).words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        avail_flat_.push_back(static_cast<net::ChannelId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
    avail_off_.push_back(avail_flat_.size());
  }

  mode_.resize(n_);
  channel_.resize(n_);
  slot_in_stage_.resize(n_);
  stage_slots_.resize(n_);
  estimate_.resize(n_);
  hop_clock_.resize(n_);
}

void SoaSlotKernel::refresh_active(const net::TopologyProvider& provider,
                                   std::size_t e) {
  if (active_provider_ == &provider && active_epoch_ == e &&
      !active_.empty()) {
    return;
  }
  const auto in_off = network_->topology().in_offsets();
  const auto in_src = network_->topology().in_sources();
  active_.resize(in_src.size());
  const net::Network& net = provider.epoch(e);
  for (net::NodeId u = 0; u < n_; ++u) {
    for (std::size_t arc = in_off[u]; arc < in_off[u + 1]; ++arc) {
      active_[arc] = net.in_arc(in_src[arc], u) != net::Network::kNoArc;
    }
  }
  active_provider_ = &provider;
  active_epoch_ = e;
}

SoaSlotKernelResult SoaSlotKernel::run(const SoaPolicyTable& table,
                                       const SlotEngineConfig& config) {
  const net::NodeId n = n_;
  validate_engine_common(config, n);
  M2HEW_CHECK_MSG(table.valid(n), "malformed SoA policy table");
  for (net::NodeId u = 0; u < n; ++u) {
    M2HEW_CHECK_MSG(avail_off_[u + 1] > avail_off_[u],
                    "node needs a non-empty channel set");
  }

  TrialStreams streams(n, config.seed);
  FaultState<std::uint64_t> faults(*network_, streams.seeds(), config.faults);

  const bool has_interference =
      static_cast<bool>(config.interference) || faults.has_spectrum();
  const auto jammed = [&](std::uint64_t slot, net::NodeId who,
                          net::ChannelId c) {
    return (config.interference && config.interference(slot, who, c)) ||
           faults.spectrum_blocked(slot, who, c);
  };

  SoaSlotKernelResult result;
  result.activity.assign(n, RadioActivity{});
  result.total_links = total_links_;
  result.network = network_;
  result.covered.assign(network_->topology().arc_count(), 0);
  result.first_slot.assign(network_->topology().arc_count(), -1.0);

  // Per-trial policy state: every node starts one fresh policy.
  std::fill(slot_in_stage_.begin(), slot_in_stage_.end(), 0u);
  std::fill(stage_slots_.begin(), stage_slots_.end(),
            table.initial_stage_slots);
  std::fill(estimate_.begin(), estimate_.end(),
            static_cast<std::uint64_t>(table.initial_estimate));
  std::fill(hop_clock_.begin(), hop_clock_.end(), std::uint64_t{0});

  // The network's own in-CSR and flat span table.
  const std::size_t* const in_off = network_->topology().in_offsets().data();
  const net::NodeId* const in_src = network_->topology().in_sources().data();
  const std::uint64_t* const span_words = network_->span_words().data();
  const std::size_t span_stride = network_->span_stride();
  const unsigned p_stride = SoaPolicyTable::kMaxStageSlot + 1;
  const double* const p_staged = table.p_staged.data();
  const double* const p_constant = table.p_constant.data();

  // Time-varying topology: the CSR/coverage stay on the union network;
  // `active_` masks which union arcs exist in the current epoch. `masked`
  // is trial-invariant, so the static case pays one predictable branch.
  const net::TopologyProvider* provider =
      topology_provider_of(config, *network_);
  const bool masked = provider != nullptr;
  if (masked) {
    refresh_active(*provider, epoch_at(*provider, config.epoch_length,
                                       std::uint64_t{0}));
  }

  // Steady state below this line performs no allocation: all arrays are
  // owned by the kernel or the result and sized above (the epoch mask is
  // sized at refresh_active's first call and reused).
  for (std::uint64_t slot = 0; slot < config.max_slots; ++slot) {
    ++result.slots_executed;
    if (masked) {
      refresh_active(*provider,
                     epoch_at(*provider, config.epoch_length, slot));
    }

    // Action pass: identical draw order to the virtual policies — under
    // the uniform channel law one uniform channel pick then one Bernoulli
    // coin; under the consistent-hop law the channel is a table lookup
    // and only the coin draws (the staged/constant probabilities are
    // always in (0, 1/2], so the coin always draws).
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        mode_[u] = Mode::kQuiet;
        continue;
      }
      // Adversary roles replace the policy table entry, with draws (none
      // for a jammer; channel + coin for a Byzantine) matching the slot
      // engine's bit-identically.
      if (faults.adversaries()) {
        const AdversaryRole role = faults.role(u);
        if (role == AdversaryRole::kJammer) {
          mode_[u] = Mode::kTransmit;
          channel_[u] = faults.jam_channel(u);
          continue;
        }
        if (role == AdversaryRole::kByzantine) {
          const SlotAction action =
              faults.byzantine_slot_action(u, streams.rng(u));
          mode_[u] = action.mode;
          channel_[u] = action.channel;
          continue;
        }
      }
      if (faults.consume_reset(u, slot)) {
        slot_in_stage_[u] = 0;
        stage_slots_[u] = table.initial_stage_slots;
        estimate_[u] = static_cast<std::uint64_t>(table.initial_estimate);
        hop_clock_[u] = 0;
      }
      util::Rng& rng = streams.rng(u);
      const std::size_t off = avail_off_[u];
      const std::size_t len = avail_off_[u + 1] - off;
      if (table.channel_law == SoaChannelLaw::kConsistentHop) {
        const std::size_t w =
            static_cast<std::size_t>(hop_clock_[u]++ % table.hop_period);
        channel_[u] =
            table.hop_map[static_cast<std::size_t>(u) * table.hop_period + w];
      } else {
        channel_[u] =
            avail_flat_[off + static_cast<std::size_t>(rng.uniform(len))];
      }
      double p;
      if (table.staged) {
        const unsigned i = slot_in_stage_[u] + 1;  // paper's index, 1-based
        p = p_staged[len * p_stride + i];
        if (table.escalating) {
          if (++slot_in_stage_[u] == stage_slots_[u]) {
            slot_in_stage_[u] = 0;
            if (estimate_[u] < SoaPolicyTable::kEstimateCap) {
              estimate_[u] =
                  table.escalate_double ? estimate_[u] * 2 : estimate_[u] + 1;
            }
            stage_slots_[u] = table.stage_length(
                static_cast<std::size_t>(estimate_[u]));
          }
        } else {
          slot_in_stage_[u] = (slot_in_stage_[u] + 1) % stage_slots_[u];
        }
      } else {
        p = p_constant[u];
      }
      mode_[u] = rng.bernoulli(p) ? Mode::kTransmit : Mode::kReceive;
    }

    // Interference suppression: a transmitter sensing an active PU on its
    // chosen channel vacates (radio idle this slot).
    if (has_interference) {
      for (net::NodeId u = 0; u < n; ++u) {
        if (mode_[u] == Mode::kTransmit && jammed(slot, u, channel_[u])) {
          mode_[u] = Mode::kQuiet;
        }
      }
    }

    // Activity accounting from each node's start slot on.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        continue;
      }
      count_mode(result.activity[u], mode_[u]);
    }

    // Reception resolution, in listener order. The flat in-CSR scan is the
    // reference resolution (unique in-neighbor transmitting on c whose
    // span carries c), with the span test as one word probe.
    for (net::NodeId u = 0; u < n; ++u) {
      if (mode_[u] != Mode::kReceive) continue;
      const net::ChannelId c = channel_[u];
      if (has_interference && jammed(slot, u, c)) continue;

      const std::size_t word = c >> 6;
      const std::uint64_t bit = 1ULL << (c & 63);
      net::NodeId sender = net::kInvalidNode;
      std::size_t sender_arc = 0;
      bool collision = false;
      const std::size_t arcs_end = in_off[u + 1];
      for (std::size_t arc = in_off[u]; arc < arcs_end; ++arc) {
        const net::NodeId v = in_src[arc];
        if (mode_[v] != Mode::kTransmit || channel_[v] != c) continue;
        if (masked && active_[arc] == 0) continue;
        if ((span_words[arc * span_stride + word] & bit) == 0) continue;
        if (sender != net::kInvalidNode) {
          collision = true;
          break;
        }
        sender = v;
        sender_arc = arc;
      }
      if (collision || sender == net::kInvalidNode) continue;
      // Adversarial dispositions, mirroring the slot engine: jammer noise
      // and non-responder suppression consume no loss draw; a Byzantine
      // message passes the loss gate, then lands in the fake table
      // instead of the coverage arrays (the SoA path has no policy
      // objects, so there is no trust gate — equivalence legs run
      // untrusted).
      if (faults.adversaries()) {
        if (faults.jam_noise(sender) || faults.suppressed(sender, u)) {
          continue;
        }
      }
      if (faults.message_lost(sender, u, streams.loss_rng(),
                              config.loss_probability)) {
        continue;
      }
      if (faults.fake_source(sender)) {
        (void)faults.note_fake_decode(sender, u, slot);
        continue;
      }
      ++result.receptions;
      if (result.covered[sender_arc] == 0) {
        result.covered[sender_arc] = 1;
        result.first_slot[sender_arc] = static_cast<double>(slot);
        ++result.covered_links;
      }
      faults.note_reception(sender, u, slot);
      if (config.on_reception) config.on_reception(slot, sender, u, c);
    }

    if (!result.complete && result.covered_links == result.total_links) {
      result.complete = true;
      result.completion_slot = slot;
      if (config.stop_when_complete) break;
    }
  }

  result.robustness = faults.assess_covered(
      [&result](net::Link link) { return result.is_covered(link); },
      result.slots_executed == 0 ? 0 : result.slots_executed - 1);
  return result;
}

SoaSlotKernelResult run_soa_slot_kernel(const net::Network& network,
                                        const SoaPolicyTable& table,
                                        const SlotEngineConfig& config) {
  SoaSlotKernel kernel(network);
  return kernel.run(table, config);
}

}  // namespace m2hew::sim
