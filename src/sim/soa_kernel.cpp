#include "sim/soa_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/engine_common.hpp"
#include "sim/trial_setup.hpp"
#include "util/check.hpp"

namespace m2hew::sim {

namespace {

// A node's slot action packed as channel << 2 | mode, so "transmitting
// (listening) on c" is one load and one compare. Quiet packs channel 0.
[[nodiscard]] constexpr std::uint32_t pack_action(Mode mode,
                                                  net::ChannelId channel) {
  return channel << 2 | static_cast<std::uint32_t>(mode);
}
constexpr std::uint32_t kQuietAction = pack_action(Mode::kQuiet, 0);
// XOR turns a transmit action into the listen action on the same channel,
// and back.
constexpr std::uint32_t kTransmitToReceive =
    pack_action(Mode::kTransmit, 0) ^ pack_action(Mode::kReceive, 0);

// Calls f(node) for every set bit of the node bitset `words[0, count)`, in
// ascending node order, leaving the set all-zero.
template <typename F>
void drain_bits(std::uint64_t* words, std::size_t count, F&& f) {
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t bits = words[w];
    if (bits == 0) continue;
    words[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      f(static_cast<net::NodeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
}

}  // namespace

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

  M2HEW_CHECK_MSG(network.universe_size() <= (net::ChannelId{1} << 30),
                  "channel universe too large for the packed action word");
  action_.resize(n_);
  slot_in_stage_.resize(n_);
  stage_slots_.resize(n_);
  estimate_.resize(n_);
  hop_clock_.resize(n_);
  transmitting_.resize((static_cast<std::size_t>(n_) + 63) / 64);
  marked_.resize(transmitting_.size());
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
  // The push and the resolution clear every bit they use; the fills only
  // matter after a run() that an on_reception callback aborted mid-slot.
  std::fill(transmitting_.begin(), transmitting_.end(), std::uint64_t{0});
  std::fill(marked_.begin(), marked_.end(), std::uint64_t{0});
  std::uint64_t* const transmitting = transmitting_.data();
  std::uint64_t* const marked = marked_.data();
  const std::size_t words = marked_.size();

  // The network's own out- and in-CSR and flat span table.
  const net::Topology& topology = network_->topology();
  const std::size_t* const out_off = topology.out_offsets().data();
  const net::NodeId* const out_dst = topology.out_targets().data();
  const std::size_t* const in_off = topology.in_offsets().data();
  const net::NodeId* const in_src = topology.in_sources().data();
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

    // Fused per-node pass: the action draw, interference vacate, activity
    // accounting, and a bit in `transmitting` for each surviving
    // transmitter. Draw order is identical to the virtual policies — under
    // the uniform channel law one uniform channel pick then one Bernoulli
    // coin; under the consistent-hop law the channel is a table lookup and
    // only the coin draws (the staged/constant probabilities are always in
    // (0, 1/2], so the coin always draws). The vacate and accounting read
    // only the node's own action, so folding them in changes no draw.
    for (net::NodeId u = 0; u < n; ++u) {
      if (slot < start_of(config.starts, u) || faults.down_at(u, slot)) {
        action_[u] = kQuietAction;
        continue;
      }
      // Adversary roles replace the policy table entry, with draws (none
      // for a jammer; channel + coin for a Byzantine) matching the slot
      // engine's bit-identically.
      Mode mode;
      net::ChannelId channel;
      const AdversaryRole role = faults.role(u);
      if (role == AdversaryRole::kJammer) {
        mode = Mode::kTransmit;
        channel = faults.jam_channel(u);
      } else if (role == AdversaryRole::kByzantine) {
        const SlotAction action =
            faults.byzantine_slot_action(u, streams.rng(u));
        mode = action.mode;
        channel = action.channel;
      } else {
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
          channel =
              table.hop_map[static_cast<std::size_t>(u) * table.hop_period + w];
        } else {
          channel =
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
                estimate_[u] = table.escalate_double ? estimate_[u] * 2
                                                     : estimate_[u] + 1;
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
        mode = rng.bernoulli(p) ? Mode::kTransmit : Mode::kReceive;
      }
      // Interference suppression: a transmitter sensing an active PU on
      // its chosen channel vacates (radio idle this slot).
      if (mode == Mode::kTransmit && has_interference &&
          jammed(slot, u, channel)) {
        mode = Mode::kQuiet;
      }
      transmitting[u >> 6] |=
          static_cast<std::uint64_t>(mode == Mode::kTransmit) << (u & 63);
      action_[u] = pack_action(mode, channel);
      count_mode(result.activity[u], mode);
    }

    // Push: each transmitter marks the out-neighbors listening on its
    // channel. A listener the reference scan would resolve to a sender has
    // that sender among its in-neighbors, so it is always marked; marking
    // is a superset (span, epoch mask and collisions are left to the scan).
    drain_bits(transmitting, words, [&](net::NodeId v) {
      const std::uint32_t rx_on_c = action_[v] ^ kTransmitToReceive;
      const std::size_t arcs_end = out_off[v + 1];
      for (std::size_t arc = out_off[v]; arc < arcs_end; ++arc) {
        const net::NodeId w = out_dst[arc];
        marked[w >> 6] |= static_cast<std::uint64_t>(action_[w] == rx_on_c)
                          << (w & 63);
      }
    });

    // Reception resolution over the marked listeners, in ascending order
    // (the loss stream's draw order), clearing the bitset as it goes. An
    // unmarked listener has no in-neighbor transmitting on its channel:
    // the scan would find no sender there and draw nothing. For each marked
    // one, the flat in-CSR scan is the reference resolution (unique
    // in-neighbor transmitting on c whose span carries c), with the span
    // test as one word probe.
    drain_bits(marked, words, [&](net::NodeId u) {
      const std::uint32_t tx_on_c = action_[u] ^ kTransmitToReceive;
      const net::ChannelId c = action_[u] >> 2;
      if (has_interference && jammed(slot, u, c)) return;

      const std::size_t word = c >> 6;
      const std::uint64_t bit = 1ULL << (c & 63);
      net::NodeId sender = net::kInvalidNode;
      std::size_t sender_arc = 0;
      const std::size_t arcs_end = in_off[u + 1];
      for (std::size_t arc = in_off[u]; arc < arcs_end; ++arc) {
        const net::NodeId v = in_src[arc];
        if (action_[v] != tx_on_c) continue;
        if (masked && active_[arc] == 0) continue;
        if ((span_words[arc * span_stride + word] & bit) == 0) continue;
        if (sender != net::kInvalidNode) return;  // collision
        sender = v;
        sender_arc = arc;
      }
      if (sender == net::kInvalidNode) return;
      // Adversarial dispositions, mirroring the slot engine: jammer noise
      // and non-responder suppression consume no loss draw; a Byzantine
      // message passes the loss gate, then lands in the fake table
      // instead of the coverage arrays (the SoA path has no policy
      // objects, so there is no trust gate — equivalence legs run
      // untrusted).
      if (faults.adversaries()) {
        if (faults.jam_noise(sender) || faults.suppressed(sender, u)) {
          return;
        }
      }
      if (faults.message_lost(sender, u, streams.loss_rng(),
                              config.loss_probability)) {
        return;
      }
      if (faults.fake_source(sender)) {
        (void)faults.note_fake_decode(sender, u, slot);
        return;
      }
      ++result.receptions;
      if (result.covered[sender_arc] == 0) {
        result.covered[sender_arc] = 1;
        result.first_slot[sender_arc] = static_cast<double>(slot);
        ++result.covered_links;
      }
      faults.note_reception(sender, u, slot);
      if (config.on_reception) config.on_reception(slot, sender, u, c);
    });

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
