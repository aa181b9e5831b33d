// The synchronous channel medium's per-slot question from §II: listener
// u, tuned to channel c, hears sender v iff v is the UNIQUE in-neighbor
// of u emitting on c whose arc to u carries c — otherwise u hears a
// collision (two or more such senders) or silence (none).
//
// resolve_reference() answers it by the original per-listener scan over
// the full in-link list. It is the executable specification: the slot
// engine runs it directly with `indexed_reception = false`, and its
// transmitter push (sim/slot_engine.cpp) falls back to it for every
// listening radio that two or more co-channel transmitters reach. The
// scan walks candidates in ascending sender id, so sender/collision —
// and therefore policy-callback order and loss-RNG draw order — are the
// same whichever path asked.
#pragma once

#include "net/network.hpp"
#include "net/types.hpp"

namespace m2hew::sim {

/// Outcome of one (listener, channel) resolution: a unique audible
/// sender, a collision, or (kInvalidNode, false) = silence.
struct Resolution {
  net::NodeId sender = net::kInvalidNode;
  bool collision = false;
};

/// Reference resolution: scan the listener's in-links, asking the engine
/// whether each in-neighbor currently emits on `channel`
/// (`transmits_on(v)`).
template <typename TransmitsOn>
[[nodiscard]] Resolution resolve_reference(const net::Network& network,
                                           net::NodeId listener,
                                           net::ChannelId channel,
                                           const TransmitsOn& transmits_on) {
  Resolution out;
  const auto offsets = network.topology().in_offsets();
  for (std::size_t arc = offsets[listener]; arc < offsets[listener + 1];
       ++arc) {
    const net::NodeId v = network.topology().in_sources()[arc];
    if (!transmits_on(v) || !network.carries(arc, channel)) continue;
    if (out.sender != net::kInvalidNode) {
      out.collision = true;
      break;
    }
    out.sender = v;
  }
  return out;
}

}  // namespace m2hew::sim
