// Policy interfaces: the contract between the simulation engines and the
// neighbor-discovery algorithms (implemented in src/core/).
//
// A policy instance is per-node and per-trial; it owns whatever schedule
// state the algorithm needs (stage counters, degree estimates, ...). The
// engine supplies the node's RNG so that all randomness in a trial flows
// from the trial seed.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/radio.hpp"
#include "util/rng.hpp"

namespace m2hew::sim {

/// Synchronous-system policy: called once per time slot, in order, starting
/// from the node's first active slot (slot indices are node-local).
class SyncPolicy {
 public:
  virtual ~SyncPolicy() = default;
  [[nodiscard]] virtual SlotAction next_slot(util::Rng& rng) = 0;

  /// Engine feedback: this node received a clear discovery message from
  /// `from`; `first_time` is true iff it was the first from that neighbor.
  /// The paper's algorithms ignore it (they run forever); the termination
  /// extension (core/termination.hpp) uses it to decide when to stop.
  virtual void observe_reception(net::NodeId from, bool first_time) {
    (void)from;
    (void)first_time;
  }

  /// Engine feedback after every *listening* slot: silence, a clear
  /// message, or a collision. Only policies modelling collision-detecting
  /// hardware (core/adaptive.hpp) may use the silence/collision
  /// distinction — the paper's model forbids it (§II).
  virtual void observe_listen_outcome(ListenOutcome outcome) {
    (void)outcome;
  }

  /// Admission gate, consulted before the engine records a decoded
  /// announcement of `announced` into this node's neighbor table. The
  /// default accepts everything (the paper's model trusts all
  /// transmitters); the trust wrapper (core/trust.hpp) rejects blocked
  /// IDs, which the engine reports to the fault layer as an isolation
  /// event. Wrapper policies MUST forward this to their inner policy.
  /// Rejection suppresses the reception entirely (no observe_reception,
  /// no table entry); the announced ID is what the message carried, which
  /// under a Byzantine fault need not be the physical sender's ID.
  [[nodiscard]] virtual bool admit_neighbor(net::NodeId announced) {
    (void)announced;
    return true;
  }
};

/// Synchronous-system policy for a node with a fixed number of
/// transceivers — the multi-interface model of related work [19]; the
/// paper's single radio (§II) is R = 1, and the slot engine runs every
/// SyncPolicy as a one-radio MultiRadioPolicy. Called once per slot like
/// SyncPolicy; feedback mirrors SyncPolicy, tagged with the radio index it
/// arrived on.
class MultiRadioPolicy {
 public:
  virtual ~MultiRadioPolicy() = default;

  /// Number of radios; fixed for the policy's lifetime. The engine sizes
  /// the node's slice of its per-slot action array from it at setup.
  [[nodiscard]] virtual unsigned radio_count() const = 0;

  /// Writes this slot's action for every radio into `actions`, which is
  /// caller-owned and has exactly radio_count() entries. Non-quiet radios
  /// must be tuned to pairwise-distinct channels.
  virtual void next_slot(util::Rng& rng, std::span<SlotAction> actions) = 0;

  /// Called when radio `radio` clearly receives from `from`.
  virtual void observe_reception(unsigned radio, net::NodeId from,
                                 bool first_time) {
    (void)radio;
    (void)from;
    (void)first_time;
  }

  /// Called once per listening radio per slot with what that radio heard.
  virtual void observe_listen_outcome(unsigned radio, ListenOutcome outcome) {
    (void)radio;
    (void)outcome;
  }

  /// Admission gate; the node's one neighbor table is shared by its
  /// radios, so there is no radio argument. See SyncPolicy::admit_neighbor.
  [[nodiscard]] virtual bool admit_neighbor(net::NodeId announced) {
    (void)announced;
    return true;
  }
};

/// Asynchronous-system policy: called once at the start of each frame.
class AsyncPolicy {
 public:
  virtual ~AsyncPolicy() = default;
  [[nodiscard]] virtual FrameAction next_frame(util::Rng& rng) = 0;

  /// Engine feedback; see SyncPolicy::observe_reception. Delivered when the
  /// listening frame containing the reception is resolved (its end).
  virtual void observe_reception(net::NodeId from, bool first_time) {
    (void)from;
    (void)first_time;
  }

  /// Admission gate; see SyncPolicy::admit_neighbor.
  [[nodiscard]] virtual bool admit_neighbor(net::NodeId announced) {
    (void)announced;
    return true;
  }
};

/// Factories build one policy per node; the engines call them at trial
/// setup. They may inspect the network only through the node's own local
/// knowledge (its id and available channel set) — algorithms must stay
/// distributed — but receive the whole network for convenience; policies in
/// src/core/ deliberately read only A(u).
using SyncPolicyFactory = std::function<std::unique_ptr<SyncPolicy>(
    const net::Network&, net::NodeId)>;
using MultiRadioPolicyFactory = std::function<std::unique_ptr<
    MultiRadioPolicy>(const net::Network&, net::NodeId)>;
using AsyncPolicyFactory = std::function<std::unique_ptr<AsyncPolicy>(
    const net::Network&, net::NodeId)>;

}  // namespace m2hew::sim
