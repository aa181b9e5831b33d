// Multi-radio Algorithm 3 (extension; model of related work [19]).
//
// With R transceivers per node, the spectrum is striped globally by
// channel id modulo R: radio r of every node works the sub-spectrum
// A(u) ∩ {c : c mod R = r} and runs the Algorithm-3 schedule on it. The
// striping is what makes the radios of different nodes meet: sender radio
// r and receiver radio r rendezvous inside the same stripe, turning one
// discovery instance into R parallel, non-interfering instances over
// spectra of size ≈ S/R each — per Theorem 3 the per-stripe coverage rate
// improves and every stripe progresses simultaneously.
//
// Radios whose stripe of A(u) is empty stay quiet. When R = 1 this is
// exactly Algorithm 3.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/channel_set.hpp"
#include "sim/policy.hpp"

namespace m2hew::core {

class MultiRadioAlg3Policy final : public sim::MultiRadioPolicy {
 public:
  MultiRadioAlg3Policy(const net::ChannelSet& available, unsigned radios,
                       std::size_t delta_est);

  [[nodiscard]] unsigned radio_count() const override { return radios_; }
  void next_slot(util::Rng& rng,
                 std::span<sim::SlotAction> actions) override;

  /// Channels assigned to radio r (exposed for tests).
  [[nodiscard]] const std::vector<net::ChannelId>& stripe(unsigned r) const;

 private:
  unsigned radios_;
  std::vector<std::vector<net::ChannelId>> stripes_;
  std::vector<double> transmit_probability_;  // per radio
};

/// Factory with a uniform radio count across nodes.
[[nodiscard]] sim::MultiRadioPolicyFactory make_multi_radio_alg3(
    unsigned radios, std::size_t delta_est);

}  // namespace m2hew::core
