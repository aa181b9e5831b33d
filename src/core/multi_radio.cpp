#include "core/multi_radio.hpp"

#include <memory>

#include "core/transmit_probability.hpp"
#include "util/check.hpp"

namespace m2hew::core {

MultiRadioAlg3Policy::MultiRadioAlg3Policy(const net::ChannelSet& available,
                                           unsigned radios,
                                           std::size_t delta_est)
    : radios_(radios), stripes_(radios) {
  M2HEW_CHECK(radios >= 1);
  M2HEW_CHECK(delta_est >= 1);
  M2HEW_CHECK_MSG(!available.empty(), "node needs a non-empty channel set");
  for (const net::ChannelId c : available.to_vector()) {
    stripes_[c % radios].push_back(c);
  }
  transmit_probability_.reserve(radios);
  for (unsigned r = 0; r < radios; ++r) {
    transmit_probability_.push_back(
        stripes_[r].empty()
            ? 0.0
            : alg3_probability(stripes_[r].size(), delta_est));
  }
}

const std::vector<net::ChannelId>& MultiRadioAlg3Policy::stripe(
    unsigned r) const {
  M2HEW_CHECK(r < radios_);
  return stripes_[r];
}

void MultiRadioAlg3Policy::next_slot(util::Rng& rng,
                                     std::span<sim::SlotAction> actions) {
  for (unsigned r = 0; r < radios_; ++r) {
    actions[r] = sim::SlotAction{};
    if (stripes_[r].empty()) continue;  // quiet radio
    actions[r].channel =
        rng.pick(std::span<const net::ChannelId>(stripes_[r]));
    actions[r].mode = rng.bernoulli(transmit_probability_[r])
                          ? sim::Mode::kTransmit
                          : sim::Mode::kReceive;
  }
}

sim::MultiRadioPolicyFactory make_multi_radio_alg3(unsigned radios,
                                                   std::size_t delta_est) {
  return [radios, delta_est](const net::Network& network, net::NodeId u)
             -> std::unique_ptr<sim::MultiRadioPolicy> {
    return std::make_unique<MultiRadioAlg3Policy>(network.available(u),
                                                  radios, delta_est);
  };
}

}  // namespace m2hew::core
