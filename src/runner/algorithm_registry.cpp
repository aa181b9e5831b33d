#include "runner/algorithm_registry.hpp"

#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/baseline_deterministic.hpp"
#include "core/competitors.hpp"

namespace m2hew::runner {

namespace {

using core::BoundParams;
using core::SyncPolicySpec;

constexpr AlgorithmEntry kEntries[] = {
    {.name = "alg1",
     .summary = "paper Algorithm 1, staged",
     .uses_delta_est = true,
     .spec = [](std::size_t d) { return SyncPolicySpec::algorithm1(d); },
     .bound = [](const BoundParams& p, const net::Network&) {
       return core::theorem1_slot_bound(p);
     },
     .bound_label = "thm1 slot bound"},
    {.name = "alg2",
     .summary = "paper Algorithm 2, escalating estimate d+=1",
     .spec = [](std::size_t) { return SyncPolicySpec::algorithm2(); },
     .bound = [](const BoundParams& p, const net::Network&) {
       return core::theorem2_slot_bound(p);
     },
     .bound_label = "thm2 slot bound"},
    {.name = "alg2x",
     .summary = "paper Algorithm 2, doubling-estimate ablation",
     .spec = [](std::size_t) {
       return SyncPolicySpec::algorithm2(core::EstimateSchedule::kDouble);
     },
     .bound = [](const BoundParams& p, const net::Network&) {
       return core::theorem2_slot_bound(p);
     },
     .bound_label = "thm2 slot bound (d+=1 schedule)"},
    {.name = "alg3",
     .summary = "paper Algorithm 3, constant probability",
     .uses_delta_est = true,
     .spec = [](std::size_t d) { return SyncPolicySpec::algorithm3(d); },
     .bound = [](const BoundParams& p, const net::Network&) {
       return core::theorem3_slot_bound(p);
     },
     .bound_label = "thm3 slot bound"},
    {.name = "alg4",
     .summary = "paper Algorithm 4, asynchronous frames",
     .uses_delta_est = true,
     .slotted = false,
     .bound = [](const BoundParams& p, const net::Network&) {
       return core::theorem9_frame_bound(p);
     },
     .bound_label = "thm9 frame bound"},
    {.name = "baseline",
     .summary = "universal-channel round-robin strawman",
     .factory = [](std::size_t, net::ChannelId universe) {
       return core::make_universal_baseline(universe, 0.5);
     },
     .bound_label = "(no closed-form bound)"},
    {.name = "deterministic",
     .summary = "TDMA-by-identifier deterministic baseline",
     .factory = [](std::size_t, net::ChannelId universe) {
       return core::make_deterministic_baseline(universe);
     },
     .bound = [](const BoundParams&, const net::Network& network) {
       return static_cast<double>(network.node_count()) *
              network.universe_size();
     },
     .bound_label = "N x |U| sweep (deterministic guarantee)"},
    {.name = "adaptive",
     .summary = "collision-feedback adaptive-degree extension",
     .factory = [](std::size_t, net::ChannelId) {
       return core::make_adaptive();
     },
     .bound_label = "(adaptive; no closed-form bound)"},
    {.name = "mcdis",
     .summary = "competitor Mc-Dis prime-pair duty cycling (arXiv:1307.3630)",
     .factory = [](std::size_t, net::ChannelId) { return core::make_mcdis(); },
     .bound_label = "(competitor Mc-Dis; no closed-form bound)"},
    {.name = "rendezvous",
     .summary = "competitor deterministic blind rendezvous, jump-stay "
                "(arXiv:1401.7313)",
     .factory = [](std::size_t, net::ChannelId) {
       return core::make_blind_rendezvous();
     },
     .bound_label = "(competitor jump-stay; no closed-form bound)"},
    {.name = "consistent-hop",
     .summary = "competitor consistent channel hopping (arXiv:2506.18381)",
     .spec = [](std::size_t) { return SyncPolicySpec::consistent_hop(); },
     .bound_label = "(competitor hop; no closed-form bound)"},
};

}  // namespace

std::span<const AlgorithmEntry> algorithm_registry() { return kEntries; }

const AlgorithmEntry* find_algorithm(std::string_view name) {
  for (const AlgorithmEntry& entry : kEntries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::string describe_algorithm(const AlgorithmEntry& entry,
                               std::size_t delta_est) {
  std::string text =
      std::string(entry.name) + ": " + std::string(entry.summary);
  if (entry.uses_delta_est) {
    text += " (delta_est=" + std::to_string(delta_est) + ")";
  }
  return text;
}

sim::SyncPolicyFactory make_algorithm_factory(const AlgorithmEntry& entry,
                                              std::size_t delta_est,
                                              net::ChannelId universe) {
  if (entry.spec != nullptr) {
    return core::make_policy_factory(entry.spec(delta_est));
  }
  return entry.factory(delta_est, universe);
}

std::string algorithm_names(bool spec_only, std::string_view separator) {
  std::string out;
  for (const AlgorithmEntry& entry : kEntries) {
    if (!entry.slotted || (spec_only && entry.spec == nullptr)) continue;
    if (!out.empty()) out += separator;
    out += entry.name;
  }
  return out;
}

}  // namespace m2hew::runner
