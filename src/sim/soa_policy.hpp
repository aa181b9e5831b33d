// Non-virtual policy-as-data representation consumed by the SoA slot
// kernel (sim/soa_kernel.hpp).
//
// The virtual SyncPolicy objects carry two costs at large N: a heap
// allocation per node and a virtual dispatch per node per slot. For the
// paper's synchronous algorithms the per-slot decision is a pure function
// of (available-set size, position in stage, degree estimate), so a trial
// can instead precompute every transmit probability into a flat matrix and
// step plain per-node counters. This header defines that data layout; the
// table is *built* in src/core (core/policy_spec.hpp), which owns the
// probability formulas — sim never computes a probability itself, it only
// looks them up, so the kernel cannot drift from the oracle policies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/types.hpp"

namespace m2hew::sim {

/// ⌈log₂ d⌉ clamped to ≥ 1 — the stage-length rule. Injected as a plain
/// function pointer by the table builder in core (the formula's one
/// definition, core::stage_length) so the escalating kernel can size new
/// stages without sim depending on core.
using StageLengthFn = unsigned (*)(std::size_t);

/// How a node picks its slot channel. The paper's algorithms draw one
/// uniform channel from A(u); the consistent-hop competitor follows a
/// precomputed deterministic per-node map over a global hop sequence
/// (w_t = local_t mod hop_period) and draws nothing for the channel.
enum class SoaChannelLaw {
  kUniformRandom,   ///< one rng.uniform(|A(u)|) draw per active slot
  kConsistentHop,   ///< hop_map lookup, zero channel draws
};

/// One trial-independent description of a synchronous policy family,
/// shared by every node (per-node variation enters only through the
/// available-set size / per-node constant probability).
struct SoaPolicyTable {
  /// Largest 1-based slot-in-stage index any run can reach:
  /// stage_length(d) = bit_width(d−1) ≤ 64 for any 64-bit estimate.
  static constexpr unsigned kMaxStageSlot = 64;
  /// Escalating estimates saturate here, mirroring Algorithm2Policy.
  static constexpr std::size_t kEstimateCap = std::size_t{1} << 62;

  /// Staged (Algorithm 1/2) vs constant-probability (Algorithm 3) law.
  bool staged = true;
  /// Staged only: the degree estimate grows between stages (Algorithm 2).
  bool escalating = false;
  /// Escalating only: d ← 2d instead of d ← d+1 (the ablation schedule).
  bool escalate_double = false;
  /// Escalating: the estimate every node starts (and resets) at.
  std::size_t initial_estimate = 2;
  /// Staged: slots per stage at trial start, stage_length(estimate).
  unsigned initial_stage_slots = 1;
  /// Escalating only: recomputes the stage length after an estimate bump.
  StageLengthFn stage_length = nullptr;

  /// Staged transmit probabilities p[a][i] = the Algorithm 1 law for
  /// available-set size a (0..max_available) and 1-based slot-in-stage i
  /// (1..kMaxStageSlot), stored row-major with stride kMaxStageSlot + 1.
  /// Filled with the same core function the oracle policies call, so the
  /// doubles are bit-identical.
  std::size_t max_available = 0;
  std::vector<double> p_staged;

  /// Constant law: per-node transmit probability, indexed by node id.
  std::vector<double> p_constant;

  /// Channel selection law; kConsistentHop replaces the uniform draw with
  /// a lookup into `hop_map` at (local-slot mod hop_period), so the
  /// kernel and the oracle policy both make exactly one RNG draw (the
  /// transmit coin) per active slot.
  SoaChannelLaw channel_law = SoaChannelLaw::kUniformRandom;
  /// Consistent hop only: global sequence period (the universe size).
  std::size_t hop_period = 0;
  /// Consistent hop only: node-major map, stride hop_period — entry
  /// [u * hop_period + w] is node u's channel when the global sequence is
  /// at w. Built in core so the remap rule has one definition.
  std::vector<net::ChannelId> hop_map;

  /// Structural validity (not bit-exactness — the equivalence suite pins
  /// that); kernels check this once per trial.
  [[nodiscard]] bool valid(std::size_t node_count) const {
    if (channel_law == SoaChannelLaw::kConsistentHop &&
        (hop_period == 0 || hop_map.size() != node_count * hop_period)) {
      return false;
    }
    if (staged) {
      if (p_staged.size() !=
          (max_available + 1) * (kMaxStageSlot + 1)) {
        return false;
      }
      if (escalating && stage_length == nullptr) return false;
      return initial_stage_slots >= 1;
    }
    return p_constant.size() == node_count;
  }
};

}  // namespace m2hew::sim
