// ChannelSet: a node's available channel set A(u), per §II of the paper.
//
// Implemented as a dynamic bitset with a cached popcount; supports the
// operations the algorithms need: membership, intersection (span
// computation), uniform random sampling (every algorithm selects a channel
// uniformly at random from A(u) each slot/frame), and ordered iteration.
//
// Word-level access (words(), word_count()) and the in-place word-parallel
// kernels (intersect_with/unite_with/subtract_with) exist for the
// structure-of-arrays simulation kernels, which operate on flat copies of
// the underlying words instead of per-channel loops.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/types.hpp"
#include "util/rng.hpp"

namespace m2hew::net {

/// Recoverable misuse of the ChannelSet API: set operations across
/// different universes. Thrown (not aborted) in every build mode so
/// callers composing sets from external inputs — parsers, kernels gluing
/// networks together — can report the offending operation instead of
/// dying, matching the file:line diagnostic style of the INI and network
/// parsers.
class ChannelSetError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class ChannelSet {
 public:
  ChannelSet() = default;

  /// Empty set over a universe of `universe_size` channels (ids
  /// 0..universe_size-1).
  explicit ChannelSet(ChannelId universe_size);

  /// Set containing exactly the given channels.
  ChannelSet(ChannelId universe_size, std::initializer_list<ChannelId> ids);

  /// Full set {0, ..., universe_size-1}.
  [[nodiscard]] static ChannelSet full(ChannelId universe_size);

  /// 64-bit words needed to hold a universe of the given size.
  [[nodiscard]] static constexpr std::size_t word_count(
      ChannelId universe_size) noexcept {
    return (static_cast<std::size_t>(universe_size) + 63) / 64;
  }

  [[nodiscard]] ChannelId universe_size() const noexcept { return universe_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] bool contains(ChannelId c) const noexcept;
  void insert(ChannelId c);
  void erase(ChannelId c);
  void clear() noexcept;

  /// Set intersection; universes must match (throws ChannelSetError).
  [[nodiscard]] ChannelSet intersect(const ChannelSet& other) const;
  /// Set union; universes must match (throws ChannelSetError).
  [[nodiscard]] ChannelSet unite(const ChannelSet& other) const;
  /// Set difference (elements of *this not in other); universes must match
  /// (throws ChannelSetError).
  [[nodiscard]] ChannelSet subtract(const ChannelSet& other) const;

  /// In-place word-parallel kernels: this ∩= / ∪= / −= other, no
  /// allocation. Universes must match (throws ChannelSetError).
  ChannelSet& intersect_with(const ChannelSet& other);
  ChannelSet& unite_with(const ChannelSet& other);
  ChannelSet& subtract_with(const ChannelSet& other);

  /// |this ∩ other| without materializing the intersection.
  [[nodiscard]] std::size_t intersection_size(
      const ChannelSet& other) const noexcept;

  /// Uniformly random member. Requires non-empty. The draw is exactly one
  /// Rng::uniform(size()) — callers relying on draw-order determinism
  /// (docs/EXTENDING.md) can substitute any equally-long representation of
  /// A(u) and keep bit-identical streams.
  [[nodiscard]] ChannelId sample(util::Rng& rng) const;

  /// Members in increasing order.
  [[nodiscard]] std::vector<ChannelId> to_vector() const;

  /// The k-th member in increasing order (0-based). Requires k < size().
  /// Word-skipping: whole words are skipped by popcount, the in-word rank
  /// is resolved byte-wise — O(words + 8), not O(k) bit-clears.
  [[nodiscard]] ChannelId nth(std::size_t k) const;

  /// Raw bitset words, least-significant channel first — the layout of
  /// Network's flat per-arc span table.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  friend bool operator==(const ChannelSet& a, const ChannelSet& b) {
    return a.universe_ == b.universe_ && a.words_ == b.words_;
  }

 private:
  [[nodiscard]] static std::size_t word_index(ChannelId c) noexcept {
    return c >> 6;
  }
  [[nodiscard]] static std::uint64_t bit_mask(ChannelId c) noexcept {
    return 1ULL << (c & 63);
  }
  void check_universe(const ChannelSet& other, const char* op) const;
  void recount() noexcept;

  ChannelId universe_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace m2hew::net
