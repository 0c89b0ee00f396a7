#pragma once
// Retrograde Analysis (§4.5) — end-game database construction for a
// simplified Awari-style sowing game.
//
// Board: 12 pits, the side to move owns pits 0-5. A move picks a
// non-empty own pit and sows its stones counterclockwise one per pit; if
// the last stone lands in an opponent pit bringing it to 2 or 3 stones,
// those stones are captured (leaving a position with fewer stones, whose
// value comes from the smaller database). A player whose pits are all
// empty cannot move and loses. (Single-capture only and no origin-skip —
// a documented simplification of full Awari; the combinatorial structure
// and the irregular communication pattern are preserved.)
//
// The k-stone database is computed by parallel backward induction:
// positions are hash-partitioned over the processes; when a position's
// value becomes known, update messages flow to the owners of its
// predecessors — many small asynchronous messages to unpredictable
// destinations, the paper's RA pattern. Smaller databases (k' < k) are
// precomputed sequentially at setup, as the paper's program had them on
// disk.
//
// Original: updates are batched per *destination node* (the message
// combining the paper's baseline RA already performed).
// Optimized: updates are additionally combined per *cluster* through a
// relay (§4.5's cluster-level message combining).

#include <array>
#include <span>
#include <vector>

#include "apps/app.hpp"

namespace alb::apps {

struct RaParams {
  int stones = 8;
  /// Per-destination-node batch size of the baseline program.
  int node_batch = 4;
  /// Relay flush threshold (items) of the optimized program.
  int cluster_batch = 256;
  /// Simulated cost of generating one position's moves.
  sim::SimTime ns_per_position = 20000;
  /// Simulated cost of processing one update message.
  sim::SimTime ns_per_update = 4000;

  static RaParams bench_default() { return {}; }
};

struct RaOutcome {
  long long wins = 0;
  long long losses = 0;
  long long draws = 0;
  std::uint64_t value_hash = 0;
};

RaOutcome ra_reference(const RaParams& params);
std::uint64_t ra_checksum(const RaOutcome& o);

AppResult run_ra(const AppConfig& cfg, const RaParams& params);

namespace detail {

inline constexpr int kRaPits = 12;
/// Stones per pit; pits 0-5 belong to the side to move.
using RaBoard = std::array<std::int8_t, kRaPits>;

/// Lexicographic ranking of the boards holding a given number of stones,
/// up to `max_stones`. Both directions read one flat table of cumulative
/// counts: cum(i, rem, c) is the number of boards whose pits before i
/// match and whose pit i holds fewer than c of the `rem` stones left.
class RaRanking {
 public:
  explicit RaRanking(int max_stones);

  /// Boards with `stones` stones: C(stones + 11, 11).
  long long positions(int stones) const {
    return positions_[static_cast<std::size_t>(stones)];
  }
  std::uint32_t rank(const RaBoard& b, int stones) const;
  RaBoard unrank(std::uint32_t index, int stones) const;

 private:
  long long cum(int pit, int rem, int c) const {
    return cum_[(static_cast<std::size_t>(pit) * width_ + static_cast<std::size_t>(rem)) *
                    width_ +
                static_cast<std::size_t>(c)];
  }

  std::size_t width_;  // max_stones + 2: rem in [0, max], c in [0, rem + 1]
  std::vector<long long> cum_;
  std::vector<long long> positions_;
};

/// Within-database predecessor lists in compressed sparse row form: the
/// predecessors of position v are one contiguous run of a flat list, in
/// the order their edges were found (that order fixes when the parallel
/// program emits its updates, and with it every trace_hash).
class PredLists {
 public:
  PredLists() = default;

  /// Builds the lists over positions [0, n). `edges(sink)` must call
  /// sink(pred, succ) once per edge, in the same order each time it is
  /// called: once to count every list's length, once to fill the list,
  /// which is allocated once at its exact size.
  template <class Edges>
  PredLists(std::size_t n, const Edges& edges) : offset_(n + 1, 0) {
    edges([&](std::uint32_t, std::uint32_t succ) { ++offset_[succ + 1]; });
    for (std::size_t v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
    list_.resize(offset_[n]);
    // offset_[v] is v's next free slot while filling, so it ends at the
    // start of v + 1's list; shifting by one restores the starts.
    edges([&](std::uint32_t pred, std::uint32_t succ) { list_[offset_[succ]++] = pred; });
    for (std::size_t v = n; v > 0; --v) offset_[v] = offset_[v - 1];
    offset_[0] = 0;
  }

  std::span<const std::uint32_t> operator[](std::uint32_t v) const {
    return {list_.data() + offset_[v], list_.data() + offset_[v + 1]};
  }

 private:
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> list_;
};

}  // namespace detail

}  // namespace alb::apps
