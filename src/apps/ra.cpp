#include "apps/ra.hpp"

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "core/message_combiner.hpp"
#include "core/cluster_reduce.hpp"

namespace alb::apps {

namespace {

constexpr int kPits = 12;
using Board = std::array<std::int8_t, kPits>;

enum Value : std::int8_t { kUnknown = 0, kWin = 1, kLoss = 2 };
// kUnknown at fixpoint == draw.

/// ways(s, p): distributions of s stones over p pits = C(s+p-1, p-1).
struct Combinatorics {
  // binom[n][k] for n <= stones + kPits.
  std::vector<std::vector<long long>> binom;

  explicit Combinatorics(int max_stones) {
    const int n = max_stones + kPits + 1;
    binom.assign(static_cast<std::size_t>(n), std::vector<long long>(static_cast<std::size_t>(n), 0));
    for (int i = 0; i < n; ++i) {
      binom[static_cast<std::size_t>(i)][0] = 1;
      for (int j = 1; j <= i; ++j) {
        binom[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            binom[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)] +
            binom[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j)];
      }
    }
  }

  long long ways(int stones, int pits) const {
    if (pits == 0) return stones == 0 ? 1 : 0;
    return binom[static_cast<std::size_t>(stones + pits - 1)]
                [static_cast<std::size_t>(pits - 1)];
  }

  long long positions(int stones) const { return ways(stones, kPits); }

  /// Lexicographic rank of `b` among boards with `stones` stones.
  std::uint32_t rank(const Board& b, int stones) const {
    long long r = 0;
    int rem = stones;
    for (int i = 0; i < kPits - 1; ++i) {
      for (int v = 0; v < b[static_cast<std::size_t>(i)]; ++v) {
        r += ways(rem - v, kPits - 1 - i);
      }
      rem -= b[static_cast<std::size_t>(i)];
    }
    return static_cast<std::uint32_t>(r);
  }

  Board unrank(std::uint32_t index, int stones) const {
    Board b{};
    long long r = index;
    int rem = stones;
    for (int i = 0; i < kPits - 1; ++i) {
      int v = 0;
      for (;; ++v) {
        long long w = ways(rem - v, kPits - 1 - i);
        if (r < w) break;
        r -= w;
      }
      b[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(v);
      rem -= v;
    }
    b[kPits - 1] = static_cast<std::int8_t>(rem);
    return b;
  }
};

struct Successor {
  bool capture;
  int stones_after;      // == k when !capture
  std::uint32_t index;   // in the stones_after database
};

bool mover_has_stones(const Board& b) {
  for (int i = 0; i < 6; ++i) {
    if (b[static_cast<std::size_t>(i)] > 0) return true;
  }
  return false;
}

Board flip(const Board& b) {
  Board f{};
  for (int i = 0; i < kPits; ++i) f[static_cast<std::size_t>(i)] = b[(i + 6) % kPits];
  return f;
}

/// All legal successors of `b` (k stones), ranked in their databases.
std::vector<Successor> successors(const Combinatorics& comb, const Board& b, int k) {
  std::vector<Successor> out;
  for (int pit = 0; pit < 6; ++pit) {
    const int c = b[static_cast<std::size_t>(pit)];
    if (c == 0) continue;
    Board n = b;
    n[static_cast<std::size_t>(pit)] = 0;
    for (int j = 1; j <= c; ++j) {
      ++n[static_cast<std::size_t>((pit + j) % kPits)];
    }
    const int last = (pit + c) % kPits;
    int stones_after = k;
    if (last >= 6 && (n[static_cast<std::size_t>(last)] == 2 ||
                      n[static_cast<std::size_t>(last)] == 3)) {
      stones_after = k - n[static_cast<std::size_t>(last)];
      n[static_cast<std::size_t>(last)] = 0;
    }
    Board next = flip(n);
    out.push_back(Successor{stones_after != k, stones_after,
                            comb.rank(next, stones_after)});
  }
  return out;
}

/// Sequential backward induction for one database, given all smaller
/// ones. Returns the value array. Also used for the reference run.
std::vector<std::int8_t> solve_sequential(const Combinatorics& comb, int k,
                                          const std::vector<std::vector<std::int8_t>>& smaller) {
  const auto n = static_cast<std::size_t>(comb.positions(k));
  std::vector<std::int8_t> value(n, kUnknown);
  std::vector<std::int16_t> pending(n, 0);
  std::vector<char> blocked(n, 0);  // has a known non-WIN successor
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::deque<std::uint32_t> queue;

  for (std::uint32_t idx = 0; idx < n; ++idx) {
    Board b = comb.unrank(idx, k);
    if (!mover_has_stones(b)) {
      value[idx] = kLoss;
      queue.push_back(idx);
      continue;
    }
    bool win = false;
    int within = 0;
    bool blk = false;
    for (const Successor& s : successors(comb, b, k)) {
      if (s.capture) {
        std::int8_t v = smaller[static_cast<std::size_t>(s.stones_after)]
                               [s.index];
        if (v == kLoss) win = true;
        else if (v != kWin) blk = true;  // draw successor: cannot be LOSS
      } else {
        ++within;
        preds[s.index].push_back(idx);
      }
    }
    if (win) {
      value[idx] = kWin;
      queue.push_back(idx);
    } else {
      pending[idx] = static_cast<std::int16_t>(within);
      blocked[idx] = blk ? 1 : 0;
      if (within == 0 && !blk) {
        value[idx] = kLoss;
        queue.push_back(idx);
      }
    }
  }

  while (!queue.empty()) {
    std::uint32_t v = queue.front();
    queue.pop_front();
    const std::int8_t val = value[v];
    for (std::uint32_t q : preds[v]) {
      if (value[q] != kUnknown) continue;
      if (val == kLoss) {
        value[q] = kWin;
        queue.push_back(q);
      } else if (val == kWin) {
        if (--pending[q] == 0 && !blocked[q]) {
          value[q] = kLoss;
          queue.push_back(q);
        }
      }
    }
  }
  return value;
}

std::vector<std::vector<std::int8_t>> solve_smaller(const Combinatorics& comb, int k) {
  std::vector<std::vector<std::int8_t>> dbs;
  dbs.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) dbs.push_back(solve_sequential(comb, s, dbs));
  return dbs;
}

RaOutcome tally(const std::vector<std::int8_t>& value) {
  RaOutcome out;
  std::uint64_t h = kHashSeed;
  for (std::int8_t v : value) {
    if (v == kWin) ++out.wins;
    else if (v == kLoss) ++out.losses;
    else ++out.draws;
    h = hash_mix(h, static_cast<std::uint64_t>(v));
  }
  out.value_hash = h;
  return out;
}

}  // namespace

RaOutcome ra_reference(const RaParams& params) {
  Combinatorics comb(params.stones);
  auto smaller = solve_smaller(comb, params.stones);
  return tally(solve_sequential(comb, params.stones, smaller));
}

std::uint64_t ra_checksum(const RaOutcome& o) {
  std::uint64_t h = o.value_hash;
  h = hash_mix(h, static_cast<std::uint64_t>(o.wins));
  h = hash_mix(h, static_cast<std::uint64_t>(o.losses));
  h = hash_mix(h, static_cast<std::uint64_t>(o.draws));
  return h;
}

AppResult run_ra(const AppConfig& cfg, const RaParams& params) {
  Harness h(cfg);
  const int P = cfg.total_procs();
  const int k = params.stones;
  Combinatorics comb(k);
  auto smaller = solve_smaller(comb, k);
  const auto n = static_cast<std::size_t>(comb.positions(k));

  auto owner_of = [P](std::uint32_t idx) {
    return static_cast<int>((static_cast<std::uint64_t>(idx) * 2654435761ull) % P);
  };

  // Each rank's owned positions, ascending.
  std::vector<std::vector<std::uint32_t>> owned(static_cast<std::size_t>(P));
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    owned[static_cast<std::size_t>(owner_of(idx))].push_back(idx);
  }

  // The initialization scan, done on the host before the simulation
  // starts: immediate values, pending counts and predecessor lists of
  // every position, and each rank's count of scanned (movable)
  // positions, which its process charges as simulated scan time.
  // Nothing reads this state before the post-scan barrier, so doing it
  // here leaves the simulation unchanged. Walking ranks in order and
  // each rank's positions in ascending order lists preds[v] by
  // ascending owner rank, then ascending index: the order that fixes
  // which updates are emitted when.
  std::vector<std::int8_t> value(n, kUnknown);
  std::vector<std::int16_t> pending(n, 0);
  std::vector<char> blocked(n, 0);
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::vector<long long> scanned(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    for (std::uint32_t idx : owned[static_cast<std::size_t>(r)]) {
      Board b = comb.unrank(idx, k);
      if (!mover_has_stones(b)) {
        value[idx] = kLoss;
        continue;
      }
      ++scanned[static_cast<std::size_t>(r)];
      bool win = false;
      int within = 0;
      bool blk = false;
      for (const Successor& s : successors(comb, b, k)) {
        if (s.capture) {
          std::int8_t v = smaller[static_cast<std::size_t>(s.stones_after)][s.index];
          if (v == kLoss) win = true;
          else if (v != kWin) blk = true;
        } else {
          ++within;
          preds[s.index].push_back(idx);
        }
      }
      if (win) {
        value[idx] = kWin;
      } else {
        pending[idx] = static_cast<std::int16_t>(within);
        blocked[idx] = blk ? 1 : 0;
        if (within == 0 && !blk) value[idx] = kLoss;
      }
    }
  }

  struct Update {
    std::uint32_t pos;
    std::int8_t val;  // value of the successor that was determined
  };
  std::vector<std::deque<Update>> inbox(static_cast<std::size_t>(P));
  std::vector<long long> processed(static_cast<std::size_t>(P), 0);

  wide::ClusterCombiner<Update>::Options copt;
  copt.item_bytes = 8;
  copt.enabled = cfg.optimized;
  copt.flush_items = static_cast<std::size_t>(params.cluster_batch);
  // Both variants batch per destination node — the paper's baseline RA
  // already performed this classic message combining.
  copt.sender_batch_items = static_cast<std::size_t>(params.node_batch);
  wide::ClusterCombiner<Update> comb_net(
      h.rt, copt, [&](int dst, Update&& u) {
        inbox[static_cast<std::size_t>(dst)].push_back(u);
      });

  AppResult result = h.finish([&, params](orca::Proc& p) -> sim::Task<void> {
    // Emit the determination of `idx` to its predecessors' owners.
    auto emit = [&](std::uint32_t idx) {
      for (std::uint32_t q : preds[idx]) {
        comb_net.send(p, owner_of(q), Update{q, value[idx]});
      }
    };
    // Applies one update; returns any newly determined position.
    auto apply = [&](const Update& u) -> bool {
      if (value[u.pos] != kUnknown) return false;
      if (u.val == kLoss) {
        value[u.pos] = kWin;
        return true;
      }
      if (u.val == kWin) {
        if (--pending[u.pos] == 0 && !blocked[u.pos]) {
          value[u.pos] = kLoss;
          return true;
        }
      }
      return false;
    };

    // The initialization scan's simulated cost (its host work ran in
    // the setup above): one charge per 512 scanned positions, then the
    // remainder, even when it is zero.
    const long long my_scanned = scanned[static_cast<std::size_t>(p.rank)];
    for (long long i = 512; i <= my_scanned; i += 512) {
      co_await p.compute(512 * params.ns_per_position);
    }
    co_await p.compute((my_scanned % 512) * params.ns_per_position);
    co_await h.rt.barrier(p);

    // Seed propagation with my initially-determined positions.
    for (std::uint32_t idx : owned[static_cast<std::size_t>(p.rank)]) {
      if (value[idx] != kUnknown) emit(idx);
    }

    // Propagate until global quiescence.
    for (;;) {
      auto& q = inbox[static_cast<std::size_t>(p.rank)];
      while (!q.empty()) {
        std::size_t batch = std::min<std::size_t>(q.size(), 128);
        for (std::size_t i = 0; i < batch; ++i) {
          Update u = q.front();
          q.pop_front();
          ++processed[static_cast<std::size_t>(p.rank)];
          if (apply(u)) emit(u.pos);
        }
        co_await p.compute(static_cast<long long>(batch) * params.ns_per_update);
      }
      comb_net.flush(p);
      co_await h.rt.barrier(p);
      struct Counts {
        long long sent;
        long long done;
      };
      Counts c = co_await wide::cluster_allreduce<Counts>(
          h.rt, p, 800,
          Counts{static_cast<long long>(comb_net.sent_by(p.rank)),
                 processed[static_cast<std::size_t>(p.rank)]},
          16, [](Counts&& a, const Counts& b) {
            return Counts{a.sent + b.sent, a.done + b.done};
          });
      if (c.sent == c.done) break;
    }
  });

  RaOutcome out = tally(value);
  result.checksum = ra_checksum(out);
  result.metrics["positions"] = static_cast<double>(n);
  result.metrics["wins"] = static_cast<double>(out.wins);
  result.metrics["losses"] = static_cast<double>(out.losses);
  result.metrics["draws"] = static_cast<double>(out.draws);
  result.metrics["combined_msgs"] = static_cast<double>(comb_net.combined_messages());
  return result;
}

}  // namespace alb::apps
