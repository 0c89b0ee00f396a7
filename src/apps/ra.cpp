#include "apps/ra.hpp"

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/message_combiner.hpp"
#include "core/cluster_reduce.hpp"

namespace alb::apps {

detail::RaRanking::RaRanking(int max_stones)
    : width_(static_cast<std::size_t>(max_stones) + 2),
      cum_(static_cast<std::size_t>(kRaPits - 1) * width_ * width_, 0) {
  // ways(s, p): distributions of s stones over p pits = C(s + p - 1, p - 1).
  const int n = max_stones + kRaPits;
  std::vector<std::vector<long long>> binom(static_cast<std::size_t>(n),
                                            std::vector<long long>(static_cast<std::size_t>(n), 0));
  for (std::size_t i = 0; i < binom.size(); ++i) {
    binom[i][0] = 1;
    for (std::size_t j = 1; j <= i; ++j) binom[i][j] = binom[i - 1][j - 1] + binom[i - 1][j];
  }
  auto ways = [&](int stones, int pits) {
    return binom[static_cast<std::size_t>(stones + pits - 1)][static_cast<std::size_t>(pits - 1)];
  };
  for (int s = 0; s <= max_stones; ++s) positions_.push_back(ways(s, kRaPits));
  for (int i = 0; i < kRaPits - 1; ++i) {
    for (int rem = 0; rem <= max_stones; ++rem) {
      long long sum = 0;
      for (int c = 0; c <= rem + 1; ++c) {
        cum_[(static_cast<std::size_t>(i) * width_ + static_cast<std::size_t>(rem)) * width_ +
             static_cast<std::size_t>(c)] = sum;
        if (c <= rem) sum += ways(rem - c, kRaPits - 1 - i);
      }
    }
  }
}

std::uint32_t detail::RaRanking::rank(const RaBoard& b, int stones) const {
  long long r = 0;
  int rem = stones;
  for (int i = 0; i < kRaPits - 1; ++i) {
    const int c = b[static_cast<std::size_t>(i)];
    r += cum(i, rem, c);
    rem -= c;
  }
  return static_cast<std::uint32_t>(r);
}

detail::RaBoard detail::RaRanking::unrank(std::uint32_t index, int stones) const {
  RaBoard b{};
  long long r = index;
  int rem = stones;
  for (int i = 0; i < kRaPits - 1; ++i) {
    int v = 0;
    while (cum(i, rem, v + 1) <= r) ++v;
    r -= cum(i, rem, v);
    b[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(v);
    rem -= v;
  }
  b[kRaPits - 1] = static_cast<std::int8_t>(rem);
  return b;
}

namespace {

constexpr int kPits = detail::kRaPits;
using Board = detail::RaBoard;
using detail::PredLists;
using detail::RaRanking;

enum Value : std::int8_t { kUnknown = 0, kWin = 1, kLoss = 2 };
// kUnknown at fixpoint == draw.

struct Successor {
  bool capture;
  int stones_after;      // == k when !capture
  std::uint32_t index;   // in the stones_after database
};

/// A position has at most one successor per own pit.
using Successors = std::array<Successor, 6>;

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

/// Writes the legal successors of `b` (k stones), ranked in their
/// databases, to `out`; returns how many there are.
int successors(const RaRanking& ranking, const Board& b, int k, Successors& out) {
  int count = 0;
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
    out[static_cast<std::size_t>(count++)] =
        Successor{stones_after != k, stones_after, ranking.rank(flip(n), stones_after)};
  }
  return count;
}

/// One database under construction: values, and for each undecided
/// position its count of undecided within-database successors and
/// whether a known non-WIN (draw) capture successor blocks a LOSS.
/// The scan that fills it runs twice (PredLists counts, then fills);
/// scanning a position again rewrites the same values.
struct Database {
  std::vector<std::int8_t> value;
  std::vector<std::int16_t> pending;
  std::vector<char> blocked;
  PredLists preds;

  explicit Database(std::size_t n) : value(n, kUnknown), pending(n, 0), blocked(n, 0) {}
};

/// The initialization scan of position `idx` of the k-stone database:
/// its immediate value or its pending count and blocked flag, and its
/// within-database successor edges, each passed to edge(idx, succ).
/// Returns false, recording nothing but the LOSS, when the mover has no
/// stones (no moves to generate).
template <class Edge>
bool scan_position(const RaRanking& ranking, int k,
                   const std::vector<std::vector<std::int8_t>>& smaller, std::uint32_t idx,
                   Database& db, const Edge& edge) {
  const Board b = ranking.unrank(idx, k);
  if (!mover_has_stones(b)) {
    db.value[idx] = kLoss;
    return false;
  }
  Successors succ;
  const int count = successors(ranking, b, k, succ);
  bool win = false;
  int within = 0;
  bool blk = false;
  for (int i = 0; i < count; ++i) {
    const Successor& s = succ[static_cast<std::size_t>(i)];
    if (s.capture) {
      const std::int8_t v = smaller[static_cast<std::size_t>(s.stones_after)][s.index];
      if (v == kLoss) win = true;
      else if (v != kWin) blk = true;  // draw successor: cannot be LOSS
    } else {
      ++within;
      edge(idx, s.index);
    }
  }
  if (win) {
    db.value[idx] = kWin;
  } else {
    db.pending[idx] = static_cast<std::int16_t>(within);
    db.blocked[idx] = blk ? 1 : 0;
    if (within == 0 && !blk) db.value[idx] = kLoss;
  }
  return true;
}

/// Applies the news that a within-database successor of `q` was
/// decided as `val`. Returns true when that decides `q`.
bool apply_update(Database& db, std::uint32_t q, std::int8_t val) {
  if (db.value[q] != kUnknown) return false;
  if (val == kLoss) {
    db.value[q] = kWin;
    return true;
  }
  if (val == kWin && --db.pending[q] == 0 && !db.blocked[q]) {
    db.value[q] = kLoss;
    return true;
  }
  return false;
}

/// Sequential backward induction for one database, given all smaller
/// ones. Returns the value array. Also used for the reference run.
std::vector<std::int8_t> solve_sequential(const RaRanking& ranking, int k,
                                          const std::vector<std::vector<std::int8_t>>& smaller) {
  const auto n = static_cast<std::size_t>(ranking.positions(k));
  Database db(n);
  db.preds = PredLists(n, [&](const auto& edge) {
    for (std::uint32_t idx = 0; idx < n; ++idx) scan_position(ranking, k, smaller, idx, db, edge);
  });
  // Every position enters the queue at most once, when it is decided.
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    if (db.value[idx] != kUnknown) queue.push_back(idx);
  }

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t v = queue[head];
    const std::int8_t val = db.value[v];
    for (std::uint32_t q : db.preds[v]) {
      if (apply_update(db, q, val)) queue.push_back(q);
    }
  }
  return std::move(db.value);
}

std::vector<std::vector<std::int8_t>> solve_smaller(const RaRanking& ranking, int k) {
  std::vector<std::vector<std::int8_t>> dbs;
  dbs.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) dbs.push_back(solve_sequential(ranking, s, dbs));
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
  RaRanking ranking(params.stones);
  auto smaller = solve_smaller(ranking, params.stones);
  return tally(solve_sequential(ranking, params.stones, smaller));
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
  RaRanking ranking(k);
  auto smaller = solve_smaller(ranking, k);
  const auto n = static_cast<std::size_t>(ranking.positions(k));

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
  Database db(n);
  std::vector<long long> scanned(static_cast<std::size_t>(P), 0);
  db.preds = PredLists(n, [&](const auto& edge) {
    for (int r = 0; r < P; ++r) {
      long long movable = 0;
      for (std::uint32_t idx : owned[static_cast<std::size_t>(r)]) {
        movable += scan_position(ranking, k, smaller, idx, db, edge) ? 1 : 0;
      }
      scanned[static_cast<std::size_t>(r)] = movable;
    }
  });

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
      for (std::uint32_t q : db.preds[idx]) {
        comb_net.send(p, owner_of(q), Update{q, db.value[idx]});
      }
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
      if (db.value[idx] != kUnknown) emit(idx);
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
          if (apply_update(db, u.pos, u.val)) emit(u.pos);
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

  RaOutcome out = tally(db.value);
  result.checksum = ra_checksum(out);
  result.metrics["positions"] = static_cast<double>(n);
  result.metrics["wins"] = static_cast<double>(out.wins);
  result.metrics["losses"] = static_cast<double>(out.losses);
  result.metrics["draws"] = static_cast<double>(out.draws);
  result.metrics["combined_msgs"] = static_cast<double>(comb_net.combined_messages());
  return result;
}

}  // namespace alb::apps
