#include "apps/asp.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "sim/rng.hpp"

namespace alb::apps {

namespace {

/// Heaviest edge of a generated graph.
constexpr int kMaxWeight = 1000;

/// A distance fits in 16 bits: a cell starts at most kMaxWeight and only
/// shrinks, and the relaxation adds two cells. Half the width of an int
/// doubles the cells per vector op and halves the bytes each pass over
/// the matrix moves.
using Dist = std::int16_t;
static_assert(2 * kMaxWeight <= std::numeric_limits<Dist>::max());
using Row = std::vector<Dist>;

std::vector<Row> generate_matrix(int n, std::uint64_t seed) {
  std::vector<Row> d(static_cast<std::size_t>(n), Row(static_cast<std::size_t>(n)));
  sim::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          i == j ? 0 : static_cast<Dist>(rng.uniform_int(1, kMaxWeight));
    }
  }
  return d;
}

std::uint64_t matrix_checksum(const std::vector<Row>& d) {
  std::uint64_t h = kHashSeed;
  for (const Row& r : d) {
    for (Dist v : r) h = hash_mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

/// Relaxes rows [lo, hi) of `d` against pivot row k. Returns the number
/// of cells touched (the work measure).
///
/// The store is unconditional so the inner loop vectorizes: min() keeps
/// a cell as it was wherever a conditional `via < ri[j]` store would
/// have skipped it. The AVX2 clone relaxes 16 cells per `vpminsw`, the
/// baseline SSE2 one 8 per `pminsw`.
ALB_KERNEL_CLONES long long relax_block(std::vector<Row>& d, int lo, int hi, int k,
                                        const Row& row_k) {
  const std::size_t n = row_k.size();
  const Dist* rk = row_k.data();
  for (int i = lo; i < hi; ++i) {
    Dist* ri = d[static_cast<std::size_t>(i)].data();
    const Dist dik = ri[k];
    for (std::size_t j = 0; j < n; ++j) {
      ri[j] = std::min(ri[j], static_cast<Dist>(dik + rk[j]));
    }
  }
  return static_cast<long long>(hi - lo) * static_cast<long long>(n);
}

/// The replicated row collection. Rows are stored by shared_ptr so the
/// 60 replicas share one buffer per row (the network charge is the row
/// size; the in-memory sharing is just simulator economy).
struct RowBoard {
  std::map<int, std::shared_ptr<const Row>> rows;
};

struct BlockPartition {
  int n, procs;
  int lo(int rank) const {
    long long nn = n, p = procs;
    return static_cast<int>(rank * nn / p);
  }
  int hi(int rank) const { return lo(rank + 1); }
  int owner(int row) const {
    // Inverse of the balanced block partition.
    int guess = static_cast<int>(static_cast<long long>(row) * procs / n);
    while (lo(guess) > row) --guess;
    while (hi(guess) <= row) ++guess;
    return guess;
  }
};

}  // namespace

std::uint64_t asp_reference_checksum(const AspParams& params, std::uint64_t seed) {
  auto d = generate_matrix(params.nodes, seed);
  const int n = params.nodes;
  for (int k = 0; k < n; ++k) {
    Row row_k = d[static_cast<std::size_t>(k)];
    relax_block(d, 0, n, k, row_k);
  }
  return matrix_checksum(d);
}

AppResult run_asp(const AppConfig& cfg, const AspParams& params) {
  orca::Runtime::Config rtc;
  if (params.sequencer) {
    rtc.sequencer = params.sequencer;
    rtc.migrate_threshold = 1;
  } else if (cfg.optimized) {
    rtc.sequencer = orca::SequencerKind::Migrating;
    rtc.migrate_threshold = 1;
  }
  Harness h(cfg, rtc);

  const int n = params.nodes;
  const int P = cfg.total_procs();
  auto matrix = std::make_shared<std::vector<Row>>(generate_matrix(n, cfg.seed));
  auto board = orca::create_replicated<RowBoard>(h.rt, RowBoard{});
  const BlockPartition part{n, P};
  // The paper's program ships 4-byte ints; the 16-bit cells are host economy.
  const std::size_t row_bytes = static_cast<std::size_t>(n) * 4;

  AppResult result = h.finish([&](orca::Proc& p) -> sim::Task<void> {
    const int my_lo = part.lo(p.rank);
    const int my_hi = part.hi(p.rank);
    bool hinted = false;
    for (int k = 0; k < n; ++k) {
      const int owner = part.owner(k);
      std::shared_ptr<const Row> row_k;
      if (owner == p.rank) {
        // My row: broadcast it to everyone, then use it directly.
        const bool migrating =
            (params.sequencer && *params.sequencer == orca::SequencerKind::Migrating) ||
            (!params.sequencer && cfg.optimized);
        if (migrating && !hinted) {
          // One hint per block: pull the sequencer here before the
          // first of my broadcasts (§4.3).
          h.rt.sequencer().hint_migrate(p.node);
          hinted = true;
        }
        auto mine = std::make_shared<const Row>((*matrix)[static_cast<std::size_t>(k)]);
        // Named + moved: the lambda owns a shared_ptr, so it must not be
        // materialized inline in the co_await expression (see task.hpp).
        auto publish_row = [k, mine](RowBoard& b) { b.rows.emplace(k, mine); };
        co_await board.write(p, row_bytes, std::move(publish_row));
        row_k = mine;
      } else {
        co_await board.wait_until(
            p, [k](const RowBoard& b) { return b.rows.count(k) != 0; });
        row_k = board.read(p, [k](const RowBoard& b) { return b.rows.at(k); });
      }
      long long cells = relax_block(*matrix, my_lo, my_hi, k, *row_k);
      co_await p.compute(cells * params.ns_per_cell);
    }
  });

  result.checksum = matrix_checksum(*matrix);
  result.metrics["iterations"] = n;
  return result;
}

}  // namespace alb::apps
