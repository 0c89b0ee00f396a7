#include "apps/sor.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "core/cluster_reduce.hpp"

namespace alb::apps {

namespace {

constexpr int kTagFromBelow = 11;  // carries the sender's top row upward
constexpr int kTagFromAbove = 12;  // carries the sender's bottom row downward

using RowVec = std::vector<double>;

/// Interior rows are 1..rows; rows 0 and rows+1 are fixed boundaries
/// (hot top wall), columns 0 and cols+1 fixed at zero.
struct Grid {
  int rows, cols;
  std::vector<RowVec> cell;

  Grid(int r, int c) : rows(r), cols(c), cell(static_cast<std::size_t>(r) + 2) {
    for (auto& row : cell) row.assign(static_cast<std::size_t>(c) + 2, 0.0);
    for (int j = 0; j <= c + 1; ++j) cell[0][static_cast<std::size_t>(j)] = 100.0;
  }
};

struct SweepResult {
  double max_change = 0;
  long long cells = 0;
};

/// Relaxes the cells of `colour` in rows [lo, hi] of `g`, reading
/// vertical neighbours through `above`/`below` when a row borders the
/// block (ghost rows hold the neighbour block's boundary row; null means
/// the true grid boundary row is used).
SweepResult sweep(Grid& g, int lo, int hi, int colour, const RowVec* above,
                  const RowVec* below, double omega) {
  SweepResult r;
  for (int i = lo; i <= hi; ++i) {
    const RowVec& up = (i == lo && above) ? *above : g.cell[static_cast<std::size_t>(i) - 1];
    const RowVec& down =
        (i == hi && below) ? *below : g.cell[static_cast<std::size_t>(i) + 1];
    RowVec& row = g.cell[static_cast<std::size_t>(i)];
    for (int j = 1 + (i + 1 + colour) % 2; j <= g.cols; j += 2) {
      const double old = row[static_cast<std::size_t>(j)];
      const double next =
          (1.0 - omega) * old +
          omega * 0.25 *
              (up[static_cast<std::size_t>(j)] + down[static_cast<std::size_t>(j)] +
               row[static_cast<std::size_t>(j) - 1] + row[static_cast<std::size_t>(j) + 1]);
      row[static_cast<std::size_t>(j)] = next;
      r.max_change = std::max(r.max_change, std::fabs(next - old));
      ++r.cells;
    }
  }
  return r;
}

std::uint64_t grid_hash(const Grid& g) {
  std::uint64_t h = kHashSeed;
  for (int i = 1; i <= g.rows; ++i) {
    for (int j = 1; j <= g.cols; ++j) {
      h = hash_mix(h, static_cast<std::uint64_t>(std::llround(
                          g.cell[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                          1e8)));
    }
  }
  return h;
}

struct BlockPartition {
  int rows, procs;
  int lo(int rank) const {
    return 1 + static_cast<int>(static_cast<long long>(rank) * rows / procs);
  }
  int hi(int rank) const { return lo(rank + 1) - 1; }  // inclusive
};

}  // namespace

SorOutcome sor_reference(const SorParams& params, std::uint64_t) {
  Grid g(params.rows, params.cols);
  SorOutcome out;
  const int limit =
      params.fixed_iterations > 0 ? params.fixed_iterations : params.max_iterations;
  for (int it = 0; it < limit; ++it) {
    double change = 0;
    for (int colour = 0; colour < 2; ++colour) {
      SweepResult r = sweep(g, 1, params.rows, colour, nullptr, nullptr, params.omega);
      change = std::max(change, r.max_change);
    }
    out.iterations = it + 1;
    out.final_residual = change;
    if (params.fixed_iterations == 0 && change < params.tolerance) break;
  }
  out.grid_hash = grid_hash(g);
  return out;
}

std::uint64_t sor_checksum(const SorOutcome& o) {
  std::uint64_t h = o.grid_hash;
  h = hash_mix(h, static_cast<std::uint64_t>(o.iterations));
  return h;
}

AppResult run_sor(const AppConfig& cfg, const SorParams& params) {
  Harness h(cfg);
  const int P = cfg.total_procs();
  assert(params.rows >= P && "each process needs at least one row");

  const SorVariant variant = params.variant.value_or(
      cfg.optimized ? SorVariant::kChaotic : SorVariant::kOriginal);

  Grid grid(params.rows, params.cols);
  const BlockPartition part{params.rows, P};
  const std::size_t row_bytes = static_cast<std::size_t>(params.cols + 2) * 8;
  SorOutcome out;

  AppResult result = h.finish([&, params, variant](orca::Proc& p) -> sim::Task<void> {
    const int lo = part.lo(p.rank);
    const int hi = part.hi(p.rank);
    const int up = p.rank > 0 ? p.rank - 1 : -1;
    const int down = p.rank < P - 1 ? p.rank + 1 : -1;
    // Ghost copies of the neighbour blocks' boundary rows. Initialized
    // from the initial grid (all parties agree at iteration 0).
    RowVec ghost_above = up >= 0 ? grid.cell[static_cast<std::size_t>(lo) - 1] : RowVec{};
    RowVec ghost_below = down >= 0 ? grid.cell[static_cast<std::size_t>(hi) + 1] : RowVec{};

    auto edge_active = [&](int neighbour, int iteration) {
      if (neighbour < 0) return false;
      if (variant != SorVariant::kChaotic) return true;
      if (p.same_cluster(neighbour)) return true;
      // Chaotic relaxation: one intercluster exchange per period.
      return iteration % params.chaotic_period == 0;
    };

    const int limit =
        params.fixed_iterations > 0 ? params.fixed_iterations : params.max_iterations;
    for (int it = 0; it < limit; ++it) {
      double change = 0;
      for (int colour = 0; colour < 2; ++colour) {
        const bool ex_up = edge_active(up, it);
        const bool ex_down = edge_active(down, it);
        // Post boundary rows to the neighbours.
        if (ex_up) {
          h.rt.send_data(p, up, kTagFromBelow, row_bytes,
                         net::make_payload<RowVec>(grid.cell[static_cast<std::size_t>(lo)]));
        }
        if (ex_down) {
          h.rt.send_data(p, down, kTagFromAbove, row_bytes,
                         net::make_payload<RowVec>(grid.cell[static_cast<std::size_t>(hi)]));
        }
        SweepResult interior{};
        if (variant == SorVariant::kSplitPhase && hi - lo >= 2) {
          // Latency hiding: relax the ghost-independent rows first.
          interior = sweep(grid, lo + 1, hi - 1, colour, nullptr, nullptr, params.omega);
          co_await p.compute(interior.cells * params.ns_per_cell);
        }
        if (ex_up) {
          net::Message m = co_await h.rt.recv_data(p, kTagFromAbove);
          ghost_above = net::payload_as<RowVec>(m);
        }
        if (ex_down) {
          net::Message m = co_await h.rt.recv_data(p, kTagFromBelow);
          ghost_below = net::payload_as<RowVec>(m);
        }
        const RowVec* ga = up >= 0 ? &ghost_above : nullptr;
        const RowVec* gb = down >= 0 ? &ghost_below : nullptr;
        SweepResult r;
        if (variant == SorVariant::kSplitPhase && hi - lo >= 2) {
          SweepResult top = sweep(grid, lo, lo, colour, ga, nullptr, params.omega);
          SweepResult bottom = sweep(grid, hi, hi, colour, nullptr, gb, params.omega);
          r.max_change = std::max({interior.max_change, top.max_change, bottom.max_change});
          r.cells = top.cells + bottom.cells;
        } else {
          r = sweep(grid, lo, hi, colour, ga, gb, params.omega);
        }
        co_await p.compute(r.cells * params.ns_per_cell);
        change = std::max(change, r.max_change);
      }
      double global = co_await wide::cluster_allreduce<double>(
          h.rt, p, 1000, change, 8,
          [](double&& a, const double& b) { return std::max(a, b); });
      if (p.rank == 0) {
        out.iterations = it + 1;
        out.final_residual = global;
      }
      if (params.fixed_iterations == 0 && global < params.tolerance) break;
    }
  });

  out.grid_hash = grid_hash(grid);
  result.checksum = sor_checksum(out);
  result.metrics["iterations"] = out.iterations;
  result.metrics["residual"] = out.final_residual;
  return result;
}

}  // namespace alb::apps
