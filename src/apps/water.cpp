#include "apps/water.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/cluster_reduce.hpp"
#include "sim/rng.hpp"

namespace alb::apps {

namespace {

/// 48.16 fixed-point force component: exact (associative) accumulation.
using Fixed = long long;
constexpr double kFixedScale = 65536.0;

struct Vec3 {
  double x = 0, y = 0, z = 0;
};

struct Molecule {
  Vec3 pos;
  Vec3 vel;
};

using Block = std::vector<Vec3>;                       // shipped positions
using ForceUpdate = std::vector<std::array<Fixed, 3>>;  // per-molecule forces

std::vector<Molecule> generate_molecules(int n, std::uint64_t seed) {
  std::vector<Molecule> m(static_cast<std::size_t>(n));
  sim::Rng rng(seed);
  for (auto& mol : m) {
    mol.pos = {rng.uniform() * 10.0, rng.uniform() * 10.0, rng.uniform() * 10.0};
    mol.vel = {rng.uniform() - 0.5, rng.uniform() - 0.5, rng.uniform() - 0.5};
  }
  return m;
}

/// One process's own molecules as struct-of-arrays, the layout the row
/// kernel reads, with a fixed-point force accumulator per molecule and
/// component. Built once per step; every block the process computes
/// against runs its molecules as rows over this one.
struct OwnBlock {
  std::vector<double> x, y, z;
  std::vector<Fixed> fx, fy, fz;

  OwnBlock(const std::vector<Molecule>& mols, std::size_t lo, std::size_t hi)
      : fx(hi - lo, 0), fy(hi - lo, 0), fz(hi - lo, 0) {
    x.reserve(hi - lo);
    y.reserve(hi - lo);
    z.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      x.push_back(mols[i].pos.x);
      y.push_back(mols[i].pos.y);
      z.push_back(mols[i].pos.z);
    }
  }

  std::size_t size() const { return x.size(); }

  /// The pair forces on the molecule at `a` from the own molecules from
  /// `first` on; adds the opposite forces to theirs.
  detail::RowForce row(double ax, double ay, double az, std::size_t first) {
    return detail::pair_row(ax, ay, az, x.data() + first, y.data() + first, z.data() + first,
                            size() - first, fx.data() + first, fy.data() + first,
                            fz.data() + first);
  }

  /// Internal pairs. Returns the number of pairs evaluated.
  long long self_forces() {
    for (std::size_t i = 0; i < size(); ++i) {
      const detail::RowForce r = row(x[i], y[i], z[i], i + 1);
      fx[i] += r.x;
      fy[i] += r.y;
      fz[i] += r.z;
    }
    const auto n = static_cast<long long>(size());
    return n * (n - 1) / 2;
  }

  /// Pairs with a distinct block `b`: adds the forces on b's molecules
  /// to `fb` (pair forces are exactly antisymmetric, so computing them
  /// from b's side gives the same values). Returns the number of pairs.
  long long pair_forces(const Block& b, ForceUpdate& fb) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      const detail::RowForce r = row(b[j].x, b[j].y, b[j].z, 0);
      fb[j][0] += r.x;
      fb[j][1] += r.y;
      fb[j][2] += r.z;
    }
    return static_cast<long long>(size()) * static_cast<long long>(b.size());
  }

  /// The accumulated forces on the own molecules.
  ForceUpdate forces() const {
    ForceUpdate f(size());
    for (std::size_t i = 0; i < size(); ++i) f[i] = {fx[i], fy[i], fz[i]};
    return f;
  }
};

void integrate(std::vector<Molecule>& mols, std::size_t lo, std::size_t hi,
               const ForceUpdate& f) {
  constexpr double dt = 0.005;
  for (std::size_t i = lo; i < hi; ++i) {
    Molecule& m = mols[i];
    const auto& fi = f[i - lo];
    m.vel.x += static_cast<double>(fi[0]) / kFixedScale * dt;
    m.vel.y += static_cast<double>(fi[1]) / kFixedScale * dt;
    m.vel.z += static_cast<double>(fi[2]) / kFixedScale * dt;
    m.pos.x += m.vel.x * dt;
    m.pos.y += m.vel.y * dt;
    m.pos.z += m.vel.z * dt;
  }
}

std::uint64_t trajectory_checksum(const std::vector<Molecule>& mols) {
  std::uint64_t h = kHashSeed;
  for (const auto& m : mols) {
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(m.pos.x * 1e6)));
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(m.pos.y * 1e6)));
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(m.pos.z * 1e6)));
  }
  return h;
}

struct ShellPartition {
  int n, procs;
  std::size_t lo(int rank) const {
    return static_cast<std::size_t>(static_cast<long long>(rank) * n / procs);
  }
  std::size_t hi(int rank) const { return lo(rank + 1); }

  /// Remote blocks this rank computes pair forces against (half-shell).
  std::vector<int> shell(int rank) const {
    std::vector<int> js;
    if (procs == 1) return js;
    const int half = procs / 2;
    const int reach = (procs - 1) / 2;
    for (int m = 1; m <= reach; ++m) js.push_back((rank + m) % procs);
    if (procs % 2 == 0 && rank < half) {
      js.push_back((rank + half) % procs);  // split the antipodal pairs
    }
    return js;
  }
};

Block snapshot(const std::vector<Molecule>& mols, std::size_t lo, std::size_t hi) {
  Block b;
  b.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) b.push_back(mols[i].pos);
  return b;
}

}  // namespace

/// Softened inverse-square pair force on `a` from each `b`, quantized to
/// fixed point so the value is identical no matter which process
/// computes it. The molecules are summed as integers, so the order of
/// the lanes does not matter, and every operation is IEEE-exact (no
/// FMA, see DESIGN.md §5 item 6), so the AVX2 and baseline clones agree.
/// The softening keeps r2 >= 0.1, so sqrt and the divide never see a
/// value that would set errno or trap.
ALB_KERNEL_CLONES detail::RowForce detail::pair_row(double ax, double ay, double az,
                                                    const double* __restrict bx,
                                                    const double* __restrict by,
                                                    const double* __restrict bz,
                                                    std::size_t m, long long* __restrict fx,
                                                    long long* __restrict fy,
                                                    long long* __restrict fz) {
  long long sx = 0, sy = 0, sz = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double dx = bx[j] - ax;
    const double dy = by[j] - ay;
    const double dz = bz[j] - az;
    const double r2 = dx * dx + dy * dy + dz * dz + 0.1;  // softening
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    const long long qx = round_half_away(dx * inv * kFixedScale);
    const long long qy = round_half_away(dy * inv * kFixedScale);
    const long long qz = round_half_away(dz * inv * kFixedScale);
    sx += qx;
    sy += qy;
    sz += qz;
    fx[j] -= qx;
    fy[j] -= qy;
    fz[j] -= qz;
  }
  return {sx, sy, sz};
}

std::uint64_t water_reference_checksum(const WaterParams& params, std::uint64_t seed) {
  auto mols = generate_molecules(params.molecules, seed);
  const std::size_t n = mols.size();
  for (int step = 0; step < params.steps; ++step) {
    OwnBlock all(mols, 0, n);
    all.self_forces();
    integrate(mols, 0, n, all.forces());
  }
  return trajectory_checksum(mols);
}

AppResult run_water(const AppConfig& cfg, const WaterParams& params) {
  Harness h(cfg);
  const int P = cfg.total_procs();
  auto mols = std::make_shared<std::vector<Molecule>>(
      generate_molecules(params.molecules, cfg.seed));
  const ShellPartition part{params.molecules, P};

  const std::size_t block_bytes =
      params.bytes_per_molecule *
      (static_cast<std::size_t>(params.molecules) / static_cast<std::size_t>(P) + 1);
  const bool use_cache = params.use_cache.value_or(cfg.optimized);
  const bool use_reducer = params.use_reducer.value_or(cfg.optimized);
  wide::ClusterCache<Block> cache(h.rt, block_bytes, use_cache);

  // Incoming force contributions per owner per step parity: owner-side
  // accumulation plus a latch the owner waits on.
  struct Incoming {
    ForceUpdate forces;
    int received = 0;
    sim::Future<> complete;
    int expected = 0;
    explicit Incoming(sim::Engine& eng) : complete(eng) {}
  };
  std::vector<std::map<std::uint64_t, std::unique_ptr<Incoming>>> incoming(
      static_cast<std::size_t>(P));

  // Epoch encoding for contributions: step * P + owner would conflate;
  // use step directly (one reduction per (owner, step)).
  struct Contribution {
    std::uint64_t step;
    ForceUpdate forces;
  };

  auto get_incoming = [&](int owner, std::uint64_t step) -> Incoming& {
    auto& m = incoming[static_cast<std::size_t>(owner)];
    auto it = m.find(step);
    if (it == m.end()) {
      auto inc = std::make_unique<Incoming>(h.eng);
      inc->forces.assign(part.hi(owner) - part.lo(owner), {0, 0, 0});
      it = m.emplace(step, std::move(inc)).first;
    }
    return *it->second;
  };

  auto apply_contribution = [&](int owner, Contribution&& c) {
    Incoming& inc = get_incoming(owner, c.step);
    for (std::size_t i = 0; i < c.forces.size(); ++i) {
      inc.forces[i][0] += c.forces[i][0];
      inc.forces[i][1] += c.forces[i][1];
      inc.forces[i][2] += c.forces[i][2];
    }
    ++inc.received;
    if (inc.expected > 0 && inc.received == inc.expected) inc.complete.set_value();
  };

  wide::ClusterReducer<Contribution> reducer(
      h.rt, block_bytes,
      [](Contribution&& a, const Contribution& b) {
        for (std::size_t i = 0; i < a.forces.size(); ++i) {
          a.forces[i][0] += b.forces[i][0];
          a.forces[i][1] += b.forces[i][1];
          a.forces[i][2] += b.forces[i][2];
        }
        return std::move(a);
      },
      [&](int owner, Contribution&& c) { apply_contribution(owner, std::move(c)); },
      use_reducer);

  // in_shell[c][j]: how many processes in cluster c have block j in
  // their shell. The shells are static, so this is counted once here.
  const net::Topology& topo = h.net.topology();
  std::vector<std::vector<int>> in_shell(static_cast<std::size_t>(cfg.clusters),
                                         std::vector<int>(static_cast<std::size_t>(P), 0));
  for (int r = 0; r < P; ++r) {
    auto& row = in_shell[static_cast<std::size_t>(topo.cluster_of(r))];
    for (int j : part.shell(r)) ++row[static_cast<std::size_t>(j)];
  }
  // Expected contributions at each owner: one per process with it in
  // shell (original), or, with the cluster reducer, one per process of
  // the owner's own cluster plus one merged contribution per other
  // cluster that has it in shell.
  std::vector<int> expected(static_cast<std::size_t>(P), 0);
  for (int j = 0; j < P; ++j) {
    const net::ClusterId own = topo.cluster_of(j);
    for (int c = 0; c < cfg.clusters; ++c) {
      const int n = in_shell[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)];
      expected[static_cast<std::size_t>(j)] += use_reducer && c != own ? std::min(n, 1) : n;
    }
  }

  AppResult result = h.finish([&, params](orca::Proc& p) -> sim::Task<void> {
    const std::size_t my_lo = part.lo(p.rank);
    const std::size_t my_hi = part.hi(p.rank);
    const std::vector<int> shell = part.shell(p.rank);
    const std::vector<int>& my_cluster_in_shell = in_shell[static_cast<std::size_t>(p.cluster())];

    for (int step = 0; step < params.steps; ++step) {
      const auto e = static_cast<std::uint64_t>(step);
      // Publish current positions for this step.
      cache.publish(p, e, std::make_shared<const Block>(snapshot(*mols, my_lo, my_hi)));

      // Arm this step's latch with the contributions it waits for.
      {
        Incoming& inc = get_incoming(p.rank, e);
        inc.expected = expected[static_cast<std::size_t>(p.rank)];
        if (inc.expected == 0 || inc.received == inc.expected) inc.complete.set_value();
      }

      // Phase 1 — gather: fetch every shell block ("every processor
      // gets the positions of the next p/2 processors", §4.1). The
      // original program's RPCs are synchronous, so the fetches are
      // sequential — on a multicluster that is p/2 WAN roundtrips,
      // which is precisely what the cluster cache collapses.
      std::vector<std::shared_ptr<const Block>> blocks;
      blocks.reserve(shell.size());
      for (int j : shell) {
        blocks.push_back(co_await cache.fetch(p, j, e));
      }

      // Phase 2 — compute all pair forces.
      OwnBlock mine(*mols, my_lo, my_hi);
      long long pairs = mine.self_forces();
      std::vector<ForceUpdate> outgoing;
      outgoing.reserve(shell.size());
      for (std::size_t s = 0; s < shell.size(); ++s) {
        ForceUpdate theirs(blocks[s]->size(), {0, 0, 0});
        pairs += mine.pair_forces(*blocks[s], theirs);
        outgoing.push_back(std::move(theirs));
      }
      ForceUpdate my_forces = mine.forces();
      co_await p.compute(pairs * params.ns_per_pair);

      // Phase 3 — scatter: send the opposite forces back to the owners.
      for (std::size_t s = 0; s < shell.size(); ++s) {
        const int j = shell[s];
        const int expected_from_my_cluster =
            use_reducer ? my_cluster_in_shell[static_cast<std::size_t>(j)] : 1;
        Contribution contribution{e, std::move(outgoing[s])};
        co_await reducer.contribute(p, j, e, std::move(contribution),
                                    expected_from_my_cluster);
      }

      // Wait for every contribution to my block, then integrate.
      Incoming& inc = get_incoming(p.rank, e);
      co_await inc.complete;
      for (std::size_t i = 0; i < my_forces.size(); ++i) {
        my_forces[i][0] += inc.forces[i][0];
        my_forces[i][1] += inc.forces[i][1];
        my_forces[i][2] += inc.forces[i][2];
      }
      integrate(*mols, my_lo, my_hi, my_forces);
      co_await p.compute(static_cast<long long>(my_hi - my_lo) * params.ns_per_integration);
      incoming[static_cast<std::size_t>(p.rank)].erase(e);

      // Step barrier: nobody may publish step e+1 positions before all
      // readers of step e are done... handled by epoch-keyed publishes,
      // but the original program synchronizes here too.
      co_await h.rt.barrier(p);
    }
  });

  result.checksum = trajectory_checksum(*mols);
  result.metrics["molecules"] = params.molecules;
  return result;
}

}  // namespace alb::apps
