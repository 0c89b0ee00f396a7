// Deep correctness checks of the application kernels against
// *independent* oracles (not just the shared sequential reference):
// brute force, mathematical invariants, and game-theoretic properties.
//
// The host kernels may be rewritten freely as long as the modeled work
// counts stay the same (DESIGN.md, "Host kernels"). The equivalence
// tests below keep the straightforward scalar ATPG and vector-based TSP
// searches, a conditional-store Floyd-Warshall, a recomputing-heuristic
// IDA*, a binomial-loop and vector-of-vector RA, and an std::lround
// Water as oracles, and require the shipped kernels to reproduce their
// counts and answers exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/acp.hpp"
#include "apps/asp.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "sim/rng.hpp"

namespace alb::apps {
namespace {

AppConfig cfg(int clusters, int per, bool optimized = false) {
  AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = net::das_config(clusters, per);
  c.optimized = optimized;
  return c;
}

// ---------------------------------------------------------------- ASP
namespace asp_oracle {

using Matrix = std::vector<std::vector<int>>;

/// The app's input matrix, rebuilt from the same seeded stream.
Matrix generate(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  Matrix d(static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d[i][j] = i == j ? 0 : static_cast<int>(rng.uniform_int(1, 1000));
    }
  }
  return d;
}

/// Scalar Floyd-Warshall with the textbook conditional store.
Matrix floyd_warshall(Matrix d) {
  const std::size_t n = d.size();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const int via = d[i][k] + d[k][j];
        if (via < d[i][j]) d[i][j] = via;
      }
    }
  }
  return d;
}

std::uint64_t checksum(const Matrix& d) {
  std::uint64_t h = kHashSeed;
  for (const auto& row : d) {
    for (int v : row) h = hash_mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

}  // namespace asp_oracle

// Floyd-Warshall output must satisfy the triangle inequality and
// preserve zero diagonals, and the app must agree with an independent
// scalar recomputation.
TEST(AspKernel, OutputsSatisfyShortestPathAxioms) {
  AspParams prm;
  prm.nodes = 24;
  const int n = prm.nodes;
  const asp_oracle::Matrix d = asp_oracle::generate(n, 42);
  const asp_oracle::Matrix ref = asp_oracle::floyd_warshall(d);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ref[i][i], 0);
    for (int j = 0; j < n; ++j) {
      EXPECT_LE(ref[i][j], d[i][j]);  // never longer than the direct edge
      for (int k = 0; k < n; ++k) {
        EXPECT_LE(ref[i][j], ref[i][k] + ref[k][j]) << i << "," << j << "," << k;
      }
    }
  }
  EXPECT_EQ(asp_reference_checksum(prm, 42), asp_oracle::checksum(ref));
}

// Row lengths that are not a multiple of any vector width of the relax
// loop (8 or 16 cells), so every clone of it runs its remainder
// iterations, in the sequential reference and in parallel runs whose row
// blocks are uneven.
TEST(AspKernel, MatchesOracleOffVectorWidth) {
  for (int n : {37, 61, 100}) {
    AspParams prm;
    prm.nodes = n;
    const std::uint64_t want =
        asp_oracle::checksum(asp_oracle::floyd_warshall(asp_oracle::generate(n, 42)));
    EXPECT_EQ(asp_reference_checksum(prm, 42), want) << n;
    for (auto [clusters, per] : {std::pair{2, 3}, std::pair{4, 2}}) {
      for (bool opt : {false, true}) {
        EXPECT_EQ(run_asp(cfg(clusters, per, opt), prm).checksum, want)
            << n << " nodes, " << clusters << "x" << per << (opt ? " opt" : " orig");
      }
    }
  }
}

// --------------------------------------------------------------- ATPG
// The bit-parallel kernel against the sequential one-vector-at-a-time
// search it replaced: the same (detected, evals) for every fault.
namespace atpg_oracle {

enum class Op { And, Or, Xor, Not };
struct Gate {
  Op op;
  int a;  // < 0: primary input ~a
  int b;
};
constexpr int kOutputs = 16;

std::vector<Gate> generate(int num_gates, int num_pi, std::uint64_t seed) {
  std::vector<Gate> gates;
  sim::Rng rng(seed);
  for (int i = 0; i < num_gates; ++i) {
    auto pick_input = [&](int hi) -> int {
      if (hi == 0 || rng.uniform() < 0.25) {
        return ~static_cast<int>(rng.uniform_int(0, num_pi - 1));
      }
      int lo = hi > 24 ? hi - 24 : 0;
      return static_cast<int>(rng.uniform_int(lo, hi - 1));
    };
    Gate g;
    g.op = static_cast<Op>(rng.uniform_int(0, 3));
    g.a = pick_input(i);
    g.b = g.op == Op::Not ? 0 : pick_input(i);
    gates.push_back(g);
  }
  return gates;
}

std::uint64_t evaluate(const std::vector<Gate>& gates, std::uint64_t input_bits, int fault_gate,
                       bool fault_value, long long* evals) {
  std::vector<char> value(gates.size());
  auto read = [&](int idx) -> bool {
    if (idx < 0) return (input_bits >> (~idx % 64)) & 1;
    return value[static_cast<std::size_t>(idx)] != 0;
  };
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    bool v = false;
    switch (g.op) {
      case Op::And: v = read(g.a) && read(g.b); break;
      case Op::Or: v = read(g.a) || read(g.b); break;
      case Op::Xor: v = read(g.a) != read(g.b); break;
      case Op::Not: v = !read(g.a); break;
    }
    if (static_cast<int>(i) == fault_gate) v = fault_value;
    value[i] = v ? 1 : 0;
  }
  *evals += static_cast<long long>(gates.size());
  std::uint64_t h = kHashSeed;
  for (std::size_t i = gates.size() - kOutputs; i < gates.size(); ++i) {
    h = hash_mix(h, static_cast<std::uint64_t>(value[i]));
  }
  return h;
}

detail::FaultResult test_fault(const std::vector<Gate>& gates, int gate, bool stuck,
                               int max_vectors, std::uint64_t seed) {
  detail::FaultResult r;
  sim::Rng rng(seed ^ (static_cast<std::uint64_t>(gate) * 2 + (stuck ? 1 : 0)));
  for (int v = 0; v < max_vectors; ++v) {
    std::uint64_t input = rng.next_u64();
    std::uint64_t good = evaluate(gates, input, -1, false, &r.evals);
    std::uint64_t bad = evaluate(gates, input, gate, stuck, &r.evals);
    if (good != bad) {
      r.detected = true;
      return r;
    }
  }
  return r;
}

}  // namespace atpg_oracle

TEST(AtpgKernel, BitParallelSearchMatchesSequentialPerFault) {
  struct Case {
    int gates, primary_inputs, max_vectors;
  };
  const Case cases[] = {{90, 20, 1},  {90, 20, 12},  {90, 20, 63}, {90, 20, 64},
                        {90, 20, 65}, {90, 20, 130}, {90, 80, 65}, {10, 20, 12}};
  long long late_detections = 0;  // detected by a vector past the first 64
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      AtpgParams prm;
      prm.gates = c.gates;
      prm.primary_inputs = c.primary_inputs;
      prm.max_vectors_per_fault = c.max_vectors;
      const std::vector<detail::FaultResult> got = detail::atpg_fault_results(prm, seed);
      const auto gates = atpg_oracle::generate(c.gates, c.primary_inputs, seed);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * c.gates));
      for (int f = 0; f < 2 * c.gates; ++f) {
        const detail::FaultResult want =
            atpg_oracle::test_fault(gates, f / 2, f % 2 != 0, c.max_vectors, seed);
        const detail::FaultResult& r = got[static_cast<std::size_t>(f)];
        ASSERT_EQ(r.detected, want.detected) << "gates=" << c.gates << " pi=" << c.primary_inputs
                                             << " vectors=" << c.max_vectors << " seed=" << seed
                                             << " fault=" << f;
        ASSERT_EQ(r.evals, want.evals) << "gates=" << c.gates << " pi=" << c.primary_inputs
                                       << " vectors=" << c.max_vectors << " seed=" << seed
                                       << " fault=" << f;
        if (r.detected && r.evals > 2LL * c.gates * 64) ++late_detections;
      }
    }
  }
  // The cases must reach the second 64-vector pass, not only the first.
  EXPECT_GT(late_detections, 0);
}

// ---------------------------------------------------------------- TSP
// Branch-and-bound with the greedy bound must find the true optimum
// whenever the optimum is <= the greedy bound (always). Check against
// exhaustive permutation search on a small instance.
TEST(TspKernel, FindsTrueOptimumOnSmallInstances) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
    TspParams prm;
    prm.cities = 8;
    prm.job_depth = 2;
    TspOutcome got = tsp_reference(prm, seed);

    // Exhaustive oracle.
    sim::Rng rng(seed);
    const int n = prm.cities;
    std::vector<int> dist(static_cast<std::size_t>(n) * n, 0);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int w = static_cast<int>(rng.uniform_int(10, 99));
        dist[static_cast<std::size_t>(i) * n + j] = w;
        dist[static_cast<std::size_t>(j) * n + i] = w;
      }
    }
    std::vector<int> perm(static_cast<std::size_t>(n) - 1);
    std::iota(perm.begin(), perm.end(), 1);
    long long best = 1LL << 60;
    do {
      long long len = dist[static_cast<std::size_t>(perm.front())];
      for (std::size_t i = 0; i + 1 < perm.size(); ++i) {
        len += dist[static_cast<std::size_t>(perm[i]) * n + perm[i + 1]];
      }
      len += dist[static_cast<std::size_t>(perm.back()) * n];
      best = std::min(best, len);
    } while (std::next_permutation(perm.begin(), perm.end()));

    EXPECT_EQ(got.best_tour, best) << "seed " << seed;
  }
}

// The bitmask search against the vector-based one it replaced: the
// same best tour and node count for every instance size and job depth.
namespace tsp_oracle {

struct Instance {
  int n;
  std::vector<int> dist;
  int d(int a, int b) const { return dist[static_cast<std::size_t>(a) * n + b]; }
};

Instance generate(int n, std::uint64_t seed) {
  Instance ins{n, std::vector<int>(static_cast<std::size_t>(n) * n, 0)};
  sim::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      int w = static_cast<int>(rng.uniform_int(10, 99));
      ins.dist[static_cast<std::size_t>(i) * n + j] = w;
      ins.dist[static_cast<std::size_t>(j) * n + i] = w;
    }
  }
  return ins;
}

long long greedy_bound(const Instance& ins) {
  std::vector<char> used(static_cast<std::size_t>(ins.n), 0);
  used[0] = 1;
  int cur = 0;
  long long total = 0;
  for (int step = 1; step < ins.n; ++step) {
    int best = -1;
    for (int j = 0; j < ins.n; ++j) {
      if (!used[j] && (best < 0 || ins.d(cur, j) < ins.d(cur, best))) best = j;
    }
    used[static_cast<std::size_t>(best)] = 1;
    total += ins.d(cur, best);
    cur = best;
  }
  return total + ins.d(cur, 0);
}

void dfs(const Instance& ins, std::vector<int>& path, std::vector<char>& used, long long length,
         long long bound, TspOutcome* out) {
  ++out->nodes_expanded;
  if (length >= bound) return;
  if (static_cast<int>(path.size()) == ins.n) {
    long long tour = length + ins.d(path.back(), 0);
    if (tour <= bound) out->best_tour = std::min(out->best_tour, tour);
    return;
  }
  int cur = path.back();
  for (int c = 1; c < ins.n; ++c) {
    if (used[c]) continue;
    used[c] = 1;
    path.push_back(c);
    dfs(ins, path, used, length + ins.d(cur, c), bound, out);
    path.pop_back();
    used[c] = 0;
  }
}

/// Expands every job prefix of `depth` cities in lexicographic order
/// and searches below it. `pruned_roots` counts the prefixes already at
/// or over the bound.
TspOutcome solve(int cities, int depth, std::uint64_t seed, long long* pruned_roots = nullptr) {
  const Instance ins = generate(cities, seed);
  const long long bound = greedy_bound(ins);
  TspOutcome out;
  out.best_tour = std::numeric_limits<long long>::max();
  std::vector<int> path{0};
  std::vector<char> used(static_cast<std::size_t>(cities), 0);
  used[0] = 1;
  auto expand = [&](auto& self, long long length) -> void {
    if (static_cast<int>(path.size()) >= depth) {
      if (pruned_roots != nullptr && length >= bound) ++*pruned_roots;
      dfs(ins, path, used, length, bound, &out);
      return;
    }
    for (int c = 1; c < cities; ++c) {
      if (used[c]) continue;
      used[c] = 1;
      const long long step = ins.d(path.back(), c);
      path.push_back(c);
      self(self, length + step);
      path.pop_back();
      used[c] = 0;
    }
  };
  expand(expand, 0);
  return out;
}

}  // namespace tsp_oracle

TEST(TspKernel, BitmaskSearchMatchesVectorSearch) {
  long long pruned_roots = 0;
  for (int cities = 5; cities <= 13; ++cities) {
    for (int depth = 1; depth <= 4; ++depth) {
      TspParams prm;
      prm.cities = cities;
      prm.job_depth = depth;
      const std::uint64_t seed = 42 + static_cast<std::uint64_t>(cities);
      const TspOutcome got = tsp_reference(prm, seed);
      const TspOutcome want = tsp_oracle::solve(cities, depth, seed, &pruned_roots);
      EXPECT_EQ(got.best_tour, want.best_tour) << cities << " cities, depth " << depth;
      EXPECT_EQ(got.nodes_expanded, want.nodes_expanded) << cities << " cities, depth " << depth;
    }
  }
  // Some job prefix must already reach the bound, so the search's
  // job-root prune is compared too, not only its pruning of children.
  EXPECT_GT(pruned_roots, 0);
}

TEST(TspKernel, RejectsInstancesTheCityMaskCannotHold) {
  for (int cities : {-1, 0, 1, kMaxTspCities + 1, 100}) {
    TspParams prm;
    prm.cities = cities;
    EXPECT_THROW((void)tsp_reference(prm, 42), std::invalid_argument) << cities;
    EXPECT_THROW((void)run_tsp(cfg(1, 2), prm), std::invalid_argument) << cities;
  }
  TspParams two;
  two.cities = 2;
  two.job_depth = 1;
  EXPECT_EQ(tsp_reference(two, 42).best_tour, 2 * tsp_oracle::generate(2, 42).d(0, 1));
}

TEST(TspKernel, RejectsJobDepthsOutsideTheTour) {
  for (int depth : {-5, -1, 0, 9, 64}) {
    TspParams prm;
    prm.cities = 8;
    prm.job_depth = depth;
    EXPECT_THROW((void)tsp_reference(prm, 42), std::invalid_argument) << depth;
    EXPECT_THROW((void)run_tsp(cfg(1, 2), prm), std::invalid_argument) << depth;
  }
  // A prefix as long as the tour is one job per full tour.
  TspParams whole;
  whole.cities = 8;
  whole.job_depth = 8;
  const TspOutcome got = tsp_reference(whole, 42);
  const TspOutcome want = tsp_oracle::solve(8, 8, 42);
  EXPECT_EQ(got.best_tour, want.best_tour);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
}

// --------------------------------------------------------------- IDA*
// The iterative-deepening result must be the true optimal depth: check
// against a plain breadth-first search on an easy instance.
TEST(IdaKernel, DepthMatchesBreadthFirstSearch) {
  IdaParams prm;
  prm.scramble_moves = 10;
  prm.job_pool = 16;
  IdaOutcome got = ida_reference(prm, 7);
  // BFS oracle over the same scramble. Recreate the scrambled board by
  // running the app on one process and reading its depth... instead,
  // assert the two invariants BFS would give us: depth parity equals
  // the Manhattan parity (asserted inside the solver by construction)
  // and depth <= scramble_moves.
  EXPECT_LE(got.solution_depth, prm.scramble_moves);
  EXPECT_GT(got.solutions, 0);
}

// IDA* written apart from the app's kernel: the board as 16 cells, and
// a depth-first search that recomputes the Manhattan distance at every
// node, over the same scramble and breadth-first job pool.
namespace ida_oracle {

using Cells = std::array<int, 16>;

struct Node {
  Cells cells;
  int blank;
  int g;
  int last;  // -1 for the root
};

int manhattan(const Cells& c) {
  int h = 0;
  for (int i = 0; i < 16; ++i) {
    if (c[i] == 0) continue;
    const int goal = c[i] - 1;
    h += std::abs(i / 4 - goal / 4) + std::abs(i % 4 - goal % 4);
  }
  return h;
}

bool can_move(int blank, int d) {  // 0=up,1=down,2=left,3=right
  const int r = blank / 4 + (d == 0 ? -1 : d == 1 ? 1 : 0);
  const int c = blank % 4 + (d == 2 ? -1 : d == 3 ? 1 : 0);
  return r >= 0 && r < 4 && c >= 0 && c < 4;
}

Node child(const Node& n, int d) {
  const int to = n.blank + (d == 0 ? -4 : d == 1 ? 4 : d == 2 ? -1 : 1);
  Node m = n;
  std::swap(m.cells[n.blank], m.cells[to]);
  m.blank = to;
  m.g = n.g + 1;
  m.last = d;
  return m;
}

bool allowed(const Node& n, int d) {
  return can_move(n.blank, d) && !(n.last >= 0 && d == (n.last ^ 1));
}

Node scramble(int moves, std::uint64_t seed) {
  Node n{{}, 15, 0, -1};
  for (int i = 0; i < 15; ++i) n.cells[i] = i + 1;
  sim::Rng rng(seed);
  for (int i = 0; i < moves; ++i) {
    for (;;) {
      const int d = static_cast<int>(rng.uniform_int(0, 3));
      if (!allowed(n, d)) continue;
      n = child(n, d);
      break;
    }
  }
  return Node{n.cells, n.blank, 0, -1};
}

std::vector<Node> jobs(const Node& root, int target) {
  std::vector<Node> frontier{root};
  while (static_cast<int>(frontier.size()) < target) {
    std::vector<Node> next;
    for (const Node& n : frontier) {
      if (manhattan(n.cells) == 0) {
        next.push_back(n);
        continue;
      }
      for (int d = 0; d < 4; ++d) {
        if (allowed(n, d)) next.push_back(child(n, d));
      }
    }
    if (next.size() == frontier.size()) break;
    frontier = std::move(next);
  }
  return frontier;
}

void dfs(const Node& n, int threshold, detail::IdaIteration* out) {
  ++out->nodes;
  const int h = manhattan(n.cells);
  if (n.g + h > threshold) return;
  if (h == 0) {
    if (n.g == threshold) ++out->solutions;
    return;
  }
  for (int d = 0; d < 4; ++d) {
    if (allowed(n, d)) dfs(child(n, d), threshold, out);
  }
}

}  // namespace ida_oracle

// The incremental heuristic must expand exactly the nodes a search that
// recomputes it would, at every threshold of the deepening up to the
// solution, and so give ida_reference the same totals.
TEST(IdaKernel, IncrementalHeuristicMatchesRecomputingSearch) {
  for (std::uint64_t seed : {1, 2, 3, 5, 8}) {
    IdaParams prm;
    prm.scramble_moves = 34;
    prm.job_pool = 64;
    const ida_oracle::Node root = ida_oracle::scramble(prm.scramble_moves, seed);
    const std::vector<ida_oracle::Node> jobs = ida_oracle::jobs(root, prm.job_pool);
    long long nodes = 0;
    int threshold = ida_oracle::manhattan(root.cells);
    for (;; threshold += 2) {
      detail::IdaIteration want;
      for (const ida_oracle::Node& j : jobs) ida_oracle::dfs(j, threshold, &want);
      const detail::IdaIteration got = detail::ida_iteration(prm, seed, threshold);
      // A kernel that misses the solution would deepen forever below.
      ASSERT_EQ(got.nodes, want.nodes) << "seed " << seed << " threshold " << threshold;
      ASSERT_EQ(got.solutions, want.solutions) << "seed " << seed << " threshold " << threshold;
      nodes += want.nodes;
      if (want.solutions > 0) break;
    }
    const IdaOutcome out = ida_reference(prm, seed);
    EXPECT_EQ(out.solution_depth, threshold) << seed;
    EXPECT_EQ(out.nodes_expanded, nodes) << seed;
  }
}

TEST(IdaKernel, DeeperScramblesNeverShortenSolutions) {
  IdaParams a;
  a.scramble_moves = 6;
  a.job_pool = 8;
  IdaParams b = a;
  b.scramble_moves = 14;
  // Not strictly monotone per-instance, but depth must stay within the
  // scramble bound and never be negative.
  IdaOutcome ra = ida_reference(a, 3);
  IdaOutcome rb = ida_reference(b, 3);
  EXPECT_LE(ra.solution_depth, 6);
  EXPECT_LE(rb.solution_depth, 14);
}

// ----------------------------------------------------------------- RA
// Game-theoretic sanity of the retrograde solver: a position's value
// must be consistent with its successors' values (WIN iff some
// successor loses; LOSS iff all successors win; DRAW otherwise).
// The public API only exposes tallies, so verify consistency through
// the determinized tally plus the hand-checkable smallest databases.
TEST(RaKernel, TrivialDatabasesAreExact) {
  // 0 stones: the single empty position: mover cannot move -> LOSS.
  RaParams p0;
  p0.stones = 0;
  RaOutcome r0 = ra_reference(p0);
  EXPECT_EQ(r0.wins, 0);
  EXPECT_EQ(r0.losses, 1);
  EXPECT_EQ(r0.draws, 0);

  // 1 stone: 12 positions, solvable by hand.
  //  - stone in an opponent pit (6 cases): mover cannot move -> LOSS;
  //  - stone in own pit 0..4 (5 cases): sowing keeps it on the mover's
  //    side, handing the opponent a cannot-move position -> WIN;
  //  - stone in own pit 5: the single stone sows into opponent pit 6
  //    with count 1 (no capture), and after the flip the opponent owns
  //    it -> the only successor is a WIN for the opponent -> LOSS.
  RaParams p1;
  p1.stones = 1;
  RaOutcome r1 = ra_reference(p1);
  EXPECT_EQ(r1.wins + r1.losses + r1.draws, 12);
  EXPECT_EQ(r1.losses, 7);
  EXPECT_EQ(r1.wins, 5);
  EXPECT_EQ(r1.draws, 0);
}

TEST(RaKernel, DatabaseSizesMatchCombinatorics) {
  auto positions = [](int k) {
    // C(k+11, 11)
    long long num = 1;
    for (int i = 1; i <= 11; ++i) num = num * (k + i) / i;
    return num;
  };
  for (int k : {2, 3, 4}) {
    RaParams p;
    p.stones = k;
    RaOutcome r = ra_reference(p);
    EXPECT_EQ(r.wins + r.losses + r.draws, positions(k)) << "k=" << k;
  }
}

// RA written apart from the app's kernel: nested binomial loops for the
// ranking, and the database solver with vector-of-vector predecessor
// lists and a deque, the form the kernel replaced.
namespace ra_oracle {

using Board = std::array<int, 12>;

long long ways(int stones, int pits) {  // C(stones + pits - 1, pits - 1)
  if (pits == 0) return stones == 0 ? 1 : 0;
  long long c = 1;
  for (int i = 1; i < pits; ++i) c = c * (stones + i) / i;
  return c;
}

std::uint32_t rank(const Board& b, int stones) {
  long long r = 0;
  int rem = stones;
  for (int i = 0; i < 11; ++i) {
    for (int v = 0; v < b[i]; ++v) r += ways(rem - v, 11 - i);
    rem -= b[i];
  }
  return static_cast<std::uint32_t>(r);
}

Board unrank(std::uint32_t index, int stones) {
  Board b{};
  long long r = index;
  int rem = stones;
  for (int i = 0; i < 11; ++i) {
    int v = 0;
    for (;; ++v) {
      const long long w = ways(rem - v, 11 - i);
      if (r < w) break;
      r -= w;
    }
    b[i] = v;
    rem -= v;
  }
  b[11] = rem;
  return b;
}

enum : std::int8_t { kDraw = 0, kWin = 1, kLoss = 2 };

std::vector<std::int8_t> solve(int k, const std::vector<std::vector<std::int8_t>>& smaller) {
  const auto n = static_cast<std::size_t>(ways(k, 12));
  std::vector<std::int8_t> value(n, kDraw);
  std::vector<int> pending(n, 0);
  std::vector<bool> blocked(n, false);
  std::vector<std::vector<std::uint32_t>> preds(n);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    const Board b = unrank(idx, k);
    if (b[0] + b[1] + b[2] + b[3] + b[4] + b[5] == 0) {
      value[idx] = kLoss;
      queue.push_back(idx);
      continue;
    }
    bool win = false;
    bool blk = false;
    int within = 0;
    for (int pit = 0; pit < 6; ++pit) {
      if (b[pit] == 0) continue;
      Board m = b;
      m[pit] = 0;
      for (int j = 1; j <= b[pit]; ++j) ++m[(pit + j) % 12];
      const int last = (pit + b[pit]) % 12;
      int after = k;
      if (last >= 6 && (m[last] == 2 || m[last] == 3)) {
        after = k - m[last];
        m[last] = 0;
      }
      Board flipped{};
      for (int i = 0; i < 12; ++i) flipped[i] = m[(i + 6) % 12];
      const std::uint32_t s = rank(flipped, after);
      if (after != k) {
        const std::int8_t v = smaller[static_cast<std::size_t>(after)][s];
        if (v == kLoss) win = true;
        else if (v == kDraw) blk = true;
      } else {
        ++within;
        preds[s].push_back(idx);
      }
    }
    if (win) {
      value[idx] = kWin;
      queue.push_back(idx);
    } else {
      pending[idx] = within;
      blocked[idx] = blk;
      if (within == 0 && !blk) {
        value[idx] = kLoss;
        queue.push_back(idx);
      }
    }
  }
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    for (std::uint32_t q : preds[v]) {
      if (value[q] != kDraw) continue;
      if (value[v] == kLoss) {
        value[q] = kWin;
        queue.push_back(q);
      } else if (--pending[q] == 0 && !blocked[q]) {
        value[q] = kLoss;
        queue.push_back(q);
      }
    }
  }
  return value;
}

}  // namespace ra_oracle

// Every board at stones 0..8 round-trips through the table ranking, and
// both directions equal the nested binomial loops.
TEST(RaKernel, TableRankingMatchesBinomialLoops) {
  const detail::RaRanking ranking(8);
  for (int stones = 0; stones <= 8; ++stones) {
    const long long n = ranking.positions(stones);
    ASSERT_EQ(n, ra_oracle::ways(stones, 12)) << stones;
    for (std::uint32_t idx = 0; idx < n; ++idx) {
      const detail::RaBoard b = ranking.unrank(idx, stones);
      ra_oracle::Board want = ra_oracle::unrank(idx, stones);
      ra_oracle::Board got{};
      for (int i = 0; i < 12; ++i) got[i] = b[static_cast<std::size_t>(i)];
      ASSERT_EQ(got, want) << "stones " << stones << " index " << idx;
      ASSERT_EQ(ranking.rank(b, stones), idx) << "stones " << stones;
      ASSERT_EQ(ra_oracle::rank(want, stones), idx) << "stones " << stones;
    }
  }
}

// The databases the kernel builds equal the oracle solver's, position
// by position (through the value hash) and in their tallies.
TEST(RaKernel, DatabasesMatchVectorDequeSolver) {
  std::vector<std::vector<std::int8_t>> dbs;
  for (int k = 0; k <= 8; ++k) {
    dbs.push_back(ra_oracle::solve(k, dbs));
    if (k == 0) continue;
    RaOutcome want;
    std::uint64_t h = kHashSeed;
    for (std::int8_t v : dbs.back()) {
      if (v == ra_oracle::kWin) ++want.wins;
      else if (v == ra_oracle::kLoss) ++want.losses;
      else ++want.draws;
      h = hash_mix(h, static_cast<std::uint64_t>(v));
    }
    RaParams prm;
    prm.stones = k;
    const RaOutcome got = ra_reference(prm);
    EXPECT_EQ(got.value_hash, h) << "k=" << k;
    EXPECT_EQ(got.wins, want.wins) << "k=" << k;
    EXPECT_EQ(got.losses, want.losses) << "k=" << k;
    EXPECT_EQ(got.draws, want.draws) << "k=" << k;
  }
}

// The CSR lists keep each position's predecessors in the order the
// vector-of-vector push_back form would, empty lists and the last
// position included.
TEST(RaKernel, PredListsKeepPushBackOrder) {
  for (std::size_t n : {1, 7, 500}) {
    sim::Rng rng(n);
    std::vector<std::vector<std::uint32_t>> want(n);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (int e = 0; e < 4000; ++e) {
      const auto pred = static_cast<std::uint32_t>(rng.uniform_int(0, 1'000'000));
      // Skew toward low successors so some lists stay empty.
      const auto succ = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1) / (e % 3 + 1));
      edges.emplace_back(pred, succ);
    }
    edges.emplace_back(42, static_cast<std::uint32_t>(n - 1));
    for (auto [pred, succ] : edges) want[succ].push_back(pred);
    const detail::PredLists got(n, [&](const auto& sink) {
      for (auto [pred, succ] : edges) sink(pred, succ);
    });
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::span<const std::uint32_t> list = got[v];
      EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()), want[v])
          << "n " << n << " position " << v;
    }
  }
}

// ----------------------------------------------------------------- ACP
// The fixpoint must actually be arc-consistent: re-running the
// reference must be idempotent (same checksum), and shrinking can only
// remove values (checked indirectly: tightness 0 leaves all domains
// full -> checksum equals the all-full hash).
TEST(AcpKernel, LooseCspStaysFull) {
  AcpParams loose;
  loose.variables = 40;
  loose.tightness = 0.0;  // everything allowed: no pruning possible
  AppResult r = run_acp(cfg(2, 2), loose);
  EXPECT_EQ(r.metrics["writes"], 0);
  EXPECT_EQ(r.checksum, acp_reference_checksum(loose, 42));
}

TEST(AcpKernel, ReferenceIsIdempotent) {
  AcpParams prm;
  prm.variables = 50;
  prm.tightness = 0.9;
  EXPECT_EQ(acp_reference_checksum(prm, 42), acp_reference_checksum(prm, 42));
  EXPECT_NE(acp_reference_checksum(prm, 42), acp_reference_checksum(prm, 43));
}

// ----------------------------------------------------------------- SOR
// At convergence the interior must be (near-)harmonic: each cell close
// to the average of its neighbours, and bounded by the boundary values.
TEST(SorKernel, ConvergedGridIsBoundedByBoundaryValues) {
  SorParams prm;
  prm.rows = 24;
  prm.cols = 16;
  prm.omega = 1.7;
  prm.tolerance = 1e-6;
  prm.max_iterations = 20000;
  SorOutcome out = sor_reference(prm, 0);
  EXPECT_LT(out.final_residual, prm.tolerance);
  // Maximum principle: interior values lie strictly between the cold
  // (0) and hot (100) walls.
  // (grid itself is not exposed; the residual + iteration checks plus
  // the bit-exact parallel equality tests in apps_advanced pin it.)
  EXPECT_GT(out.iterations, 10);
}

// --------------------------------------------------------------- Water
// Newton's third law in fixed point: the net force over all molecules
// is exactly zero, so the centre of mass moves linearly — consecutive
// steps preserve the total momentum introduced by initial velocities.
// Verified indirectly but exactly: a two-proc run must agree bit-for-bit
// with the sequential run even though force *pairs* are split across
// owners (already covered), and reversing block order must not change
// anything (pair quantization is orientation-antisymmetric).
TEST(WaterKernel, ChecksumIndependentOfProcessCount) {
  WaterParams prm;
  prm.molecules = 48;
  prm.steps = 3;
  const std::uint64_t want = water_reference_checksum(prm, 9);
  AppConfig c2 = cfg(1, 2);
  c2.seed = 9;
  AppConfig c7 = cfg(1, 7);
  c7.seed = 9;
  EXPECT_EQ(run_water(c2, prm).checksum, want);
  EXPECT_EQ(run_water(c7, prm).checksum, want);
}

TEST(WaterKernel, TrajectoriesDivergeAcrossSeeds) {
  WaterParams prm;
  prm.molecules = 32;
  prm.steps = 2;
  EXPECT_NE(water_reference_checksum(prm, 1), water_reference_checksum(prm, 2));
}

// The inline rounding of the pair forces against libm, on the ties it
// must round away from zero, the largest double below one half, and a
// seeded mix of magnitudes inside its |x| < 2^31 - 1 domain.
TEST(WaterKernel, RoundHalfAwayMatchesLround) {
  for (double x : {0.5, 1.5, 2.5, 0.49999999999999994, 2147483645.5, 2147483646.4999998}) {
    EXPECT_EQ(detail::round_half_away(x), std::lround(x)) << x;
    EXPECT_EQ(detail::round_half_away(-x), std::lround(-x)) << -x;
  }
  sim::Rng rng(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    const double u = rng.uniform() * 2.0 - 1.0;
    double x = 0;
    switch (i % 3) {
      case 0: x = u * 262144.0; break;                    // the pair forces' range
      case 1: x = std::floor(u * 1e6) + 0.5; break;       // exact ties
      default: x = std::ldexp(u, static_cast<int>(rng.uniform_int(-8, 30))); break;
    }
    ASSERT_EQ(detail::round_half_away(x), std::lround(x)) << std::hexfloat << x;
  }
}

// Sequential Water written apart from the app's kernel, with its pair
// forces quantized by libm's std::lround.
namespace water_oracle {

struct Vec3 {
  double x, y, z;
};

std::uint64_t checksum(int molecules, int steps, std::uint64_t seed) {
  constexpr double kScale = 65536.0;
  constexpr double dt = 0.005;
  const auto n = static_cast<std::size_t>(molecules);
  std::vector<Vec3> pos(n), vel(n);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform() * 10.0, rng.uniform() * 10.0, rng.uniform() * 10.0};
    vel[i] = {rng.uniform() - 0.5, rng.uniform() - 0.5, rng.uniform() - 0.5};
  }
  for (int step = 0; step < steps; ++step) {
    std::vector<std::array<long long, 3>> f(n, {0, 0, 0});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d[3] = {pos[j].x - pos[i].x, pos[j].y - pos[i].y, pos[j].z - pos[i].z};
        const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.1;
        const double inv = 1.0 / (r2 * std::sqrt(r2));
        for (int c = 0; c < 3; ++c) {
          const long long q = std::lround(d[c] * inv * kScale);
          f[i][c] += q;
          f[j][c] -= q;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      vel[i].x += static_cast<double>(f[i][0]) / kScale * dt;
      vel[i].y += static_cast<double>(f[i][1]) / kScale * dt;
      vel[i].z += static_cast<double>(f[i][2]) / kScale * dt;
      pos[i].x += vel[i].x * dt;
      pos[i].y += vel[i].y * dt;
      pos[i].z += vel[i].z * dt;
    }
  }
  std::uint64_t h = kHashSeed;
  for (const Vec3& p : pos) {
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(p.x * 1e6)));
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(p.y * 1e6)));
    h = hash_mix(h, static_cast<std::uint64_t>(std::llround(p.z * 1e6)));
  }
  return h;
}

}  // namespace water_oracle

// The row kernel against the pair force written out with std::lround,
// on a block of m molecules and accumulators that start non-zero.
void expect_row_matches_lround(const std::vector<std::array<double, 3>>& block,
                               const std::array<double, 3>& a) {
  constexpr double kScale = 65536.0;
  const std::size_t m = block.size();
  std::vector<double> bx(m), by(m), bz(m);
  std::vector<long long> fx(m), fy(m), fz(m);
  std::vector<std::array<long long, 3>> want_f(m);
  std::array<long long, 3> want_sum{0, 0, 0};
  for (std::size_t j = 0; j < m; ++j) {
    bx[j] = block[j][0];
    by[j] = block[j][1];
    bz[j] = block[j][2];
    fx[j] = fy[j] = fz[j] = static_cast<long long>(j) - 5;
    const double d[3] = {bx[j] - a[0], by[j] - a[1], bz[j] - a[2]};
    const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.1;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    for (int c = 0; c < 3; ++c) {
      const long long q = std::lround(d[c] * inv * kScale);
      want_sum[c] += q;
      want_f[j][c] = static_cast<long long>(j) - 5 - q;
    }
  }
  const detail::RowForce got = detail::pair_row(a[0], a[1], a[2], bx.data(), by.data(),
                                                bz.data(), m, fx.data(), fy.data(), fz.data());
  EXPECT_EQ(got.x, want_sum[0]) << m;
  EXPECT_EQ(got.y, want_sum[1]) << m;
  EXPECT_EQ(got.z, want_sum[2]) << m;
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(fx[j], want_f[j][0]) << m << " molecules, molecule " << j;
    EXPECT_EQ(fy[j], want_f[j][1]) << m << " molecules, molecule " << j;
    EXPECT_EQ(fz[j], want_f[j][2]) << m << " molecules, molecule " << j;
  }
}

// Block sizes off every vector width of the row kernel (2 or 4 lanes),
// so its remainder iterations run too, and molecules close enough for
// the largest forces.
TEST(WaterKernel, RowKernelMatchesLroundOffVectorWidth) {
  sim::Rng rng(61);
  for (std::size_t m : {1, 3, 61}) {
    std::vector<std::array<double, 3>> block(m);
    for (auto& p : block) p = {rng.uniform() * 10.0, rng.uniform() * 10.0, rng.uniform() * 10.0};
    expect_row_matches_lround(block, {rng.uniform() * 10.0, rng.uniform() * 10.0,
                                      rng.uniform() * 10.0});
    std::vector<std::array<double, 3>> close(m);
    for (auto& p : close) p = {5.0 + rng.uniform() * 0.5, 5.0, 5.0 + rng.uniform() * 0.5};
    expect_row_matches_lround(close, {5.0, 5.0, 5.0});
  }
}

// Pair forces that are exact ties ±(k + 0.5), which lround rounds away
// from zero. With r2 exactly 4 the kernel's 1 / (r2 sqrt(r2)) is 1/8,
// so an x offset of (k + 0.5) / 8192 quantizes to k + 0.5 exactly; the
// y offset is searched ulp by ulp until the softened r2 rounds to 4.
TEST(WaterKernel, RowKernelRoundsExactTiesAwayFromZero) {
  std::vector<std::array<double, 3>> block;
  for (int k : {0, 1, 2, 7, 100, 4095, 9999, 16000}) {
    const double dx = (k + 0.5) / 8192.0;
    double dy = std::sqrt(4.0 - 0.1 - dx * dx);
    double lo = dy, hi = dy;
    for (int step = 0; step < 4096; ++step) {
      if (dx * dx + lo * lo + 0.0 * 0.0 + 0.1 == 4.0) {
        dy = lo;
        break;
      }
      if (dx * dx + hi * hi + 0.0 * 0.0 + 0.1 == 4.0) {
        dy = hi;
        break;
      }
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 4.0);
    }
    ASSERT_EQ(dx * dx + dy * dy + 0.0 * 0.0 + 0.1, 4.0) << k;
    const double q = dx * (1.0 / 8.0) * 65536.0;
    ASSERT_EQ(q - std::floor(q), 0.5) << k;
    block.push_back({dx, dy, 0.0});
    block.push_back({-dx, -dy, 0.0});
  }
  expect_row_matches_lround(block, {0.0, 0.0, 0.0});
  // One tie alone, so no vector lane carries it.
  expect_row_matches_lround({block[3]}, {0.0, 0.0, 0.0});
}

TEST(WaterKernel, MatchesLroundOracle) {
  for (int molecules : {61, 256}) {
    WaterParams prm;
    prm.molecules = molecules;
    prm.steps = 3;
    const std::uint64_t want = water_oracle::checksum(molecules, prm.steps, 42);
    EXPECT_EQ(water_reference_checksum(prm, 42), want) << molecules;
    for (bool opt : {false, true}) {
      EXPECT_EQ(run_water(cfg(2, 3, opt), prm).checksum, want)
          << molecules << " molecules" << (opt ? " opt" : " orig");
    }
  }
}

}  // namespace
}  // namespace alb::apps
