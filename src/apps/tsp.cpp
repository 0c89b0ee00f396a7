#include "apps/tsp.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_reduce.hpp"
#include "core/job_queue.hpp"
#include "sim/rng.hpp"

namespace alb::apps {

namespace {

struct Instance {
  int n;
  std::vector<int> dist;  // n*n symmetric

  int d(int a, int b) const { return dist[static_cast<std::size_t>(a) * n + b]; }

  static Instance generate(int n, std::uint64_t seed) {
    Instance ins;
    ins.n = n;
    ins.dist.assign(static_cast<std::size_t>(n) * n, 0);
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

  /// Greedy nearest-neighbour tour from city 0 — the fixed global bound.
  long long greedy_bound() const {
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    used[0] = 1;
    int cur = 0;
    long long total = 0;
    for (int step = 1; step < n; ++step) {
      int best = -1;
      for (int j = 0; j < n; ++j) {
        if (!used[j] && (best < 0 || d(cur, j) < d(cur, best))) best = j;
      }
      used[static_cast<std::size_t>(best)] = 1;
      total += d(cur, best);
      cur = best;
    }
    return total + d(cur, 0);
  }
};

struct Job {
  std::vector<int> prefix;  // visited cities, starting with 0
  long long length = 0;     // length of the prefix path
};

/// Expands the root to `depth` cities; one job per prefix, in
/// deterministic lexicographic order.
std::vector<Job> make_jobs(const Instance& ins, int depth) {
  std::vector<Job> jobs;
  Job root;
  root.prefix = {0};
  std::vector<Job> frontier{root};
  for (int level = 1; level < depth; ++level) {
    std::vector<Job> next;
    for (const Job& j : frontier) {
      for (int c = 1; c < ins.n; ++c) {
        if (std::find(j.prefix.begin(), j.prefix.end(), c) != j.prefix.end()) continue;
        Job child = j;
        child.length += ins.d(j.prefix.back(), c);
        child.prefix.push_back(c);
        next.push_back(std::move(child));
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

struct SearchResult {
  long long best = std::numeric_limits<long long>::max();
  long long nodes = 0;
};

using ExpandFn = void (*)(const Instance&, int, std::uint64_t, long long, long long,
                          SearchResult*);

/// Depth-first search below a node at `cur` that is under the bound,
/// with the cities still to visit in `unused` (bit c = city c). Every
/// search node counts once, and a node's children are counted here, by
/// their parent: the search recurses (through `Next`) only into a child
/// whose path is still under the bound, since the others would return
/// at once. Children are visited in ascending city order.
template <ExpandFn Next>
[[gnu::always_inline]] inline void expand_level(const Instance& ins, int cur,
                                                std::uint64_t unused, long long length,
                                                long long bound, SearchResult* out) {
  const int* row = &ins.dist[static_cast<std::size_t>(cur) * ins.n];
  if (unused == 0) {
    long long tour = length + row[0];
    if (tour <= bound) out->best = std::min(out->best, tour);
    return;
  }
  for (std::uint64_t rest = unused; rest != 0; rest &= rest - 1) {
    const int c = std::countr_zero(rest);
    ++out->nodes;  // not std::popcount: baseline x86-64 has no popcnt instruction
    const long long child = length + row[c];
    if (child < bound) Next(ins, c, unused & ~(std::uint64_t{1} << c), child, bound, out);
  }
}

/// Four search levels per call, the inner three inlined. Left to
/// itself, GCC decides whether to inline the recursion from the size of
/// this whole translation unit, so an unrelated header edit moved this
/// kernel's speed by ~15%; the template pins that choice.
void expand(const Instance& ins, int cur, std::uint64_t unused, long long length,
            long long bound, SearchResult* out) {
  expand_level<expand_level<expand_level<expand_level<expand>>>>(ins, cur, unused, length,
                                                                 bound, out);
}

SearchResult solve_job(const Instance& ins, const Job& job, long long bound) {
  SearchResult r;
  // Cities 1..n-1; city 0 starts every tour.
  std::uint64_t unused = ((std::uint64_t{1} << ins.n) - 1) & ~std::uint64_t{1};
  for (int c : job.prefix) unused &= ~(std::uint64_t{1} << c);
  // The job root is a search node too, pruned like any other.
  r.nodes = 1;
  if (job.length < bound) expand(ins, job.prefix.back(), unused, job.length, bound, &r);
  return r;
}

/// Rejects instances the 64-bit city mask of the search cannot hold,
/// and job depths that are no prefix of a tour.
void check_params(const TspParams& params) {
  if (params.cities < 2 || params.cities > kMaxTspCities) {
    std::string msg = "tsp: cities must be in [2, ";
    msg += std::to_string(kMaxTspCities);
    msg += "], got ";
    msg += std::to_string(params.cities);
    throw std::invalid_argument(msg);
  }
  if (params.job_depth < 1 || params.job_depth > params.cities) {
    std::string msg = "tsp: job_depth must be in [1, cities = ";
    msg += std::to_string(params.cities);
    msg += "], got ";
    msg += std::to_string(params.job_depth);
    throw std::invalid_argument(msg);
  }
}

}  // namespace

TspOutcome tsp_reference(const TspParams& params, std::uint64_t seed) {
  check_params(params);
  Instance ins = Instance::generate(params.cities, seed);
  const long long bound = ins.greedy_bound();
  TspOutcome out;
  out.best_tour = std::numeric_limits<long long>::max();
  for (const Job& j : make_jobs(ins, params.job_depth)) {
    SearchResult r = solve_job(ins, j, bound);
    out.best_tour = std::min(out.best_tour, r.best);
    out.nodes_expanded += r.nodes;
  }
  return out;
}

std::uint64_t tsp_checksum(const TspOutcome& o) {
  std::uint64_t h = kHashSeed;
  h = hash_mix(h, static_cast<std::uint64_t>(o.best_tour));
  h = hash_mix(h, static_cast<std::uint64_t>(o.nodes_expanded));
  return h;
}

AppResult run_tsp(const AppConfig& cfg, const TspParams& params) {
  check_params(params);
  Harness h(cfg);
  Instance ins = Instance::generate(params.cities, cfg.seed);
  const long long bound = ins.greedy_bound();
  std::vector<Job> jobs = make_jobs(ins, params.job_depth);
  const std::size_t job_bytes = 8 + static_cast<std::size_t>(params.job_depth) * 4;

  // The global minimum lives in a replicated object; with the bound
  // fixed it is only read (locally, for pruning), as in the paper runs.
  auto global_min = orca::create_replicated<long long>(h.rt, bound);

  wide::CentralJobQueue<Job> central(h.rt, 0, job_bytes);
  wide::ClusterJobQueues<Job> per_cluster(h.rt, job_bytes);
  if (cfg.optimized) {
    per_cluster.seed(jobs);
  } else {
    central.seed(jobs);
  }

  struct Partial {
    long long best;
    long long nodes;
  };
  AppResult result;
  Partial total{std::numeric_limits<long long>::max(), 0};

  result = h.finish([&](orca::Proc& p) -> sim::Task<void> {
    Partial local{std::numeric_limits<long long>::max(), 0};
    for (;;) {
      std::optional<Job> job;
      if (cfg.optimized) {
        job = co_await per_cluster.get(p);
      } else {
        job = co_await central.get(p);
      }
      if (!job) break;
      const long long b = global_min.read(p, [](const long long& v) { return v; });
      SearchResult r = solve_job(ins, *job, b);
      co_await p.compute(r.nodes * params.ns_per_node);
      local.best = std::min(local.best, r.best);
      local.nodes += r.nodes;
    }
    Partial sum = co_await wide::cluster_reduce<Partial>(
        h.rt, p, 600, local, 16, [](Partial&& a, const Partial& b) {
          return Partial{std::min(a.best, b.best), a.nodes + b.nodes};
        });
    if (p.rank == 0) total = sum;
  });

  result.checksum = tsp_checksum(TspOutcome{total.best, total.nodes});
  result.metrics["nodes"] = static_cast<double>(total.nodes);
  result.metrics["best_tour"] = static_cast<double>(total.best);
  result.metrics["bound"] = static_cast<double>(bound);
  return result;
}

}  // namespace alb::apps
