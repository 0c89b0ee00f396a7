#include "apps/ida.hpp"

#include <array>
#include <deque>
#include <vector>

#include "core/cluster_reduce.hpp"
#include "core/work_stealing.hpp"
#include "sim/rng.hpp"

namespace alb::apps {

namespace {

// 15-puzzle board: 16 nibbles, nibble c = tile at cell c, 0 = blank.
struct Puzzle {
  std::uint64_t board;
  int blank;  // cell index of the blank

  static Puzzle solved() {
    std::uint64_t b = 0;
    for (int c = 0; c < 15; ++c) b |= static_cast<std::uint64_t>(c + 1) << (4 * c);
    return {b, 15};
  }

  int tile(int cell) const { return static_cast<int>((board >> (4 * cell)) & 0xF); }

  Puzzle moved(int dir) const {  // 0=up,1=down,2=left,3=right (blank motion)
    static constexpr int dr[] = {-1, 1, 0, 0};
    static constexpr int dc[] = {0, 0, -1, 1};
    const int r = blank / 4 + dr[dir];
    const int c = blank % 4 + dc[dir];
    const int to = r * 4 + c;
    const std::uint64_t t = (board >> (4 * to)) & 0xF;
    std::uint64_t b = board & ~(0xFull << (4 * to));
    b &= ~(0xFull << (4 * blank));
    b |= t << (4 * blank);
    return {b, to};
  }

  bool can_move(int dir) const {
    switch (dir) {
      case 0: return blank >= 4;
      case 1: return blank < 12;
      case 2: return blank % 4 != 0;
      default: return blank % 4 != 3;
    }
  }

  int manhattan() const {
    int h = 0;
    for (int c = 0; c < 16; ++c) {
      int t = tile(c);
      if (t == 0) continue;
      int goal = t - 1;
      h += std::abs(c / 4 - goal / 4) + std::abs(c % 4 - goal % 4);
    }
    return h;
  }
};

constexpr int opposite(int dir) { return dir ^ 1; }

struct Job {
  std::uint64_t board;
  std::int32_t blank;
  std::int32_t g;
  std::int32_t last_move;  // -1 for the root
};

Puzzle scramble(int moves, std::uint64_t seed) {
  sim::Rng rng(seed);
  Puzzle p = Puzzle::solved();
  int last = -1;
  for (int i = 0; i < moves; ++i) {
    for (;;) {
      int d = static_cast<int>(rng.uniform_int(0, 3));
      if (!p.can_move(d)) continue;
      if (last >= 0 && d == opposite(last)) continue;
      p = p.moved(d);
      last = d;
      break;
    }
  }
  return p;
}

/// Grows the root frontier breadth-first to at least `target` jobs.
std::vector<Job> make_jobs(const Puzzle& root, int target) {
  std::vector<Job> frontier{Job{root.board, root.blank, 0, -1}};
  while (static_cast<int>(frontier.size()) < target) {
    std::vector<Job> next;
    for (const Job& j : frontier) {
      Puzzle p{j.board, j.blank};
      if (p.manhattan() == 0) {  // already solved prefixes stay as jobs
        next.push_back(j);
        continue;
      }
      for (int d = 0; d < 4; ++d) {
        if (!p.can_move(d)) continue;
        if (j.last_move >= 0 && d == opposite(j.last_move)) continue;
        Puzzle q = p.moved(d);
        next.push_back(Job{q.board, q.blank, j.g + 1, d});
      }
    }
    if (next.size() == frontier.size()) break;  // degenerate (solved root)
    frontier = std::move(next);
  }
  return frontier;
}

struct DfsResult {
  long long solutions = 0;
  long long nodes = 0;
};

void dfs(const Puzzle& p, int g, int last, int threshold, DfsResult* out) {
  ++out->nodes;
  const int h = p.manhattan();
  if (g + h > threshold) return;
  if (h == 0) {
    if (g == threshold) ++out->solutions;
    return;  // stop at the goal; paths through it are not counted
  }
  for (int d = 0; d < 4; ++d) {
    if (!p.can_move(d)) continue;
    if (last >= 0 && d == opposite(last)) continue;
    Puzzle q = p.moved(d);
    dfs(q, g + 1, d, threshold, out);
  }
}

DfsResult search_job(const Job& j, int threshold) {
  DfsResult r;
  dfs(Puzzle{j.board, static_cast<int>(j.blank)}, j.g, j.last_move, threshold, &r);
  return r;
}

}  // namespace

IdaOutcome ida_reference(const IdaParams& params, std::uint64_t seed) {
  // Uses the same fixed job decomposition as the parallel program so the
  // node-count checksum is directly comparable.
  Puzzle root = scramble(params.scramble_moves, seed);
  std::vector<Job> jobs = make_jobs(root, params.job_pool);
  IdaOutcome out;
  for (int threshold = root.manhattan();; threshold += 2) {
    long long solutions = 0;
    for (const Job& j : jobs) {
      DfsResult r = search_job(j, threshold);
      out.nodes_expanded += r.nodes;
      solutions += r.solutions;
    }
    if (solutions > 0) {
      out.solution_depth = threshold;
      out.solutions = solutions;
      return out;
    }
  }
}

std::uint64_t ida_checksum(const IdaOutcome& o) {
  std::uint64_t h = kHashSeed;
  h = hash_mix(h, static_cast<std::uint64_t>(o.solution_depth));
  h = hash_mix(h, static_cast<std::uint64_t>(o.solutions));
  h = hash_mix(h, static_cast<std::uint64_t>(o.nodes_expanded));
  return h;
}

AppResult run_ida(const AppConfig& cfg, const IdaParams& params) {
  Harness h(cfg);
  const int P = cfg.total_procs();
  Puzzle root = scramble(params.scramble_moves, cfg.seed);
  std::vector<Job> jobs = make_jobs(root, params.job_pool);

  wide::StealScheduler<Job>::Options sopt;
  sopt.order = params.cluster_first.value_or(cfg.optimized)
                   ? wide::StealOrder::kClusterFirst
                   : wide::StealOrder::kOriginalOrder;
  sopt.remember_empty = params.remember_empty.value_or(cfg.optimized);
  sopt.job_bytes = sizeof(Job);
  sopt.steal_chunk = 2;
  wide::StealScheduler<Job> sched(h.rt, sopt);

  struct Tally {
    long long solutions;
    long long nodes;
  };
  IdaOutcome out;
  const int initial_threshold = root.manhattan();

  AppResult result = h.finish([&, params](orca::Proc& p) -> sim::Task<void> {
    for (int threshold = initial_threshold;; threshold += 2) {
      // Seed my share of the job pool (setup cost charged lightly).
      for (std::size_t j = static_cast<std::size_t>(p.rank); j < jobs.size();
           j += static_cast<std::size_t>(P)) {
        sched.push_local(p, jobs[j]);
      }
      long long my_solutions = 0;
      long long my_nodes = 0;
      bool announced_idle = false;
      for (;;) {
        std::optional<Job> job = sched.pop_local(p);
        if (!job) {
          auto batch = co_await sched.steal(p);
          if (batch) {
            if (announced_idle) {
              co_await sched.announce_idle(p, false);
              announced_idle = false;
            }
            for (Job& b : *batch) sched.push_local(p, std::move(b));
            continue;
          }
          if (!announced_idle) {
            co_await sched.announce_idle(p, true);
            announced_idle = true;
          }
          if (sched.all_idle(p)) break;
          co_await p.compute(sim::microseconds(200));  // back off, retry steal
          continue;
        }
        DfsResult r = search_job(*job, threshold);
        co_await p.compute(r.nodes * params.ns_per_node);
        my_solutions += r.solutions;
        my_nodes += r.nodes;
      }
      // End-of-iteration reduction: did anyone find a solution?
      Tally t = co_await wide::cluster_allreduce<Tally>(
          h.rt, p, 700, Tally{my_solutions, my_nodes}, 16,
          [](Tally&& a, const Tally& b) {
            return Tally{a.solutions + b.solutions, a.nodes + b.nodes};
          });
      if (t.solutions > 0) {
        if (p.rank == 0) {
          out.solution_depth = threshold;
          out.solutions = t.solutions;
          out.nodes_expanded += t.nodes;
        }
        break;
      }
      if (p.rank == 0) out.nodes_expanded += t.nodes;
      // Re-arm for the next iteration.
      co_await sched.announce_idle(p, false);
      co_await h.rt.barrier(p);
    }
  });

  result.checksum = ida_checksum(out);
  result.metrics["depth"] = out.solution_depth;
  result.metrics["solutions"] = static_cast<double>(out.solutions);
  result.metrics["nodes"] = static_cast<double>(out.nodes_expanded);
  result.metrics["remote_steal_attempts"] =
      static_cast<double>(sched.stats().remote_attempts);
  result.metrics["steal_attempts"] = static_cast<double>(sched.stats().attempts);
  return result;
}

}  // namespace alb::apps
