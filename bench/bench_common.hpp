#pragma once
// Shared harness for the figure/table reproduction benches.
//
// The paper's methodology (§4): speedup relative to the one-processor
// run, measured on 1, 2 and 4 clusters with equal processes per cluster,
// at 1, 8, 16, 32 and 60 total CPUs. Each bench binary prints the same
// rows/series as the corresponding paper table or figure; `--csv`
// switches to machine-readable output.

// Sweeps are executed through the campaign engine: each harness builds
// its whole run list up front and fans it out over `--jobs N` workers
// (0 = hardware concurrency); results come back in submission order, so
// any `--jobs` value prints byte-identical tables.

#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "campaign/sim_jobs.hpp"
#include "net/presets.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace alb::bench {

using apps::AppConfig;
using apps::AppResult;

using Runner = std::function<AppResult(const AppConfig&)>;

/// The canonical DAS link parameters, loaded once from the shipped
/// scenario file — the same bytes alb-trace and the golden tests use, so
/// the calibration lives in exactly one place (scenarios/das.scn). A
/// run's geometry comes from AppConfig::topology(), not from here.
inline const net::TopologyConfig& das_scenario_net() {
  static const net::TopologyConfig cfg = scenario::load("das").base.net_cfg;
  return cfg;
}

inline AppConfig make_config(int clusters, int per_cluster, bool optimized,
                             std::uint64_t seed = 42) {
  AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per_cluster;
  c.net_cfg = das_scenario_net();
  c.optimized = optimized;
  c.seed = seed;
  return c;
}

/// The CPU counts of the paper's speedup figures.
inline const std::vector<int>& cpu_points() {
  static const std::vector<int> pts{1, 8, 16, 32, 60};
  return pts;
}

struct SpeedupPoint {
  int clusters;
  int cpus;
  double speedup;
  sim::SimTime elapsed;
};

struct SpeedupCurves {
  sim::SimTime t1 = 0;  // one-processor run time
  std::vector<SpeedupPoint> points;
};

/// The (clusters, cpus) grid of one figure sweep, in the paper's order.
/// The leading (1, 1) entry is the one-processor baseline every speedup
/// is measured against.
inline std::vector<std::pair<int, int>> plan_speedup_sweep(bool quick) {
  std::vector<std::pair<int, int>> pts;
  for (int clusters : {1, 2, 4}) {
    for (int cpus : cpu_points()) {
      if (cpus % clusters != 0) continue;
      int per = cpus / clusters;
      if (per < 1 || (clusters > 1 && per < 2)) continue;
      if (clusters == 1 && cpus == 1) {
        pts.emplace_back(1, 1);
        continue;
      }
      if (quick && cpus != 60 && !(clusters == 1 && cpus == 16)) continue;
      pts.emplace_back(clusters, cpus);
    }
  }
  return pts;
}

/// Builds the campaign job list for one program variant's figure sweep
/// (one job per plan_speedup_sweep point, same order).
inline std::vector<campaign::SimJob> sweep_jobs(const Runner& run, bool optimized,
                                                bool quick, std::uint64_t seed) {
  std::vector<campaign::SimJob> jobs;
  for (auto [clusters, cpus] : plan_speedup_sweep(quick)) {
    jobs.push_back({run, make_config(clusters, cpus / clusters, optimized, seed)});
  }
  return jobs;
}

/// Folds the campaign results (in sweep_jobs order) back into the
/// figure's speedup curves.
inline SpeedupCurves assemble_speedup_curves(bool quick,
                                             const std::vector<AppResult>& results) {
  const auto pts = plan_speedup_sweep(quick);
  SpeedupCurves out;
  out.t1 = results.empty() ? 0 : results.front().elapsed;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const AppResult& r = results[i];
    double s = 1.0;
    if (i > 0) {
      s = out.t1 > 0
              ? static_cast<double>(out.t1) / static_cast<double>(r.elapsed)
              : 0.0;
    }
    out.points.push_back({pts[i].first, pts[i].second, s, r.elapsed});
  }
  return out;
}

/// Runs the full figure sweep for one program variant on `jobs` workers.
inline SpeedupCurves run_speedup_sweep(const Runner& run, bool optimized,
                                       bool quick = false, std::uint64_t seed = 42,
                                       int jobs = 1) {
  std::vector<AppResult> results =
      campaign::run_sim_jobs(sweep_jobs(run, optimized, quick, seed), {jobs});
  return assemble_speedup_curves(quick, results);
}

/// Prints a pair of figure sweeps (original & optimized) in the layout
/// of the paper's speedup plots.
inline void print_figure(std::ostream& os, const std::string& title,
                         const SpeedupCurves& orig, const SpeedupCurves& opt,
                         bool csv) {
  util::Table t({"cpus", "orig 1cl", "orig 2cl", "orig 4cl", "opt 1cl", "opt 2cl",
                 "opt 4cl"});
  auto find = [](const SpeedupCurves& c, int clusters, int cpus) -> std::optional<double> {
    for (const auto& p : c.points) {
      if (p.clusters == clusters && p.cpus == cpus) return p.speedup;
    }
    return std::nullopt;
  };
  for (int cpus : cpu_points()) {
    t.row().add(cpus);
    for (const SpeedupCurves* c : {&orig, &opt}) {
      for (int clusters : {1, 2, 4}) {
        auto s = find(*c, clusters, cpus);
        if (s) t.add(*s, 1);
        else t.add(std::string("-"));
      }
    }
  }
  if (csv) {
    os << "# " << title << "\n";
    t.print_csv(os);
  } else {
    os << "=== " << title << " ===\n";
    os << "(speedup vs 1 processor; simulated DAS network)\n";
    t.print(os);
  }
  os << "\n";
}

/// Standard options for figure benches. Parsing also wires up the
/// shared host-telemetry flags (--progress[=N], --telemetry-out, ...);
/// the destructor writes the telemetry artifacts and emits the final
/// heartbeat, so every figure bench gets campaign progress reporting
/// for free. Telemetry sinks are stderr/side files only — bench stdout
/// (the tables the determinism diffs compare) is unaffected.
struct FigureOptions {
  util::Options opts;
  bool csv = false;
  bool quick = false;
  std::uint64_t seed = 42;
  int jobs = 0;

  bool parse(int argc, char** argv) {
    opts.define_flag("csv", "emit CSV instead of aligned tables");
    opts.define_flag("quick", "run a reduced sweep (60-CPU points only)");
    opts.define("seed", "42", "workload seed", util::Options::Kind::Int);
    opts.define("jobs", "0",
                "campaign worker threads (0 = hardware concurrency, 1 = sequential)",
                util::Options::Kind::Int);
    telemetry::define_cli_options(opts);
    if (!parse_options(opts, argc, argv)) return false;
    csv = opts.has_flag("csv");
    quick = opts.has_flag("quick");
    seed = static_cast<std::uint64_t>(opts.get_int("seed"));
    jobs = static_cast<int>(opts.get_int("jobs"));
    telemetry::enable_from_cli(opts, argv && argv[0] ? argv[0] : "bench");
    parsed_ = true;
    return true;
  }

  ~FigureOptions() {
    if (parsed_) telemetry::finish_cli(opts, std::cerr);
  }

 private:
  bool parsed_ = false;
};

/// Adds the `--jobs` option to a non-FigureOptions bench.
inline void define_jobs_option(util::Options& opts) {
  opts.define("jobs", "0",
              "campaign worker threads (0 = hardware concurrency, 1 = sequential)",
              util::Options::Kind::Int);
}

}  // namespace alb::bench
