// Wide-area collective bench: flat vs topology-aware tree dissemination
// with transport-level gateway combining, on the full application suite
// at the paper's 4-cluster x 16 geometry (original variants, so the
// collective layer — not the per-app rewrites — gets the credit).
//
// Both arms run with 64 B wire framing so per-message overhead is
// charged identically; the tree arm adds `--coll=tree` (which also arms
// the default gateway combine threshold). Per app it reports WAN wire
// messages/bytes, the Table-4/5 "WAN RPC" count and the simulated run
// time of each arm, then verdicts the layer's contract: checksums
// unchanged everywhere, elapsed no worse anywhere, and wire traffic
// reduced on the message-intensive apps. A stream micro point (one 4 MB
// transfer at 1 vs 4 WAN sub-streams) rounds out the table.
//
// Everything printed is simulated and deterministic: any --jobs value
// emits a byte-identical table (tools/check.sh diffs --jobs 1 vs 4).
// Wall-clock throughput goes only into the JSON, as events_per_sec per
// suite arm, for tools/bench_gate.py (paired against the commit that
// recorded results/BENCH_collective.baseline.json).
//
//   ./bench_collective [--quick] [--csv] [--jobs=N] [--seed=S] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct ArmStats {
  double wire_msgs = 0;
  double wire_bytes = 0;
  double rpc_msgs = 0;
  sim::SimTime elapsed = 0;
};

ArmStats arm_stats(const AppResult& r) {
  ArmStats s;
  s.wire_msgs = r.stats.value("net/link.wan.msgs");
  s.wire_bytes = r.stats.value("net/link.wan.bytes");
  s.rpc_msgs = r.stats.value("net/wan.table.rpc.msgs");
  s.elapsed = r.elapsed;
  return s;
}

AppConfig arm_config(int per_cluster, std::uint64_t seed, bool tree) {
  AppConfig c = make_config(4, per_cluster, /*optimized=*/false, seed);
  c.net_cfg.wan_transport.frame_bytes = 64;
  if (tree) c.coll = orca::coll::Mode::Tree;
  return c;
}

/// Simulated arrival time of one large point-to-point WAN transfer at
/// the given sub-stream count — the MPWide-style striping micro point.
sim::SimTime stream_point(int streams) {
  auto cfg = net::das_config(2, 2);
  cfg.wan_transport.streams = streams;
  sim::Engine eng;
  net::Network net(eng, cfg);
  sim::SimTime arrival = 0;
  net.endpoint(2).set_handler(0, [&](const net::Message&) { arrival = eng.now(); });
  net::Message m;
  m.src = 0;
  m.dst = 2;
  m.bytes = 4 * 1024 * 1024;
  m.kind = net::MsgKind::Data;
  net.send(std::move(m));
  eng.run();
  return arrival;
}

void write_json(const std::string& path, const std::vector<std::string>& names,
                const std::vector<ArmStats>& flat, const std::vector<ArmStats>& tree,
                double flat_evps, double tree_evps, sim::SimTime s1, sim::SimTime s4,
                bool ok) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_collective\",\n"
     << "  \"topology\": \"4 clusters x 16, frame 64B\",\n"
     << "  \"contract_holds\": " << (ok ? "true" : "false") << ",\n"
     << "  \"streams_micro\": {\"bytes\": " << 4 * 1024 * 1024
     << ", \"elapsed_ns_1\": " << s1 << ", \"elapsed_ns_4\": " << s4 << "},\n"
     << "  \"apps\": [\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << "    {\"app\": \"" << names[i] << "\""
       << ", \"flat_wan_msgs\": " << flat[i].wire_msgs
       << ", \"tree_wan_msgs\": " << tree[i].wire_msgs
       << ", \"flat_wan_bytes\": " << flat[i].wire_bytes
       << ", \"tree_wan_bytes\": " << tree[i].wire_bytes
       << ", \"flat_wan_rpcs\": " << flat[i].rpc_msgs
       << ", \"tree_wan_rpcs\": " << tree[i].rpc_msgs
       << ", \"flat_elapsed_ns\": " << flat[i].elapsed
       << ", \"tree_elapsed_ns\": " << tree[i].elapsed << "}"
       << (i + 1 < names.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"benches\": [\n"
     << "    {\"name\": \"suite_flat\", \"events_per_sec\": " << flat_evps << "},\n"
     << "    {\"name\": \"suite_tree\", \"events_per_sec\": " << tree_evps << "}\n"
     << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define_flag("csv", "emit CSV instead of an aligned table");
  opts.define_flag("quick", "4x4 geometry instead of the full 4x16");
  opts.define("seed", "42", "workload seed", util::Options::Kind::Int);
  opts.define("json", "BENCH_collective.json", "output path for machine-readable results");
  define_jobs_option(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  const bool csv = opts.has_flag("csv");
  const bool quick = opts.has_flag("quick");
  const int per_cluster = quick ? 4 : 16;
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  const auto& apps = apps::registry();
  // Apps whose original variant floods the WAN with small messages —
  // the traffic the collective layer exists to shrink. The verdict
  // requires a strict wire reduction here; the rest only must not lose.
  const std::vector<std::string> must_reduce = {"Water", "ATPG", "ACP", "RA"};

  auto run_arm = [&](bool tree) {
    std::vector<campaign::SimJob> jobs;
    for (const auto& app : apps) jobs.push_back({app.run, arm_config(per_cluster, seed, tree)});
    return campaign::run_sim_jobs(jobs, {njobs});
  };
  using Clock = std::chrono::steady_clock;
  std::cout << "collective bench: " << 2 * apps.size() << " simulations (4x"
            << per_cluster << ")\n";
  const auto t0 = Clock::now();
  const std::vector<AppResult> r_flat = run_arm(false);
  const auto t1 = Clock::now();
  const std::vector<AppResult> r_tree = run_arm(true);
  const auto t2 = Clock::now();

  auto evps = [](const std::vector<AppResult>& rs, Clock::duration wall) {
    double events = 0;
    for (const AppResult& r : rs) events += static_cast<double>(r.events);
    const double sec = std::chrono::duration<double>(wall).count();
    return sec > 0 ? events / sec : 0.0;
  };
  const double flat_evps = evps(r_flat, t1 - t0);
  const double tree_evps = evps(r_tree, t2 - t1);

  std::vector<std::string> names;
  std::vector<ArmStats> flat, tree;
  bool ok = true;
  std::vector<std::string> complaints;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    names.push_back(apps[i].name);
    flat.push_back(arm_stats(r_flat[i]));
    tree.push_back(arm_stats(r_tree[i]));
    if (r_tree[i].checksum != r_flat[i].checksum) {
      ok = false;
      complaints.push_back(apps[i].name + ": tree checksum diverged");
    }
    // The perf floors below are statements about the full 4x16
    // experiment geometry; at the --quick smoke scale several apps
    // barely touch the WAN (nothing to combine) and the search apps'
    // schedules are noisy, so quick runs enforce only checksum
    // equality and the --jobs-independence of this table.
    if (quick) continue;
    // 1 µs of slack: a combined train's arrival is one serialize_time
    // of the total where flat rounds per message, so the two schedules
    // can differ by a few ns of integer rounding without either being
    // "slower".
    if (tree.back().elapsed > flat.back().elapsed + 1000) {
      ok = false;
      complaints.push_back(apps[i].name + ": tree slower than flat");
    }
    const bool reduce = std::find(must_reduce.begin(), must_reduce.end(), apps[i].name) !=
                        must_reduce.end();
    if (reduce && !(tree.back().wire_msgs < flat.back().wire_msgs &&
                    tree.back().wire_bytes < flat.back().wire_bytes)) {
      ok = false;
      complaints.push_back(apps[i].name + ": WAN wire traffic not reduced");
    }
  }

  util::Table t({"app", "wan msgs flat", "tree", "msg x", "wan KB flat", "tree", "byte x",
                 "rpcs flat", "tree", "elapsed s flat", "tree", "time x"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto ratio = [](double a, double b) { return a > 0 ? b / a : 0.0; };
    t.row()
        .add(names[i])
        .add(flat[i].wire_msgs, 0)
        .add(tree[i].wire_msgs, 0)
        .add(ratio(flat[i].wire_msgs, tree[i].wire_msgs), 3)
        .add(flat[i].wire_bytes / 1024.0, 0)
        .add(tree[i].wire_bytes / 1024.0, 0)
        .add(ratio(flat[i].wire_bytes, tree[i].wire_bytes), 3)
        .add(flat[i].rpc_msgs, 0)
        .add(tree[i].rpc_msgs, 0)
        .add(sim::to_seconds(flat[i].elapsed), 3)
        .add(sim::to_seconds(tree[i].elapsed), 3)
        .add(ratio(static_cast<double>(flat[i].elapsed),
                   static_cast<double>(tree[i].elapsed)),
             3);
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  const sim::SimTime s1 = stream_point(1);
  const sim::SimTime s4 = stream_point(4);
  std::cout << "streams micro (4 MB point-to-point): 1 stream "
            << sim::to_milliseconds(s1) << " ms, 4 streams " << sim::to_milliseconds(s4)
            << " ms (" << static_cast<double>(s1) / static_cast<double>(s4) << "x)\n";

  for (const std::string& c : complaints) std::cout << "VIOLATION: " << c << "\n";
  if (quick) {
    std::cout << (ok ? "quick smoke: checksums agree (perf floors gate at 4x16)\n"
                     : "COLLECTIVE CONTRACT VIOLATED\n");
  } else {
    std::cout << (ok ? "collective contract holds on every app\n"
                     : "COLLECTIVE CONTRACT VIOLATED\n");
  }
  write_json(opts.get("json"), names, flat, tree, flat_evps, tree_evps, s1, s4, ok);
  std::cout << "wrote " << opts.get("json") << "\n";
  return ok ? 0 : 1;
}
