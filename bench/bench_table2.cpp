// Table 2: application characteristics of the original programs on one
// local cluster — communication rates (RPCs/s, broadcasts/s, payload
// kbytes/s, totals over all processors) and the speedup.
//
// The paper measured 64 processors; DAS-style runs here use 60 compute
// nodes (the 4-cluster experiments cannot use more), so speedups are
// relative to a 60-way cluster. `--cpus` overrides.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  util::Options opts;
  opts.define_flag("csv", "emit CSV");
  opts.define("cpus", "60", "processors on the single cluster", util::Options::Kind::Int);
  define_jobs_option(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  const int cpus = static_cast<int>(opts.get_int("cpus"));
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  util::Table t({"program", "#RPC/s", "RPC kbytes/s", "#bcast/s", "bcast kbytes/s",
                 "speedup", "paper speedup(64P)"});
  const std::map<std::string, std::string> paper_speedup{
      {"Water", "56.5"}, {"TSP", "62.9"}, {"ASP", "59.3"}, {"ATPG", "50.3"},
      {"IDA*", "62.1"},  {"RA", "25.9"},  {"ACP", "37.0"}, {"SOR", "46.3"}};

  std::vector<campaign::SimJob> jobs;
  for (const auto& entry : apps::registry()) {
    jobs.push_back({entry.run, make_config(1, 1, false)});
    jobs.push_back({entry.run, make_config(1, cpus, false)});
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  std::size_t idx = 0;
  for (const auto& entry : apps::registry()) {
    const AppResult& base = results[idx++];
    const AppResult& r = results[idx++];
    const double secs = sim::to_seconds(r.elapsed);
    const auto& s = r.traffic;
    const double rpcs = static_cast<double>(s.intra_rpc_count() + s.inter_rpc_count() +
                                            s.intra_data_count() + s.inter_data_count());
    const double rpc_kb =
        static_cast<double>(s.intra_rpc_bytes() + s.inter_rpc_bytes() +
                            s.intra_data_bytes() + s.inter_data_bytes()) /
        1024.0;
    const double bcasts =
        static_cast<double>(s.intra_bcast_count() + s.inter_bcast_count());
    const double bc_kb = static_cast<double>(s.kind(net::MsgKind::Bcast).intra_bytes +
                                             s.kind(net::MsgKind::Bcast).inter_bytes) /
                         1024.0;
    t.row()
        .add(entry.name)
        .add(rpcs / secs, 0)
        .add(rpc_kb / secs, 0)
        .add(bcasts / secs, 0)
        .add(bc_kb / secs, 0)
        .add(static_cast<double>(base.elapsed) / static_cast<double>(r.elapsed), 1)
        .add(paper_speedup.at(entry.name));
  }
  std::cout << "=== Table 2: application characteristics on " << cpus
            << " processors, one cluster ===\n"
            << "(point-to-point data messages are folded into the RPC columns,\n"
            << " as in the paper's accounting)\n";
  if (opts.has_flag("csv")) t.print_csv(std::cout);
  else t.print(std::cout);
  return 0;
}
