// Tables 4 and 5: intercluster traffic of every application before and
// after optimization, on 4 clusters x 15 processors — RPC messages and
// kilobytes (requests + replies + point-to-point data), and broadcast
// messages and kilobytes (data + ordering/control traffic), counting
// each WAN-circuit crossing once.

#include <iostream>

#include "bench_common.hpp"
#include "paper.hpp"

namespace {

struct Row {
  long long rpc_count;
  long long rpc_kb;
  long long bc_count;
  long long bc_kb;
};

Row traffic_row(const alb::apps::AppResult& r) {
  const auto& s = r.traffic;
  return Row{
      static_cast<long long>(s.inter_rpc_count() + s.inter_data_count()),
      static_cast<long long>((s.inter_rpc_bytes() + s.inter_data_bytes()) / 1024),
      static_cast<long long>(s.inter_bcast_count()),
      static_cast<long long>(s.inter_bcast_bytes() / 1024),
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;

  std::vector<campaign::SimJob> jobs;
  for (const auto& entry : apps::registry()) {
    jobs.push_back({entry.run, make_config(4, 15, false, fo.seed)});
    jobs.push_back({entry.run, make_config(4, 15, true, fo.seed)});
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {fo.jobs});

  const std::vector<std::string> cols{"app",         "#RPC",       "RPC kbyte",   "#bcast",
                                      "bcast kbyte", "paper #RPC", "paper #bcast"};
  util::Table before(cols);
  util::Table after(cols);
  auto add = [](util::Table& t, const std::string& app, const Row& r, long long paper_rpc,
                long long paper_bc) {
    auto quoted = [](long long v) { return v < 0 ? std::string("-") : std::to_string(v); };
    t.row().add(app).add(r.rpc_count).add(r.rpc_kb).add(r.bc_count).add(r.bc_kb)
        .add(quoted(paper_rpc)).add(quoted(paper_bc));
  };
  std::size_t i = 0;
  for (const auto& entry : apps::registry()) {
    const paper::App& p = paper::app(entry.name);
    add(before, entry.name, traffic_row(results[i++]), p.rpc_before, p.bcast_before);
    add(after, entry.name, traffic_row(results[i++]), p.rpc_after, p.bcast_after);
  }
  std::cout << "=== Table 4: intercluster traffic BEFORE optimization (P=60, C=4) ===\n";
  if (fo.csv) before.print_csv(std::cout);
  else before.print(std::cout);
  std::cout << "\n=== Table 5: intercluster traffic AFTER optimization (P=60, C=4) ===\n";
  if (fo.csv) after.print_csv(std::cout);
  else after.print(std::cout);
  std::cout << "\nPaper's reading: traffic-reduction apps (Water, TSP, ATPG, IDA*, SOR)\n"
               "cut intercluster volume; latency-hiding apps (ASP, RA) shift it into\n"
               "fewer/larger or pipelined messages rather than eliminating it.\n";
  return 0;
}
