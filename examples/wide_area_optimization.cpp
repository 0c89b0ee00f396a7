// Demonstrates the wide-area optimization library (src/core) on a small
// custom workload, showing the before/after effect of each primitive the
// paper's applications use:
//
//   1. direct sends vs cluster_reduce       (ATPG pattern, §4.4)
//   2. direct fetches vs ClusterCache       (Water pattern, §4.1)
//   3. per-item sends vs ClusterCombiner    (RA pattern, §4.5)
//
// Each experiment reports simulated completion time and intercluster
// traffic so the trade-offs are visible at a glance.
//
//   ./wide_area_optimization

#include <iostream>
#include <memory>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/cluster_reduce.hpp"
#include "core/message_combiner.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "util/table.hpp"

using namespace alb;

namespace {

struct Outcome {
  double ms;
  long long inter_msgs;
  long long inter_kb;
};

Outcome report(net::Network& net, orca::Runtime& rt) {
  const auto& s = net.stats();
  long long msgs = 0;
  long long bytes = 0;
  for (auto k : {net::MsgKind::Rpc, net::MsgKind::RpcReply, net::MsgKind::Data,
                 net::MsgKind::Bcast, net::MsgKind::Control}) {
    msgs += static_cast<long long>(s.kind(k).inter_msgs);
    bytes += static_cast<long long>(s.kind(k).inter_bytes);
  }
  return {sim::to_milliseconds(rt.last_finish()), msgs, bytes / 1024};
}

/// The direct variant of a reduction: every process sends its value
/// straight to rank 0, so each contribution from outside cluster 0
/// crosses the WAN.
sim::Task<void> direct_reduce(orca::Runtime& rt, const orca::Proc& p, long long local) {
  if (p.rank != 0) {
    rt.send_data(p, 0, 100, 8, net::make_payload<long long>(local));
    co_return;
  }
  for (int i = 1; i < p.nprocs; ++i) (void)co_await rt.recv_data(p, 100);
}

/// 1. Every process contributes a partial sum to rank 0.
Outcome reduction(bool optimized) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 8));
  orca::Runtime rt(net);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    long long local = p.rank * p.rank;
    auto add = [](long long&& a, const long long& b) { return a + b; };
    if (optimized) {
      (void)co_await wide::cluster_reduce<long long>(rt, p, 100, local, 8, add);
    } else {
      co_await direct_reduce(rt, p, local);
    }
  });
  rt.run_all();
  return report(net, rt);
}

/// 2. Every process needs the same 8 KB block owned by rank 0.
Outcome fetch(bool optimized) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 8));
  orca::Runtime rt(net);
  wide::ClusterCache<std::vector<double>> cache(rt, 8192, optimized);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    cache.publish(p, 0, std::make_shared<const std::vector<double>>(1024, 1.0));
    if (p.rank != 0) {
      (void)co_await cache.fetch(p, 0, 0);
    }
  });
  rt.run_all();
  return report(net, rt);
}

/// 3. Every process streams 200 small items to random peers.
Outcome scatter(bool optimized) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 8));
  orca::Runtime rt(net);
  wide::ClusterCombiner<int>::Options opt;
  opt.item_bytes = 16;
  opt.enabled = optimized;
  opt.flush_items = 64;
  int delivered = 0;
  wide::ClusterCombiner<int> comb(rt, opt, [&](int, int&&) { ++delivered; });
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      comb.send(p, static_cast<int>(p.rng.uniform_int(0, p.nprocs - 1)), i);
    }
    co_await p.compute(sim::milliseconds(1));
    comb.flush(p);
    co_await p.compute(sim::milliseconds(400));  // drain window
  });
  rt.run_all();
  return report(net, rt);
}

}  // namespace

int main() {
  util::Table t({"pattern", "variant", "time ms", "inter msgs", "inter KB"});
  struct Case {
    const char* name;
    Outcome (*fn)(bool);
  };
  for (const Case& c : {Case{"all-to-one reduction", reduction},
                        Case{"shared block fetch", fetch},
                        Case{"irregular scatter", scatter}}) {
    Outcome before = c.fn(false);
    Outcome after = c.fn(true);
    t.row().add(c.name).add("direct").add(before.ms, 2).add(before.inter_msgs).add(
        before.inter_kb);
    t.row().add(c.name).add("cluster-aware").add(after.ms, 2).add(after.inter_msgs).add(
        after.inter_kb);
  }
  std::cout << "Wide-area optimization primitives on 4 clusters x 8 nodes\n\n";
  t.print(std::cout);
  std::cout << "\nEach cluster-aware variant funnels intercluster work through one\n"
               "process per cluster, the common thread of the paper's Table 3.\n";
  return 0;
}
