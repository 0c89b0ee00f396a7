// Quickstart: the core concepts in ~100 lines.
//
// Builds a two-cluster wide-area system (DAS parameters), spawns one
// process per compute node, and exercises the Orca programming model:
// a replicated object (local reads, totally-ordered broadcast writes)
// and a non-replicated object (RPC). Prints what each operation cost in
// simulated time, demonstrating the two-orders-of-magnitude LAN/WAN gap
// the paper is about.
//
//   ./quickstart [--clusters=N] [--procs=N]

#include <iostream>

#include "net/presets.hpp"
#include "net/topology.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"
#include "util/options.hpp"

using namespace alb;

struct Counter {
  long long value = 0;
};

int main(int argc, char** argv) {
  util::Options opts;
  opts.define("clusters", "2", "number of clusters", util::Options::Kind::Int);
  opts.define("procs", "4", "compute nodes per cluster", util::Options::Kind::Int);
  if (!util::parse_options(opts, argc, argv)) return 0;
  const int clusters = static_cast<int>(opts.get_int("clusters"));
  const int procs = static_cast<int>(opts.get_int("procs"));

  // 1. The simulation stack: engine -> network -> runtime. A topology
  // range-checks its geometry when it is built.
  const net::TopologyConfig net_cfg = net::das_config(clusters, procs);
  try {
    const net::Topology check(net_cfg);
  } catch (const net::ConfigError& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }
  sim::Engine engine;
  net::Network network(engine, net_cfg);
  orca::Runtime runtime(network);

  // 2. Shared objects are created before the processes start.
  auto replicated = orca::create_replicated<Counter>(runtime, Counter{});
  auto remote = orca::create_remote<Counter>(runtime, /*owner_rank=*/0, Counter{});

  // 3. One process per compute node; rank == node id.
  runtime.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    // Local read of a replicated object: free.
    long long seen = replicated.read(p, [](const Counter& c) { return c.value; });
    (void)seen;

    if (p.rank == p.nprocs - 1) {  // the last process, in the last cluster
      // RPC on a non-replicated object: ~40 us within the cluster,
      // ~2.7 ms across the WAN.
      sim::SimTime t0 = p.now();
      co_await remote.invoke_void(p, 16, 8, [](Counter& c) { ++c.value; });
      std::cout << "rank " << p.rank << " (cluster " << p.cluster()
                << "): RPC to rank 0 took " << sim::to_microseconds(p.now() - t0)
                << " us\n";

      // Totally-ordered broadcast write on a replicated object.
      t0 = p.now();
      co_await replicated.write(p, 16, [](Counter& c) { c.value += 10; });
      std::cout << "rank " << p.rank << ": replicated write returned after "
                << sim::to_microseconds(p.now() - t0) << " us (local apply)\n";
    }

    // Wait until the broadcast reached this replica, then a global
    // barrier so the printout below sees the final state.
    co_await replicated.wait_until(p, [](const Counter& c) { return c.value >= 10; });
    co_await runtime.barrier(p);
    if (p.rank == 0) {
      std::cout << "all " << p.nprocs << " replicas converged at t="
                << sim::to_milliseconds(p.now()) << " ms\n";
    }
  });

  runtime.run_all();

  // 4. The network kept score.
  const auto& s = network.stats();
  std::cout << "intercluster traffic: " << s.inter_rpc_count() << " RPCs, "
            << s.inter_bcast_count() << " broadcast/control messages\n"
            << "simulated time: " << sim::to_milliseconds(runtime.last_finish())
            << " ms over " << engine.events_processed() << " events\n";
  return 0;
}
