#pragma once
// Per-process context.
//
// The Orca model runs one application process per compute node. A Proc
// is the handle an application coroutine receives: its rank, its node,
// topology introspection, a deterministic per-process RNG, and the
// compute() awaitable that charges simulated CPU time.

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace alb::orca {

class Runtime;

struct Proc {
  Runtime* rt = nullptr;
  net::Network* net = nullptr;
  int rank = 0;
  int nprocs = 1;
  net::NodeId node = 0;
  sim::Rng rng;

  sim::Engine& engine() const { return net->engine(); }
  sim::SimTime now() const { return net->engine().now(); }

  /// Charges `t` nanoseconds of CPU work to this process. The charge
  /// is accumulated so harnesses can report compute/communication
  /// breakdowns (everything between the charges is communication or
  /// idle time by definition).
  auto compute(sim::SimTime t) const {
    const sim::SimTime d = t < 0 ? 0 : t;
    compute_charged += d;
    // The instant marks the start of a work interval of length `arg`;
    // the causal profiler uses it to tell compute from waiting inside a
    // process's program-order gaps.
    if (trace::Recorder* rec = net->engine().tracer()) {
      rec->instant(trace::Ev::AppCompute, node, 0, static_cast<std::uint64_t>(d));
    }
    return net->engine().delay(t);
  }

  /// Total CPU time this process has charged.
  sim::SimTime computed() const { return compute_charged; }
  mutable sim::SimTime compute_charged = 0;

  // --- cluster-aware introspection (the paper's optimizations key off
  //     exactly this information) --------------------------------------
  net::ClusterId cluster() const { return net->topology().cluster_of(node); }
  int clusters() const { return net->topology().clusters(); }
  int procs_per_cluster() const { return net->topology().nodes_per_cluster(); }
  int index_in_cluster() const { return net->topology().index_in_cluster(node); }
  bool same_cluster(int other_rank) const {
    return net->topology().same_cluster(node, static_cast<net::NodeId>(other_rank));
  }
  /// Rank of the i-th process in cluster c (ranks == node ids).
  int rank_in_cluster(net::ClusterId c, int i) const {
    return net->topology().compute_node(c, i);
  }
  /// First rank of this process's cluster (conventional cluster leader).
  int cluster_leader() const { return rank_in_cluster(cluster(), 0); }
  bool is_cluster_leader() const { return rank == cluster_leader(); }
};

}  // namespace alb::orca
