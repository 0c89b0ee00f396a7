// Table 1: application-to-application performance of the low-level Orca
// primitives — null-operation latency and 100 KB-message bandwidth for
// RPC (non-replicated objects) and totally-ordered broadcast (replicated
// objects), on the LAN (Myrinet) and across the WAN (ATM). The paper's
// values are in paper.hpp.

#include <iostream>

#include "bench_common.hpp"
#include "orca/shared_object.hpp"
#include "paper.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct Slot {
  std::vector<char> data;
  int version = 0;
};

struct Measure {
  double latency_us = 0;
  double bandwidth_mbit = 0;
};

/// Latency: null operation roundtrip. Bandwidth: a train of 100 KB
/// messages, measured at the receiver (as the paper does).
Measure rpc_micro(bool cross_wan) {
  Measure m;
  {  // latency
    sim::Engine eng;
    net::Network net(eng, net::das_config(2, 4));
    orca::Runtime rt(net);
    auto obj = orca::create_remote<Slot>(rt, 0, {});
    const int caller = cross_wan ? 4 : 1;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank != caller) co_return;
      const int reps = 8;
      sim::SimTime t0 = p.now();
      for (int i = 0; i < reps; ++i) {
        co_await obj.invoke_void(p, 0, 0, [](Slot& s) { ++s.version; });
      }
      elapsed = (p.now() - t0) / reps;
    });
    rt.run_all();
    m.latency_us = sim::to_microseconds(elapsed);
  }
  {  // bandwidth
    sim::Engine eng;
    net::Network net(eng, net::das_config(2, 4));
    orca::Runtime rt(net);
    auto obj = orca::create_remote<Slot>(rt, 0, {});
    const int caller = cross_wan ? 4 : 1;
    const std::size_t bytes = 100 * 1024;
    const int reps = 20;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank != caller) co_return;
      sim::SimTime t0 = p.now();
      for (int i = 0; i < reps; ++i) {
        co_await obj.invoke_void(p, bytes, 8, [](Slot& s) { ++s.version; });
      }
      elapsed = p.now() - t0;
    });
    rt.run_all();
    m.bandwidth_mbit =
        static_cast<double>(bytes) * reps * 8.0 / sim::to_seconds(elapsed) / 1e6;
  }
  return m;
}

Measure bcast_micro(bool cross_wan) {
  Measure m;
  {  // latency: time until the update is applied at a remote replica
    sim::Engine eng;
    // 60-replica set, matching the paper's benchmark setup.
    net::Network net(eng, cross_wan ? net::das_config(4, 15) : net::das_config(1, 60));
    orca::Runtime rt(net);
    auto obj = orca::create_replicated<Slot>(rt, {});
    // WAN case: four clusters run the multicluster default, the rotating
    // sequencer. The writer's cluster does not hold its token, so the
    // write waits for the token to come round (DESIGN §6c) before the
    // local delivery. The paper does not say which sequencer it used.
    const int writer = cross_wan ? 18 : 3;
    const int observer = cross_wan ? 20 : 30;
    sim::SimTime delivered = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank == writer) {
        co_await obj.write(p, 0, [](Slot& s) { ++s.version; });
      } else if (p.rank == observer) {
        sim::SimTime t0 = p.now();
        co_await obj.wait_until(p, [](const Slot& s) { return s.version > 0; });
        delivered = p.now() - t0;
      }
    });
    rt.run_all();
    m.latency_us = sim::to_microseconds(delivered);
  }
  {  // bandwidth: 100 KB replicated updates, observed at a remote replica
    sim::Engine eng;
    net::Network net(eng, cross_wan ? net::das_config(4, 15) : net::das_config(1, 60));
    orca::Runtime rt(net);
    auto obj = orca::create_replicated<Slot>(rt, {});
    const std::size_t bytes = 100 * 1024;
    const int reps = 10;
    const int observer = cross_wan ? 59 : 30;
    sim::SimTime elapsed = 0;
    rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
      if (p.rank == 3) {
        for (int i = 0; i < reps; ++i) {
          co_await obj.write(p, bytes, [](Slot& s) { ++s.version; });
        }
      } else if (p.rank == observer) {
        sim::SimTime t0 = p.now();
        co_await obj.wait_until(p, [reps](const Slot& s) { return s.version >= reps; });
        elapsed = p.now() - t0;
      }
    });
    rt.run_all();
    m.bandwidth_mbit =
        static_cast<double>(bytes) * reps * 8.0 / sim::to_seconds(elapsed) / 1e6;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;

  util::Table t({"benchmark", "LAN latency", "WAN latency", "LAN bandwidth",
                 "WAN bandwidth", "paper LAN/WAN lat", "paper LAN/WAN bw"});
  auto add_row = [&](const std::string& label, const Measure& lan, const Measure& wan,
                     const paper::Primitive& p) {
    using util::format_fixed;
    t.row()
        .add(label)
        .add(format_fixed(lan.latency_us, 0) + " us")
        .add(format_fixed(wan.latency_us / 1000.0, 2) + " ms")
        .add(format_fixed(lan.bandwidth_mbit, 0) + " Mbit/s")
        .add(format_fixed(wan.bandwidth_mbit, 2) + " Mbit/s")
        .add(format_fixed(p.lan_latency_us, 0) + " us / " + format_fixed(p.wan_latency_ms, 1) +
             " ms")
        .add(format_fixed(p.lan_mbit, 0) + " / " + format_fixed(p.wan_mbit, 2) + " Mbit/s");
  };
  add_row("RPC (non-replicated)", rpc_micro(false), rpc_micro(true), paper::kRpc);
  add_row("Broadcast (replicated; WAN rotating sequencer)", bcast_micro(false),
          bcast_micro(true), paper::kBroadcast);

  std::cout << "=== Table 1: low-level Orca primitive performance ===\n";
  if (fo.csv) t.print_csv(std::cout);
  else t.print(std::cout);
  return 0;
}
