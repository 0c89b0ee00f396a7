// Hot-path micro-benchmark suite for the simulator substrate (wall-clock
// performance, not a paper figure). Four benches cover the event/message
// pipeline end to end:
//
//   event_churn       raw schedule/dispatch throughput of the engine
//   lan_unicast       intracluster send -> mailbox -> coroutine receive
//   wan_multi_hop     intercluster send through both gateways and the WAN
//   broadcast_fanout  totally-ordered Orca broadcast on 4 clusters
//
// Each bench reports events/sec and ns/event (engine events dispatched,
// the unit the zero-allocation refactor targets) plus ops/sec in the
// bench's own unit (messages, writes). Results are written to a
// machine-readable JSON file (default BENCH_engine.json) so successive
// PRs can track the perf trajectory; results/BENCH_engine.baseline.json
// holds the pre-refactor numbers this PR is measured against.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace alb;

struct BenchResult {
  std::string name;
  std::uint64_t ops = 0;          // bench-specific unit per rep
  std::uint64_t events = 0;       // engine events per rep
  double best_sec = 0;            // fastest rep
  int reps = 0;

  double events_per_sec() const { return static_cast<double>(events) / best_sec; }
  double ns_per_event() const { return best_sec * 1e9 / static_cast<double>(events); }
  double ops_per_sec() const { return static_cast<double>(ops) / best_sec; }
};

/// Runs `body` (one full simulation) repeatedly until `min_sec` of total
/// wall time is spent and at least `min_reps` reps ran; keeps the best.
template <typename Body>
BenchResult run_bench(const std::string& name, double min_sec, int min_reps, Body body) {
  using Clock = std::chrono::steady_clock;
  BenchResult r;
  r.name = name;
  double total = 0;
  while (total < min_sec || r.reps < min_reps) {
    auto t0 = Clock::now();
    auto [ops, events] = body();
    double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    total += sec;
    ++r.reps;
    if (r.best_sec == 0 || sec < r.best_sec) {
      r.best_sec = sec;
      r.ops = ops;
      r.events = events;
    }
  }
  return r;
}

using Sample = std::pair<std::uint64_t, std::uint64_t>;  // (ops, events)

/// Pure engine event churn: a spread of empty events across 97 distinct
/// times, scheduled and dispatched in waves to keep the pending set warm.
Sample event_churn(int n) {
  sim::Engine eng;
  for (int i = 0; i < n; ++i) eng.schedule_after(i % 97, [] {});
  std::uint64_t ops = eng.run();
  return {ops, eng.events_processed()};
}

/// Streaming intracluster unicast: node 0 floods node 1, a coroutine
/// drains the mailbox. Exercises link charging, mailbox delivery and the
/// coroutine resume path.
Sample lan_unicast(int n) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(1, 4));
  eng.spawn([](net::Network& nw, int msgs) -> sim::Task<void> {
    for (int i = 0; i < msgs; ++i) {
      net::Message m;
      m.src = 0;
      m.dst = 1;
      m.bytes = 64;
      m.tag = 7;
      nw.send(std::move(m));
      if ((i & 63) == 0) co_await nw.engine().yield();  // let the drain keep up
    }
  }(net, n));
  eng.spawn([](net::Network& nw, int msgs) -> sim::Task<void> {
    for (int i = 0; i < msgs; ++i) {
      (void)co_await nw.endpoint(1).receive(7);
    }
  }(net, n));
  eng.run();
  return {static_cast<std::uint64_t>(n), eng.events_processed()};
}

/// Intercluster unicast: every message crosses access link, both
/// gateways (store-and-forward) and the WAN circuit — the 5-hop path.
Sample wan_multi_hop(int n) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(2, 4));
  for (int i = 0; i < n; ++i) {
    net::Message m;
    m.src = i % 4;
    m.dst = 4 + i % 4;
    m.bytes = 64;
    m.tag = 7;
    net.send(std::move(m));
  }
  eng.spawn([](net::Network& nw, int msgs) -> sim::Task<void> {
    for (int i = 0; i < msgs; ++i) {
      (void)co_await nw.endpoint(4 + i % 4).receive(7);
    }
  }(net, n));
  eng.run();
  return {static_cast<std::uint64_t>(n), eng.events_processed()};
}

/// Totally-ordered broadcast fan-out: one writer updates a replicated
/// object on a 4-cluster topology (sequencer traffic, LAN broadcast,
/// WAN re-broadcast, reorder buffers, 16 local applies per write).
Sample broadcast_fanout(int n) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(4, 4));
  orca::Runtime rt(net);
  auto obj = orca::create_replicated<long long>(rt, 0);
  rt.spawn_all([&, n](orca::Proc& p) -> sim::Task<void> {
    if (p.rank != 2) co_return;
    for (int i = 0; i < n; ++i) {
      co_await obj.write(p, 32, [](long long& v) { ++v; });
    }
  });
  rt.run_all();
  return {static_cast<std::uint64_t>(n), eng.events_processed()};
}

void write_json(const std::string& path, const std::vector<BenchResult>& results) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_engine\",\n  \"unit\": \"events/sec\",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
       << ", \"events\": " << r.events << ", \"reps\": " << r.reps
       << ", \"best_sec\": " << r.best_sec
       << ", \"events_per_sec\": " << static_cast<std::uint64_t>(r.events_per_sec())
       << ", \"ns_per_event\": " << r.ns_per_event()
       << ", \"ops_per_sec\": " << static_cast<std::uint64_t>(r.ops_per_sec()) << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define("json", "BENCH_engine.json", "output path for machine-readable results");
  opts.define("min-time-ms", "300", "minimum wall time per bench", util::Options::Kind::Int);
  opts.define_flag("smoke", "single tiny rep per bench (CI smoke mode)");
  if (!util::parse_options(opts, argc, argv)) return 0;

  const bool smoke = opts.has_flag("smoke");
  const double min_sec = smoke ? 0.0 : static_cast<double>(opts.get_int("min-time-ms")) / 1e3;
  const int reps = smoke ? 1 : 3;
  const int scale = smoke ? 1 : 16;

  std::vector<BenchResult> results;
  results.push_back(run_bench("event_churn", min_sec, reps,
                              [&] { return event_churn(4096 * scale); }));
  results.push_back(run_bench("lan_unicast", min_sec, reps,
                              [&] { return lan_unicast(1024 * scale); }));
  results.push_back(run_bench("wan_multi_hop", min_sec, reps,
                              [&] { return wan_multi_hop(1024 * scale); }));
  results.push_back(run_bench("broadcast_fanout", min_sec, reps,
                              [&] { return broadcast_fanout(64 * scale); }));

  util::Table t({"bench", "ops", "events", "events/sec", "ns/event", "ops/sec"});
  for (const BenchResult& r : results) {
    t.row()
        .add(r.name)
        .add(static_cast<unsigned long long>(r.ops))
        .add(static_cast<unsigned long long>(r.events))
        .add(r.events_per_sec(), 0)
        .add(r.ns_per_event(), 1)
        .add(r.ops_per_sec(), 0);
  }
  t.print(std::cout);

  const std::string json = opts.get("json");
  write_json(json, results);
  std::cout << "\nwrote " << json << "\n";
  return 0;
}
