#pragma once
// Common application harness.
//
// Every application from the paper's suite (§3, Table 2) is exposed as a
// run_<app>() function taking the shared AppConfig (topology, optimized
// flag, seed) plus app-specific parameters, and returning an AppResult
// with the simulated parallel run time, a correctness checksum that must
// match the sequential reference, traffic counters, and app metrics.
//
// Applications execute their real algorithms; computation is charged to
// simulated time through per-work-unit cost constants in each app's
// Params (calibrated against Table 2, see EXPERIMENTS.md).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"
#include "trace/trace.hpp"

namespace alb::apps {

struct AppConfig {
  int clusters = 1;
  int procs_per_cluster = 1;
  /// WAN parameters; the cluster/node counts inside are overwritten.
  net::TopologyConfig net_cfg = net::das_config(1, 1);
  /// Run the wide-area-optimized variant instead of the original.
  bool optimized = false;
  std::uint64_t seed = 42;
  /// Flight-recorder settings (off by default; see src/trace/trace.hpp).
  /// Metrics are collected regardless — only event recording is gated.
  trace::Config trace;
  /// Deterministic WAN fault injection (disabled by default; see
  /// src/net/fault.hpp and docs/RESILIENCE.md). A disabled plan is a
  /// strict no-op: the run is byte-identical to one without this field.
  net::FaultPlan faults;
  /// Wide-area collective routing (--coll). Flat is byte-identical to
  /// the historical dissemination; Tree also arms gateway message
  /// combining at orca::coll::kTreeDefaultCombineBytes unless the
  /// config chose its own threshold.
  orca::coll::Mode coll = orca::coll::Mode::Flat;
  /// Parallel WAN sub-streams per circuit (--wan-streams); forwarded to
  /// net_cfg.wan_transport.streams when != 1.
  int wan_streams = 1;
  /// Gateway combine threshold in bytes (--combine-bytes); < 0 leaves
  /// the policy default (0 for Flat, kTreeDefaultCombineBytes for
  /// Tree), 0 disables combining explicitly.
  std::int64_t combine_bytes = -1;
  /// Adaptive policy engine (--adapt): the runtime detects the paper's
  /// §4 WAN-bound patterns at epoch boundaries and applies the matching
  /// optimization mid-run (docs/ADAPTIVE.md). Off is a byte-identical
  /// no-op. Explicit choices win over policy: --coll tree suppresses
  /// the tree policy, --combine-bytes the combining policy, and an app-
  /// forced sequencer the migration policy (orca/adapt.override.*).
  bool adapt = false;

  int total_procs() const { return clusters * procs_per_cluster; }
};

struct AppResult {
  enum class RunStatus {
    Ok,
    /// Fault-injection recovery exhausted its retry budget: the run was
    /// cut short, `error` describes the failing operation, and checksum
    /// is not meaningful. Only reachable with an enabled FaultPlan.
    HardFailure,
  };

  /// Simulated time of the parallel phase (last process finish).
  sim::SimTime elapsed = 0;
  RunStatus status = RunStatus::Ok;
  /// Human-readable failure description (empty when status == Ok).
  std::string error;
  /// Deterministic fingerprint of the computed answer; must equal the
  /// sequential reference and be identical for original vs optimized
  /// (except where the algorithm legitimately changes, e.g. chaotic SOR).
  std::uint64_t checksum = 0;
  /// Engine trace hash over the (time, seq) stream of every event the run
  /// processed — the strictest reproducibility fingerprint we have. Golden
  /// values are pinned by tests/integration/trace_golden_test.cpp.
  std::uint64_t trace_hash = 0;
  /// Total events the engine dispatched for this run.
  std::uint64_t events = 0;
  net::TrafficStats traffic;
  /// App-specific scalar metrics (iterations, nodes expanded, ...).
  std::map<std::string, double> metrics;
  /// Full per-layer metrics registry dump (sim/net/orca scopes — the
  /// Table 4/5 LAN-vs-WAN breakdown lives here under `net/`).
  trace::MetricsSnapshot stats;
  /// Flight-recorder events, present only when cfg.trace.enabled; shared
  /// so copying an AppResult stays cheap.
  std::shared_ptr<const trace::Trace> trace;
};

/// Simulation stack for one run. Owns the trace session (flight
/// recorder + metrics registry) and attaches it to the engine before
/// the network is built, so every layer can cache its instruments at
/// construction time.
struct Harness {
  sim::Engine eng;
  trace::Session trace;
  net::Network net;
  orca::Runtime rt;

  Harness(const AppConfig& cfg, orca::Runtime::Config rtc = {})
      : trace(cfg.trace), net(prepare(eng, trace, cfg), patch(cfg), cfg.faults, cfg.seed),
        rt(net, with_coll(std::move(rtc), cfg)) {}

  /// Spawns, runs to completion and fills in elapsed + traffic +
  /// compute/communication breakdown + the per-layer metrics snapshot
  /// (and the harvested trace when recording was enabled).
  AppResult finish(orca::Runtime::ProcMain main) {
    rt.spawn_all(std::move(main));
    AppResult r;
    r.elapsed = rt.run_all();
    if (net::FaultInjector* f = net.faults(); f != nullptr && f->failed()) {
      r.status = AppResult::RunStatus::HardFailure;
      r.error = f->failure()->describe();
    }
    r.trace_hash = eng.trace_hash();
    r.events = eng.events_processed();
    r.traffic = net.stats();
    sim::SimTime computed = 0;
    for (int i = 0; i < rt.nprocs(); ++i) computed += rt.proc(i).computed();
    // Fraction of the processes' aggregate wall time spent computing;
    // the remainder is communication + idle (load imbalance).
    if (r.elapsed > 0) {
      r.metrics["compute_fraction"] =
          static_cast<double>(computed) /
          (static_cast<double>(r.elapsed) * rt.nprocs());
    }
    sim::publish_metrics(eng, trace.metrics());
    net.publish_metrics(trace.metrics());
    rt.publish_metrics(trace.metrics());
    *trace.metrics().counter("sim/compute_ns") = static_cast<std::uint64_t>(computed);
    r.stats = trace.metrics().snapshot();
    if (trace.config().enabled) {
      r.trace = std::make_shared<const alb::trace::Trace>(trace.harvest());
    }
    return r;
  }

 private:
  /// Member-initialization shim: attaches the trace session to the
  /// engine and gives the engine one owner per cluster — both before
  /// Network's constructor runs (Network caches the session's
  /// instruments).
  static sim::Engine& prepare(sim::Engine& e, alb::trace::Session& s, const AppConfig& cfg) {
    e.attach_trace(&s);
    e.set_owners(cfg.clusters);
    return e;
  }

 public:
  /// The topology a run of `cfg` builds: net_cfg with the run's
  /// geometry and WAN transport flags applied. Front-ends validate it
  /// to reject a config before simulating it.
  static net::TopologyConfig patch(const AppConfig& cfg) {
    net::TopologyConfig t = cfg.net_cfg;
    t.clusters = cfg.clusters;
    t.nodes_per_cluster = cfg.procs_per_cluster;
    // Transport-level WAN knobs. Only non-default AppConfig values
    // overwrite net_cfg, so configs that set wan_transport directly
    // keep working.
    if (cfg.wan_streams != 1) t.wan_transport.streams = cfg.wan_streams;
    if (cfg.combine_bytes >= 0) {
      t.wan_transport.combine_bytes = static_cast<std::size_t>(cfg.combine_bytes);
    } else if (cfg.coll == orca::coll::Mode::Tree && t.wan_transport.combine_bytes == 0) {
      t.wan_transport.combine_bytes = orca::coll::kTreeDefaultCombineBytes;
    }
    return t;
  }

 private:
  /// Copies the harness-level collective + adaptive policy into the
  /// runtime config, resolving flag-vs-policy precedence (explicit
  /// flags win; the Runtime itself resolves an app-forced sequencer and
  /// the adaptive engine an explicit --coll shape).
  static orca::Runtime::Config with_coll(orca::Runtime::Config rtc, const AppConfig& cfg) {
    rtc.coll.mode = cfg.coll;
    if (cfg.adapt) {
      rtc.adapt.enabled = true;
      rtc.adapt.combine_overridden = cfg.combine_bytes >= 0;
    }
    return rtc;
  }
};

/// FNV-1a accumulation helper for checksums.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kHashSeed = 1469598103934665603ull;

/// Registry used by the whole-suite benches (Figures 15/16, Tables 2/4/5).
struct AppEntry {
  std::string name;
  /// Runs the app at its bench-default problem size.
  std::function<AppResult(const AppConfig&)> run;
};
const std::vector<AppEntry>& registry();
/// The registry entry named `name`, or nullptr.
const AppEntry* find_app(const std::string& name);

}  // namespace alb::apps
