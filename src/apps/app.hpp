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
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

/// Compiles a host kernel twice, for AVX2 and for the baseline ISA, and
/// lets the loader pick the clone the CPU runs (GCC/Clang on x86-64;
/// nothing elsewhere). Only for kernels whose every operation is on
/// integers or correctly rounded, so both clones give the same bits
/// (DESIGN.md §5, item 6). A ThreadSanitizer build keeps the baseline
/// clone alone: the loader runs the clone resolver before the TSan
/// runtime is up, and the program crashes at start.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define ALB_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ALB_KERNEL_CLONES
#endif

namespace alb::apps {

struct AppConfig {
  int clusters = 1;
  int procs_per_cluster = 1;
  /// Link, gateway and WAN transport parameters. Its geometry fields
  /// (`clusters`, `nodes_per_cluster`) are ignored: topology() is the
  /// authoritative description of the network a run simulates. The WAN
  /// stream count (--wan-streams) lives in wan_transport.streams only.
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

  /// The topology a run of this config builds: net_cfg with the run's
  /// geometry and the combine threshold applied (an explicit
  /// combine_bytes wins; Tree defaults to kTreeDefaultCombineBytes when
  /// net_cfg left combining off). The one resolver: the simulation, the
  /// scenario validator, the cache key and the causal analysis all read
  /// this object.
  net::TopologyConfig topology() const {
    net::TopologyConfig t = net_cfg;
    t.clusters = clusters;
    t.nodes_per_cluster = procs_per_cluster;
    if (combine_bytes >= 0) {
      t.wan_transport.combine_bytes = static_cast<std::size_t>(combine_bytes);
    } else if (coll == orca::coll::Mode::Tree && t.wan_transport.combine_bytes == 0) {
      t.wan_transport.combine_bytes = orca::coll::kTreeDefaultCombineBytes;
    }
    return t;
  }
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
  /// Per-layer metrics, published straight into this snapshot at the
  /// end of the run (sim/net/orca scopes — the Table 4/5 LAN-vs-WAN
  /// breakdown lives here under `net/`).
  trace::MetricsSnapshot stats;
  /// Flight-recorder events, present only when cfg.trace.enabled; shared
  /// so copying an AppResult stays cheap.
  std::shared_ptr<const trace::Trace> trace;
};

/// Simulation stack for one run. Owns the flight recorder, which is
/// null when cfg.trace.enabled is false, and attaches it to the engine
/// before any process is spawned.
struct Harness {
  std::unique_ptr<trace::Recorder> recorder;
  sim::Engine eng;
  net::Network net;
  orca::Runtime rt;

  Harness(const AppConfig& cfg, orca::Runtime::Config rtc = {})
      : recorder(cfg.trace.enabled ? std::make_unique<trace::Recorder>(cfg.trace) : nullptr),
        net(eng, cfg.topology(), cfg.faults, cfg.seed), rt(net, with_coll(std::move(rtc), cfg)) {
    eng.attach_trace(recorder.get());
  }

  /// Spawns, runs to completion and fills in elapsed + traffic +
  /// compute/communication breakdown + the per-layer metrics snapshot
  /// (and, when recording was enabled, the trace, moved out of the
  /// recorder).
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
    sim::publish_metrics(eng, r.stats);
    net.publish_metrics(r.stats);
    rt.publish_metrics(r.stats);
    r.stats.set_counter("sim/compute_ns", static_cast<std::uint64_t>(computed));
    if (recorder) r.trace = std::make_shared<const trace::Trace>(std::move(*recorder).harvest());
    return r;
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
