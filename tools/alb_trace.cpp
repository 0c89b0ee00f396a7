// alb-trace: run one application configuration with the flight recorder
// on and emit its observability artifacts:
//
//   * a Chrome trace_event JSON timeline (open in chrome://tracing or
//     ui.perfetto.dev) via --trace-out,
//   * the full metrics registry as CSV (--metrics-out) or JSON
//     (--metrics-json),
//   * and, on stdout, the run summary, the LAN/WAN traffic breakdown in
//     the paper's Table 4/5 taxonomy, WAN circuit queueing/size
//     distributions, and a per-phase WAN traffic table (phases are
//     delimited by global barrier releases found in the trace).
//
// Everything printed or written is a pure function of (app, topology,
// seed, variant): byte-identical on re-run. docs/OBSERVABILITY.md walks
// through a worked example.

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "net/fault.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/causal/causal.hpp"
#include "trace/chrome_trace.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace alb;

/// One barrier-delimited phase of WAN activity, from the trace stream.
struct Phase {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::uint64_t wan_msgs = 0;
  std::uint64_t wan_bytes = 0;
  std::uint64_t bcasts = 0;
  std::uint64_t rpcs = 0;
};

std::vector<Phase> split_phases(const trace::Trace& tr) {
  std::vector<Phase> phases(1);
  for (const trace::TraceEvent& e : tr.events) {
    Phase& cur = phases.back();
    cur.end = e.time;
    const std::string_view name = e.name;
    if (name == "net.wan" && e.phase == trace::EventPhase::Begin) {
      ++cur.wan_msgs;
      cur.wan_bytes += e.arg;
    } else if (name == "orca.bcast" && e.phase == trace::EventPhase::Begin) {
      ++cur.bcasts;
    } else if (name == "orca.rpc" && e.phase == trace::EventPhase::Begin) {
      ++cur.rpcs;
    } else if (name == "orca.barrier.release") {
      phases.push_back(Phase{e.time, e.time, 0, 0, 0, 0});
    }
  }
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alb;
  util::Options opts;
  opts.define("app", "TSP", "app name from the registry (Water, TSP, ASP, ATPG, IDA*, RA, ACP, SOR)");
  opts.define("scenario", "das",
              "scenario providing topology, faults and wide-area flags: a name "
              "resolved under the shipped scenarios/ directory or a path to a "
              ".scn file (docs/SCENARIOS.md); explicit CLI options override it");
  opts.define("run", "0", "which expanded run of the scenario to execute (see [run]/[grid])");
  opts.define("clusters", "4", "number of clusters");
  opts.define("per", "15", "processes per cluster");
  opts.define_flag("opt", "run the wide-area-optimized variant");
  opts.define("seed", "42", "workload seed");
  opts.define("coll", "flat",
              "wide-area collective routing: flat (per-pair copies) or tree "
              "(topology-chosen dissemination tree + gateway combining)");
  opts.define("wan-streams", "1",
              "parallel paced sub-streams per WAN circuit (1..64); the configured "
              "WAN bandwidth is per-stream");
  opts.define("combine-bytes", "-1",
              "gateway combine flush threshold in bytes (0 = off; -1 = policy "
              "default: off for --coll=flat, 4096 for --coll=tree)");
  opts.define_flag("adapt",
                   "self-optimizing runtime: detect WAN-bound access patterns at "
                   "epoch boundaries and apply the matching Sec.4 optimization "
                   "mid-run (docs/ADAPTIVE.md); explicit flags win over policy");
  opts.define("capacity", "1048576", "flight-recorder ring capacity (events)");
  opts.define_flag("engine-events", "also record one instant per engine event (high volume)");
  opts.define("trace-out", "", "write Chrome trace_event JSON here");
  opts.define("metrics-out", "", "write the metrics registry as CSV here");
  opts.define("metrics-json", "", "write the metrics registry as JSON here");
  opts.define_flag("csv", "print the summary tables as CSV");
  opts.define_flag("faults",
                   "inject the preset WAN fault plan (5% loss, 25% jitter, one flap, "
                   "one brown-out) and report recovery counters");
  opts.define_flag("critical-path",
                   "reconstruct the happens-before DAG, print the critical path's "
                   "per-blame and per-layer breakdown and its top segments");
  opts.define("topn", "10", "how many critical-path segments to list");
  opts.define("what-if", "",
              "comma-separated what-if scenarios to project (wan-lat-eq-lan, "
              "wan-lat-x<k>, wan-bw-x<k>, seq-local; 'std' = the standard set)");
  telemetry::define_cli_options(opts);
  opts.define_flag("validate",
                   "re-simulate each validatable what-if scenario and report the "
                   "projection error");
  const apps::AppEntry* entry = nullptr;
  apps::AppConfig cfg;
  bool faults = false;
  std::size_t topn = 0;
  std::vector<trace::causal::Scenario> scenarios;
  try {
    if (!opts.parse(argc, argv)) return 0;
    // The scenario file is the base configuration; every explicitly
    // passed CLI option overrides the matching scenario value, so
    // `alb-trace` with no arguments is still the canonical DAS run.
    const scenario::Scenario sc = scenario::load(opts.get("scenario"));
    const long long run_index = opts.get_int("run");
    if (run_index < 0 || static_cast<std::size_t>(run_index) >= sc.runs.size()) {
      throw std::runtime_error("--run must be in [0, " + std::to_string(sc.runs.size() - 1) +
                               "] for scenario '" + sc.name + "' (got " +
                               std::to_string(run_index) + ")");
    }
    scenario::RunPlan run = sc.runs[static_cast<std::size_t>(run_index)];
    if (run.app.empty()) run.app = opts.get("app");
    // Each passed flag is a key of the scenario override vocabulary,
    // parsed and range-checked there; --opt and --adapt switch on.
    const auto apply = [&](const std::string& flag, const char* key, const std::string& value) {
      try {
        scenario::apply_override(&run, key, value, "<command line>", 1, 1);
      } catch (const scenario::ScenarioError& e) {
        throw std::runtime_error("--" + flag + ": " + e.what());
      }
    };
    const std::pair<const char*, const char*> flag_keys[] = {
        {"app", "app"},   {"clusters", "clusters"}, {"per", "per_cluster"},
        {"seed", "seed"}, {"coll", "coll"},         {"wan-streams", "wan_streams"},
        {"combine-bytes", "combine_bytes"}};
    for (const auto& [flag, key] : flag_keys) {
      if (opts.provided(flag)) apply(flag, key, opts.get(flag));
    }
    for (const char* flag : {"opt", "adapt"}) {
      if (opts.has_flag(flag)) apply(flag, flag, "1");
    }
    scenario::check_run(run, "<command line>", 1, 1);
    entry = apps::find_app(run.app);
    cfg = run.cfg;
    const long long capacity = opts.get_int("capacity");
    if (capacity < 1) {
      throw std::runtime_error("--capacity must be >= 1 (got " + std::to_string(capacity) + ")");
    }
    const long long topn_arg = opts.get_int("topn");
    if (topn_arg < 0) {
      throw std::runtime_error("--topn must be >= 0 (got " + std::to_string(topn_arg) + ")");
    }
    topn = static_cast<std::size_t>(topn_arg);
    cfg.trace.enabled = true;
    cfg.trace.capacity = static_cast<std::size_t>(capacity);
    cfg.trace.engine_events = opts.has_flag("engine-events");
    // --faults layers the shipped representative WAN weather pattern
    // (scenarios/faults-preset.scn) on top of whatever the scenario set.
    faults = opts.has_flag("faults");
    if (faults) cfg.faults = scenario::load("faults-preset").base.faults;
    if (const std::string& spec = opts.get("what-if"); !spec.empty()) {
      if (spec == "std") {
        scenarios = trace::causal::standard_scenarios(cfg.net_cfg);
      } else {
        for (std::size_t pos = 0; pos < spec.size();) {
          const std::size_t comma = std::min(spec.find(',', pos), spec.size());
          scenarios.push_back(
              trace::causal::parse_scenario(spec.substr(pos, comma - pos), cfg.net_cfg));
          pos = comma + 1;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "alb-trace: " << e.what() << '\n';
    return 2;
  }

  // Host telemetry (wall-clock; stderr/side files only — stdout is a
  // pure function of the simulated run, telemetry on or off).
  telemetry::enable_from_cli(opts, "alb-trace");
  if (telemetry::Collector* tc = telemetry::Collector::active()) tc->label_thread("trace-main");
  struct TelemetryGuard {
    ~TelemetryGuard() { telemetry::Collector::shutdown(); }
  } telemetry_guard;

  apps::AppResult r;
  {
    telemetry::ScopedSpan sim_span("trace.simulate");
    r = entry->run(cfg);
  }
  const bool csv = opts.has_flag("csv");

  // --- run summary ---------------------------------------------------
  std::cout << "app=" << entry->name << " clusters=" << cfg.clusters
            << " per_cluster=" << cfg.procs_per_cluster
            << " variant=" << (cfg.optimized ? "optimized" : "original") << " seed=" << cfg.seed
            << " coll=" << orca::coll::to_string(cfg.coll)
            << (cfg.wan_streams != 1 ? " wan_streams=" + std::to_string(cfg.wan_streams) : "")
            << (cfg.adapt ? " adapt=on" : "") << (faults ? " faults=preset" : "") << "\n"
            << "sim_time_s=" << sim::to_seconds(r.elapsed) << " events=" << r.events
            << " trace_hash=" << r.trace_hash << "\n";
  if (r.status != apps::AppResult::RunStatus::Ok) {
    std::cout << "status=HARD_FAILURE error=\"" << r.error << "\"\n";
  }
  if (r.trace) {
    std::cout << "trace: recorded=" << r.trace->recorded << " kept=" << r.trace->events.size()
              << " dropped=" << r.trace->dropped << " capacity=" << r.trace->capacity << "\n";
  }
  std::cout << "\n";

  // --- LAN/WAN traffic, Table 4/5 taxonomy ---------------------------
  util::Table traffic({"kind", "lan_msgs", "lan_kbyte", "wan_msgs", "wan_kbyte"});
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    const std::string base = net::to_string(static_cast<net::MsgKind>(k));
    traffic.row()
        .add(base)
        .add(static_cast<long long>(r.stats.value("net/lan." + base + ".msgs")))
        .add(static_cast<long long>(r.stats.value("net/lan." + base + ".bytes") / 1024))
        .add(static_cast<long long>(r.stats.value("net/wan." + base + ".msgs")))
        .add(static_cast<long long>(r.stats.value("net/wan." + base + ".bytes") / 1024));
  }
  traffic.row()
      .add("table.rpc")
      .add(std::string("-"))
      .add(std::string("-"))
      .add(static_cast<long long>(r.stats.value("net/wan.table.rpc.msgs")))
      .add(static_cast<long long>(r.stats.value("net/wan.table.rpc.bytes") / 1024));
  traffic.row()
      .add("table.bcast")
      .add(std::string("-"))
      .add(std::string("-"))
      .add(static_cast<long long>(r.stats.value("net/wan.table.bcast.msgs")))
      .add(static_cast<long long>(r.stats.value("net/wan.table.bcast.bytes") / 1024));
  std::cout << (csv ? "# traffic by kind\n" : "=== traffic by kind (LAN vs WAN) ===\n");
  if (csv) traffic.print_csv(std::cout);
  else traffic.print(std::cout);
  std::cout << "\n";

  // --- gateway combining (only when it actually combined) ------------
  if (r.stats.value("net/wan.combined.flushes") > 0) {
    util::Table ct({"counter", "value"});
    const auto add = [&](const char* label, const char* metric) {
      ct.row().add(label).add(static_cast<long long>(r.stats.value(metric)));
    };
    add("combined flushes", "net/wan.combined.flushes");
    add("combined members", "net/wan.combined.members");
    add("combined wire bytes", "net/wan.combined.wire_bytes");
    add("combined logical bytes", "net/wan.combined.logical_bytes");
    std::cout << (csv ? "# wan combining\n" : "=== WAN gateway combining ===\n");
    if (csv) ct.print_csv(std::cout);
    else ct.print(std::cout);
    std::cout << "\n";
  }

  // --- adaptive decisions (only when the engine ran) -----------------
  if (cfg.adapt && r.stats.value("orca/adapt.epochs") > 0) {
    util::Table at({"counter", "value"});
    const auto add = [&](const char* label, const char* metric) {
      at.row().add(label).add(static_cast<long long>(r.stats.value(metric)));
    };
    add("epochs evaluated", "orca/adapt.epochs");
    add("sequencer arms", "orca/adapt.seq.arms");
    add("queue splits", "orca/adapt.queue.splits");
    add("clusters combining", "orca/adapt.combine.enabled");
    add("clusters on tree", "orca/adapt.tree.enabled");
    add("override: sequencer", "orca/adapt.override.seq");
    add("override: coll", "orca/adapt.override.coll");
    add("override: combine", "orca/adapt.override.combine");
    std::cout << (csv ? "# adaptive decisions\n" : "=== adaptive decisions ===\n");
    if (csv) at.print_csv(std::cout);
    else at.print(std::cout);
    std::cout << "\n";
  }

  // --- fault + recovery counters -------------------------------------
  if (faults) {
    util::Table ft({"counter", "value"});
    const auto add = [&](const char* label, const char* metric) {
      ft.row().add(label).add(static_cast<long long>(r.stats.value(metric)));
    };
    add("drops (total)", "net/fault.drops");
    add("drops: loss", "net/fault.drops.loss");
    add("drops: flap", "net/fault.drops.flap");
    add("drops: brownout", "net/fault.drops.brownout");
    add("flap holds", "net/fault.holds.flap");
    add("brownout slowed", "net/fault.brownout.slowed");
    add("retries", "net/fault.retries");
    add("rpc timeouts", "net/fault.timeouts.rpc");
    add("seq timeouts", "net/fault.timeouts.seq");
    add("dup rpc requests", "net/fault.dup.rpc_requests");
    add("dup rpc replies", "net/fault.dup.rpc_replies");
    add("dup seq requests", "net/fault.dup.seq_requests");
    add("dup seq grants", "net/fault.dup.seq_grants");
    add("hard failures", "net/fault.hard_failures");
    add("failed procs", "orca/fault.failed_procs");
    std::cout << (csv ? "# fault + recovery counters\n" : "=== fault + recovery counters ===\n");
    if (csv) ft.print_csv(std::cout);
    else ft.print(std::cout);
    std::cout << "\n";
  }

  // --- WAN circuit distributions -------------------------------------
  const trace::Histogram* wan_bytes = r.stats.histogram("net/wan.msg_bytes");
  const trace::Histogram* wan_queue = r.stats.histogram("net/wan.queue_ns");
  if (wan_bytes && wan_queue) {
    const trace::Histogram& hb = *wan_bytes;
    const trace::Histogram& hq = *wan_queue;
    util::Table wan({"metric", "count", "mean", "p50", "p99", "max"});
    wan.row()
        .add("wan msg bytes")
        .add(static_cast<long long>(hb.count))
        .add(hb.mean(), 1)
        .add(static_cast<long long>(hb.percentile(50)))
        .add(static_cast<long long>(hb.percentile(99)))
        .add(static_cast<long long>(hb.count ? hb.max : 0));
    wan.row()
        .add("wan queue ns")
        .add(static_cast<long long>(hq.count))
        .add(hq.mean(), 1)
        .add(static_cast<long long>(hq.percentile(50)))
        .add(static_cast<long long>(hq.percentile(99)))
        .add(static_cast<long long>(hq.count ? hq.max : 0));
    std::cout << (csv ? "# wan circuit\n" : "=== WAN circuit distributions ===\n");
    if (csv) wan.print_csv(std::cout);
    else wan.print(std::cout);
    std::cout << "\n";
  }

  // --- per-phase WAN traffic -----------------------------------------
  if (r.trace) {
    const std::vector<Phase> phases = split_phases(*r.trace);
    util::Table pt({"phase", "start_s", "end_s", "wan_msgs", "wan_kbyte", "bcasts", "rpcs"});
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Phase& p = phases[i];
      pt.row()
          .add(static_cast<long long>(i))
          .add(sim::to_seconds(p.start), 4)
          .add(sim::to_seconds(p.end), 4)
          .add(static_cast<long long>(p.wan_msgs))
          .add(static_cast<long long>(p.wan_bytes / 1024))
          .add(static_cast<long long>(p.bcasts))
          .add(static_cast<long long>(p.rpcs));
    }
    std::cout << (csv ? "# per-phase wan traffic\n"
                      : "=== per-phase WAN traffic (phases = barrier intervals) ===\n");
    if (csv) pt.print_csv(std::cout);
    else pt.print(std::cout);
    if (r.trace->dropped > 0) {
      std::cout << "(ring dropped " << r.trace->dropped
                << " oldest events; early phases are undercounted — raise --capacity)\n";
    }
    std::cout << "\n";
  }

  // --- causal critical path + what-if projections --------------------
  const bool want_cp = opts.has_flag("critical-path");
  std::vector<trace::HighlightSpan> highlight;
  if (r.trace && (want_cp || !scenarios.empty())) {
    const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
    const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
    highlight = trace::causal::highlight_track(cp);
    const auto pct = [&](sim::SimTime part) {
      return cp.length > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(cp.length)
                           : 0.0;
    };
    if (want_cp) {
      std::cout << (csv ? "# critical path\n" : "=== causal critical path ===\n")
                << "cp_length_s=" << sim::to_seconds(cp.length)
                << " cp_segments=" << cp.segments.size() << " cp_orphan_ends=" << dag.orphan_ends
                << " cp_wan_share_pct=" << util::format_fixed(pct(cp.wan_total()), 2) << "\n";

      util::Table bt({"blame", "ms", "share_pct"});
      for (const auto& [k, v] : cp.by_blame) {
        bt.row().add(k).add(sim::to_seconds(v) * 1e3, 3).add(pct(v), 2);
      }
      std::cout << (csv ? "# critical path by blame\n" : "--- by blame ---\n");
      if (csv) bt.print_csv(std::cout);
      else bt.print(std::cout);

      util::Table lt({"layer", "ms", "share_pct"});
      for (const auto& [k, v] : cp.by_layer) {
        lt.row().add(k).add(sim::to_seconds(v) * 1e3, 3).add(pct(v), 2);
      }
      std::cout << (csv ? "# critical path by layer\n" : "--- by layer ---\n");
      if (csv) lt.print_csv(std::cout);
      else lt.print(std::cout);

      util::Table st({"start_ms", "dur_ms", "blame", "proto", "at", "sink_event"});
      for (const trace::causal::Segment& seg : trace::causal::top_segments(cp, topn)) {
        st.row()
            .add(sim::to_seconds(seg.begin) * 1e3, 3)
            .add(sim::to_seconds(seg.dur()) * 1e3, 3)
            .add(trace::causal::blame(seg.cls, seg.proto))
            .add(trace::causal::to_string(seg.proto))
            .add(static_cast<long long>(seg.actor))
            .add(seg.what);
      }
      std::cout << (csv ? "# critical path top segments\n" : "--- top segments ---\n");
      if (csv) st.print_csv(std::cout);
      else st.print(std::cout);
      std::cout << "\n";
    }

    if (!scenarios.empty()) {
      const bool validate = opts.has_flag("validate");
      util::Table wt({"scenario", "observed_s", "projected_s", "speedup", "actual_s", "err_pct"});
      for (const trace::causal::Scenario& sc : scenarios) {
        const trace::causal::Projection pj = trace::causal::what_if(dag, sc);
        auto& row = wt.row()
                        .add(sc.name)
                        .add(sim::to_seconds(pj.observed), 6)
                        .add(sim::to_seconds(pj.projected), 6)
                        .add(pj.speedup, 3);
        if (validate && sc.validatable) {
          apps::AppConfig vcfg = cfg;
          vcfg.net_cfg = trace::causal::apply_scenario(sc, cfg.net_cfg);
          vcfg.trace.enabled = false;  // reality check only needs elapsed
          const apps::AppResult vr = entry->run(vcfg);
          const double err = vr.elapsed > 0
                                 ? 100.0 * (static_cast<double>(pj.projected - vr.elapsed)) /
                                       static_cast<double>(vr.elapsed)
                                 : 0.0;
          row.add(sim::to_seconds(vr.elapsed), 6).add(err, 2);
        } else {
          row.add(std::string("-")).add(std::string("-"));
        }
      }
      std::cout << (csv ? "# what-if projections\n" : "=== what-if projections ===\n");
      if (csv) wt.print_csv(std::cout);
      else wt.print(std::cout);
      std::cout << "\n";
    }
  }

  // --- artifact files ------------------------------------------------
  auto write_file = [](const std::string& path, auto&& writer) {
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      std::cerr << "cannot open " << path << " for writing\n";
      return false;
    }
    writer(os);
    std::cout << "wrote " << path << "\n";
    return true;
  };
  bool ok = true;
  {
    telemetry::ScopedSpan export_span("trace.export");
    if (const std::string& p = opts.get("trace-out"); !p.empty()) {
      ok &= write_file(p, [&](std::ostream& os) { trace::write_chrome_trace(*r.trace, os, highlight); });
    }
    if (const std::string& p = opts.get("metrics-out"); !p.empty()) {
      ok &= write_file(p, [&](std::ostream& os) { r.stats.write_csv(os); });
    }
    if (const std::string& p = opts.get("metrics-json"); !p.empty()) {
      ok &= write_file(p, [&](std::ostream& os) {
        r.stats.write_json(os);
        os << "\n";
      });
    }
  }
  ok &= telemetry::finish_cli(opts, std::cerr);
  return ok ? 0 : 1;
}
