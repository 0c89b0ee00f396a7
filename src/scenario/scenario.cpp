// Scenario loading and the canonical request text.
//
// The canonical request is the content address the campaign result
// cache hashes: a deterministic key=value rendering of every field of
// (app, AppConfig) that can influence a simulation's output. Trace
// recording, which the byte-identity contract pins output-neutral, is
// deliberately excluded, so a cached result serves traced and untraced
// requests alike.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "scenario/scenario.hpp"

#ifndef ALB_SCENARIO_DIR
#define ALB_SCENARIO_DIR "scenarios"
#endif

namespace alb::scenario {

std::string scenario_dir() {
  if (const char* env = std::getenv("ALB_SCENARIO_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return ALB_SCENARIO_DIR;
}

std::string locate(const std::string& ref) {
  const bool is_path = ref.find('/') != std::string::npos ||
                       (ref.size() > 4 && ref.substr(ref.size() - 4) == ".scn");
  if (is_path) return ref;
  return scenario_dir() + "/" + ref + ".scn";
}

Scenario load(const std::string& ref) {
  const std::string path = locate(ref);
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw ScenarioError(ScenarioError::Code::Io, path, 0, 0,
                        "cannot read scenario '" + ref + "' (resolved to " + path +
                            "; set $ALB_SCENARIO_DIR or pass a path)");
  }
  std::ostringstream text;
  text << is.rdbuf();
  return parse(text.str(), path);
}

namespace {

/// Shortest-round-trip double rendering; %.17g reproduces any double
/// bit-exactly on parse, which is what makes the request text a safe
/// content address.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void put_link(std::string& out, const char* name, const net::LinkParams& p) {
  out += std::string(name) + "=" + std::to_string(p.latency) + " " +
         fmt(p.bandwidth_bytes_per_sec) + " " + std::to_string(p.per_message_overhead) + "\n";
}

}  // namespace

std::string canonical_request(const std::string& app, const apps::AppConfig& cfg) {
  std::string out = "albreq 2\n";
  out += "app=" + app + "\n";
  out += "clusters=" + std::to_string(cfg.clusters) + "\n";
  out += "per=" + std::to_string(cfg.procs_per_cluster) + "\n";
  out += "optimized=" + std::to_string(cfg.optimized ? 1 : 0) + "\n";
  out += "seed=" + std::to_string(cfg.seed) + "\n";
  out += std::string("coll=") + orca::coll::to_string(cfg.coll) + "\n";
  out += "combine_bytes=" + std::to_string(cfg.combine_bytes) + "\n";
  out += "adapt=" + std::to_string(cfg.adapt ? 1 : 0) + "\n";

  const net::TopologyConfig t = cfg.topology();
  put_link(out, "net.lan", t.lan);
  put_link(out, "net.lan_broadcast", t.lan_broadcast);
  put_link(out, "net.access", t.access);
  put_link(out, "net.wan", t.wan);
  out += "net.gateway_forward=" + std::to_string(t.gateway_forward_overhead) + "\n";
  out += "net.transport=" + std::to_string(t.wan_transport.streams) + " " +
         std::to_string(t.wan_transport.stream_chunk_bytes) + " " +
         std::to_string(t.wan_transport.combine_bytes) + " " +
         std::to_string(t.wan_transport.combine_epoch) + " " +
         std::to_string(t.wan_transport.frame_bytes) + "\n";
  // Override order is semantic (last match wins), so serialize in order.
  for (const net::WanPairOverride& o : t.wan_overrides) {
    out += "net.wan_override=" + std::to_string(o.from) + " " + std::to_string(o.to) + " " +
           std::to_string(o.params.latency) + " " + fmt(o.params.bandwidth_bytes_per_sec) + " " +
           std::to_string(o.params.per_message_overhead) + "\n";
  }

  const net::FaultPlan& f = cfg.faults;
  if (!f.enabled) {
    // A disabled plan is a strict no-op regardless of its other fields.
    out += "faults=0\n";
    return out;
  }
  out += "faults=1\n";
  const auto put_faults = [&](const char* name, const net::LinkFaults& lf) {
    out += std::string(name) + "=" + fmt(lf.loss) + " " + fmt(lf.latency_jitter) + " " +
           fmt(lf.bandwidth_jitter) + "\n";
  };
  put_faults("faults.lan", f.lan);
  put_faults("faults.access", f.access);
  put_faults("faults.wan", f.wan);
  for (const net::FlapWindow& w : f.flaps) {
    out += "faults.flap=" + std::to_string(w.from) + " " + std::to_string(w.to) + " " +
           std::to_string(w.start) + " " + std::to_string(w.end) + "\n";
  }
  for (const net::Brownout& b : f.brownouts) {
    out += "faults.brownout=" + std::to_string(b.cluster) + " " + std::to_string(b.start) + " " +
           std::to_string(b.end) + " " + fmt(b.slow_factor) + " " + fmt(b.extra_loss) + "\n";
  }
  out += "faults.recovery=" + std::to_string(f.recovery.rpc_timeout) + " " +
         std::to_string(f.recovery.seq_timeout) + " " + fmt(f.recovery.backoff) + " " +
         std::to_string(f.recovery.max_attempts) + "\n";
  if (!f.force_drop.empty()) {
    out += "faults.force_drop=";
    for (std::size_t i = 0; i < f.force_drop.size(); ++i) {
      if (i) out += ' ';
      out += std::to_string(f.force_drop[i]);
    }
    out += "\nfaults.force_drop_from=" + std::to_string(f.force_drop_from) + "\n";
  }
  return out;
}

}  // namespace alb::scenario
