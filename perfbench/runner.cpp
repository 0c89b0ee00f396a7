// perfbench runner: executes one generated workload plan against the
// simulator libraries and the alb-serve binary, timing every operation.
//
//   perfbench-runner run <plan> <out.json>
//   perfbench-runner reference <requests> <out.json>
//
// `run` reads a plan written by perfbench/run.py (format below), sets the
// workload up `setup_reps` times, then runs rounds of operations until
// `seconds` have passed, and writes every raw measurement (the layer
// probes' samples included) as JSON. It computes no statistics: run.py
// owns those, so the runner and the statistics can change independently. `reference` computes the public
// sequential reference checksum of each "<app> <seed>" line, timed, for
// verifying alb-serve answers after the measured window.
//
// Plan lines (whitespace separated):
//   workload <figure_sweep|wan_sim|serve_mix>
//   workers <n>            pool width (figure_sweep, setup, alb-serve --jobs)
//   setup_reps <n>         set-up repetitions; the last one is kept
//   setup_copies <n>       times each repetition computes every reference
//   seconds <s>            measured window
//   trace <0|1>            record spans and run the layer probes
//   kernel_seed <n>        instance seed of the kernel probe
//   workdir <dir>          work files of this run
//   serve <path>           alb-serve binary
//   scenario <name>        shipped scenario the workload loads
//   job <id> <app> <clusters> <per> <opt> <seed> <arm>
//   round <id> <id> ...    one submission order of the job set
//   fill <path>            serve_mix: request file that fills the cache
//   hit <scenario> <app>   serve_mix: one request of the hit set
//   batch <path>           serve_mix: request file of one batch
//
// In trace mode the window is split in two halves, untraced then traced,
// so the span overhead is their difference; spans are kept in memory and
// written with the rest of the output at exit.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/acp.hpp"
#include "apps/app.hpp"
#include "apps/asp.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "campaign/campaign.hpp"
#include "campaign/result_cache.hpp"
#include "campaign/sim_jobs.hpp"
#include "scenario/scenario.hpp"
#include "trace/causal/causal.hpp"
#include "trace/chrome_trace.hpp"

extern char** environ;

namespace {

using namespace alb;
using apps::AppConfig;
using apps::AppResult;
using Clock = std::chrono::steady_clock;

const Clock::time_point kT0 = Clock::now();

/// Seconds since the runner started; every timestamp in the output.
double now_s() { return std::chrono::duration<double>(Clock::now() - kT0).count(); }

// ---------------------------------------------------------------- spans

/// In-memory span log: one span per call into a layer, with the span
/// that caused it and the operation it belongs to. Off = no recording.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = -1;
    long parent = -1;
    long op = -1;
  };

  void set_enabled(bool on) { on_ = on; }

  long begin(const std::string& name, const std::string& layer, long parent, long op) {
    if (!on_) return -1;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, t, -1, parent, op});
    return static_cast<long>(spans_.size()) - 1;
  }

  void end(long id) {
    if (id < 0) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

class Scope {
 public:
  Scope(const std::string& name, const std::string& layer, long parent = -1, long op = -1)
      : id_(g_tracer.begin(name, layer, parent, op)) {}
  ~Scope() { g_tracer.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  long id() const { return id_; }

 private:
  long id_;
};

// ----------------------------------------------------------------- JSON

std::string jstr(const std::string& s) {
  std::ostringstream os;
  os << '"';
  trace::write_json_escaped(os, s);
  os << '"';
  return os.str();
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Minimal JSON object writer: fields are appended in call order.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + jstr(k) + ":" + v;
    return *this;
  }
  Obj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  Obj& u64(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, jstr(v)); }
  Obj& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jlist(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ",\n" : "") + items[i];
  return out + "]";
}

std::string jnums(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) items.push_back(jnum(v));
  return jlist(items);
}

// ----------------------------------------------------------------- plan

struct Job {
  std::string id;
  std::string app;
  int clusters = 1;
  int per = 1;
  bool opt = false;
  std::uint64_t seed = 42;
  std::string arm;  // plain | tree | adapt | causal
};

struct Plan {
  std::string workload;
  int workers = 1;
  int setup_reps = 1;
  int setup_copies = 1;
  double seconds = 1;
  bool trace = false;
  std::uint64_t kernel_seed = 42;
  std::string workdir;
  std::string serve;
  std::vector<std::string> scenarios;
  std::vector<Job> jobs;
  std::vector<std::vector<std::size_t>> rounds;  // indices into jobs
  std::string fill;
  std::vector<std::pair<std::string, std::string>> hits;
  std::vector<std::string> batches;
};

Plan read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  Plan p;
  std::map<std::string, std::size_t> by_id;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tok(line);
    std::string k;
    if (!(tok >> k) || k[0] == '#') continue;
    if (k == "workload") tok >> p.workload;
    else if (k == "workers") tok >> p.workers;
    else if (k == "setup_reps") tok >> p.setup_reps;
    else if (k == "setup_copies") tok >> p.setup_copies;
    else if (k == "seconds") tok >> p.seconds;
    else if (k == "trace") { int t = 0; tok >> t; p.trace = t != 0; }
    else if (k == "kernel_seed") tok >> p.kernel_seed;
    else if (k == "workdir") tok >> p.workdir;
    else if (k == "serve") tok >> p.serve;
    else if (k == "scenario") { std::string s; tok >> s; p.scenarios.push_back(s); }
    else if (k == "job") {
      Job j;
      int opt = 0;
      tok >> j.id >> j.app >> j.clusters >> j.per >> opt >> j.seed >> j.arm;
      j.opt = opt != 0;
      by_id[j.id] = p.jobs.size();
      p.jobs.push_back(j);
    } else if (k == "round") {
      std::vector<std::size_t> order;
      for (std::string id; tok >> id;) order.push_back(by_id.at(id));
      p.rounds.push_back(order);
      continue;
    } else if (k == "fill") tok >> p.fill;
    else if (k == "hit") { std::string s, a; tok >> s >> a; p.hits.emplace_back(s, a); }
    else if (k == "batch") { std::string b; tok >> b; p.batches.push_back(b); }
    else throw std::runtime_error("plan: unknown key '" + k + "'");
    if (tok.fail()) throw std::runtime_error("plan: malformed line '" + line + "'");
  }
  if (p.workers < 1 || p.setup_reps < 1 || p.setup_copies < 1 || p.seconds <= 0) {
    throw std::runtime_error(
        "plan: workers, setup_reps, setup_copies and seconds must be positive");
  }
  return p;
}

// ------------------------------------------------------------ references

const apps::AppEntry& find_app(const std::string& name) {
  for (const auto& e : apps::registry()) {
    if (e.name == name) return e;
  }
  throw std::runtime_error("unknown app '" + name + "'");
}

/// The expected answer of one (app, seed): the checksum of the app's
/// public sequential reference, and for SOR its final residual.
struct Reference {
  std::uint64_t checksum = 0;
  double residual = 0;
  bool operator==(const Reference& o) const {
    return checksum == o.checksum && residual == o.residual;
  }
};

/// The reference at the registry's bench-default parameters (the
/// registry runs every app at those).
Reference reference(const std::string& app, std::uint64_t seed) {
  using namespace alb::apps;
  if (app == "Water") return {water_reference_checksum(WaterParams::bench_default(), seed)};
  if (app == "TSP") return {tsp_checksum(tsp_reference(TspParams::bench_default(), seed))};
  if (app == "ASP") return {asp_reference_checksum(AspParams::bench_default(), seed)};
  if (app == "ATPG") return {atpg_checksum(atpg_reference(AtpgParams::bench_default(), seed))};
  if (app == "IDA*") return {ida_checksum(ida_reference(IdaParams::bench_default(), seed))};
  if (app == "RA") return {ra_checksum(ra_reference(RaParams::bench_default()))};
  if (app == "ACP") return {acp_reference_checksum(AcpParams::bench_default(), seed)};
  if (app == "SOR") {
    const SorOutcome o = sor_reference(SorParams::bench_default(), seed);
    return {sor_checksum(o), o.final_residual};
  }
  throw std::runtime_error("no reference for app '" + app + "'");
}

std::string ref_key(const std::string& app, std::uint64_t seed) {
  return app + "/" + std::to_string(seed);
}

struct RefResult {
  std::string app;
  std::uint64_t seed = 0;
  Reference ref;
  double ms = 0;
};

/// Computes the references of `want` on `workers` threads through the
/// campaign pool (the same concurrency the workload's operations see).
std::vector<RefResult> compute_references(
    const std::vector<std::pair<std::string, std::uint64_t>>& want, int workers,
    campaign::RunStats* stats, long parent) {
  std::vector<std::function<RefResult()>> tasks;
  for (const auto& [app, seed] : want) {
    tasks.push_back([app = app, seed = seed, parent] {
      Scope s("apps.kernel." + app, "apps", parent);
      const double t = now_s();
      RefResult r{app, seed, reference(app, seed), 0};
      r.ms = (now_s() - t) * 1e3;
      return r;
    });
  }
  return campaign::run(std::move(tasks), campaign::Options{workers}, stats);
}

// ------------------------------------------------------------ sim ops

const net::TopologyConfig& das_net() {
  static const net::TopologyConfig cfg = scenario::load("das").base.net_cfg;
  return cfg;
}

AppConfig make_config(const Job& j) {
  AppConfig c;
  c.clusters = j.clusters;
  c.procs_per_cluster = j.per;
  c.net_cfg = das_net();
  c.net_cfg.clusters = j.clusters;
  c.net_cfg.nodes_per_cluster = j.per;
  c.optimized = j.opt;
  c.seed = j.seed;
  if (j.arm == "tree") c.coll = orca::coll::Mode::Tree;
  else if (j.arm == "adapt") c.adapt = true;
  else if (j.arm == "causal") c.trace.enabled = true;
  else if (j.arm != "plain") throw std::runtime_error("unknown arm '" + j.arm + "'");
  return c;
}

/// One executed simulation operation.
struct OpRecord {
  std::size_t job = 0;
  int round = 0;
  bool traced = false;
  double start = 0;
  double end = 0;
  bool ok = false;
  std::string why;   // set by a throwing job before check() runs
  AppResult result;  // trace dropped after analysis
  std::uint64_t expected = 0;
};

/// Checks one result against its reference: status Ok and the
/// reference checksum. Chaotic SOR (optimized on more than one cluster)
/// may legitimately compute another grid; when it does, its residual
/// after the same fixed iteration count must be within the app's
/// tolerance of the sequential reference's.
void check(const Job& j, OpRecord* op, const std::map<std::string, Reference>& expected) {
  const AppResult& r = op->result;
  op->ok = false;
  if (!op->why.empty()) return;
  if (r.status != AppResult::RunStatus::Ok) {
    op->why = "status: " + r.error;
    return;
  }
  const Reference& want = expected.at(ref_key(j.app, j.seed));
  op->expected = want.checksum;
  if (j.app == "SOR" && j.opt && j.clusters > 1 && r.checksum != want.checksum) {
    const auto it = r.metrics.find("residual");
    const double tol = apps::SorParams::bench_default().tolerance;
    if (it == r.metrics.end() || !(it->second <= want.residual + tol)) {
      op->why = "chaotic SOR residual above the sequential reference's";
      return;
    }
  } else if (r.checksum != op->expected) {
    op->why = "checksum differs from the sequential reference";
    return;
  }
  op->ok = true;
}

/// Runs one job on the calling thread, with the causal analysis that
/// alb-trace --critical-path --what-if std performs for the causal arm.
/// Throws when the analysis is inconsistent with the run.
AppResult run_job(const Job& j, long parent, long op_id) {
  const AppConfig cfg = make_config(j);
  AppResult r;
  {
    Scope s("sim.run", "sim", parent, op_id);
    r = find_app(j.app).run(cfg);
  }
  if (j.arm == "causal" && r.trace) {
    trace::causal::Dag dag;
    {
      Scope s("causal.build_dag", "causal", parent, op_id);
      dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
    }
    trace::causal::CriticalPath cp;
    {
      Scope s("causal.critical_path", "causal", parent, op_id);
      cp = trace::causal::critical_path(dag);
    }
    {
      Scope s("causal.what_if", "causal", parent, op_id);
      for (const auto& sc : trace::causal::standard_scenarios(cfg.net_cfg)) {
        if (trace::causal::what_if(dag, sc).projected <= 0) {
          throw std::runtime_error("what-if projected a non-positive time");
        }
      }
    }
    if (cp.length != r.elapsed && dag.orphan_ends == 0 && r.trace->dropped == 0) {
      throw std::runtime_error("critical path length differs from the elapsed time");
    }
  }
  return r;
}

double cpu_s(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

long maxrss_kb(int who) {
  rusage u{};
  getrusage(who, &u);
  return u.ru_maxrss;
}

// -------------------------------------------------------- process spawn

/// Runs `argv` with stdout/stderr redirected to files and waits for it.
/// Returns the exit status (-1 when it did not exit normally).
int spawn_wait(const std::vector<std::string>& argv, const std::string& out,
               const std::string& err) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed for " + argv[0]);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// -------------------------------------------------------------- output

std::string result_json(const AppResult& r) {
  std::uint64_t lan = 0, wan = 0, wan_bytes = 0;
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    lan += r.traffic.kind_at(k).intra_msgs;
    wan += r.traffic.kind_at(k).inter_msgs;
    wan_bytes += r.traffic.kind_at(k).inter_bytes;
  }
  const auto c = [&](const char* name) {
    return static_cast<std::uint64_t>(r.stats.value(name));
  };
  return Obj()
      .u64("elapsed", static_cast<std::uint64_t>(r.elapsed))
      .u64("events", r.events)
      .u64("trace_hash", r.trace_hash)
      .u64("checksum", r.checksum)
      .u64("lan_msgs", lan)
      .u64("wan_msgs", wan)
      .u64("wan_bytes", wan_bytes)
      .u64("wan_combined_flushes", r.traffic.combined().flushes)
      .u64("rpc_calls", c("orca/rpc.calls"))
      .u64("bcast_applied", c("orca/bcast.applied"))
      .u64("seq_issued", c("orca/seq.issued"))
      .u64("barrier_rounds", c("orca/barrier.rounds"))
      .u64("adapt_actions", c("orca/adapt.seq.arms") + c("orca/adapt.queue.splits") +
                                c("orca/adapt.combine.enabled") + c("orca/adapt.tree.enabled"))
      .done();
}

// -------------------------------------------------------------- probes

template <typename F>
double time_us(const std::string& name, const std::string& layer, F&& f) {
  Scope s(name, layer);
  const double t = now_s();
  f();
  return (now_s() - t) * 1e6;
}

/// Times the result cache's public calls on `entries` (canonical
/// request, result): key, store, hit (a fresh cache object per lookup,
/// so every hit is a disk read and parse, as in a new alb-serve
/// process), miss, parse and serialize. Also counts the lookups' hits and
/// misses as the cache objects report them.
std::string cache_probe(const std::vector<std::pair<std::string, AppResult>>& entries,
                        const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<double> key_us, store_us, hit_us, miss_us, parse_us, ser_us, bytes;
  std::vector<std::string> keys;
  std::uint64_t hits = 0, misses = 0;
  campaign::ResultCache writer(dir);
  for (const auto& [req, r] : entries) {
    std::string key;
    key_us.push_back(time_us("cache.key", "cache", [&] { key = writer.key(req); }));
    store_us.push_back(time_us("cache.store", "cache", [&] { writer.store(key, r); }));
    keys.push_back(key);
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    campaign::ResultCache reader(dir);
    std::optional<AppResult> hit;
    hit_us.push_back(time_us("cache.hit", "cache", [&] { hit = reader.lookup(keys[i]); }));
    if (!hit || hit->checksum != entries[i].second.checksum) {
      throw std::runtime_error("cache probe: stored entry did not read back");
    }
    campaign::ResultCache empty(dir);
    const std::string absent = empty.key(entries[i].first + "\n#absent");
    miss_us.push_back(time_us("cache.miss", "cache", [&] {
      if (empty.lookup(absent)) throw std::runtime_error("cache probe: absent key hit");
    }));
    hits += reader.stats().hits + empty.stats().hits;
    misses += reader.stats().misses + empty.stats().misses;
    std::string text;
    ser_us.push_back(time_us("cache.serialize", "cache",
                             [&] { text = campaign::serialize_result(entries[i].second); }));
    parse_us.push_back(time_us("cache.parse", "cache", [&] {
      if (campaign::parse_result(text).trace_hash != entries[i].second.trace_hash) {
        throw std::runtime_error("cache probe: parse does not round-trip");
      }
    }));
    bytes.push_back(static_cast<double>(text.size()));
  }
  return Obj()
      .u64("entries", entries.size())
      .u64("hits", hits)
      .u64("misses", misses)
      .raw("key_us", jnums(key_us))
      .raw("store_us", jnums(store_us))
      .raw("hit_us", jnums(hit_us))
      .raw("miss_us", jnums(miss_us))
      .raw("parse_us", jnums(parse_us))
      .raw("serialize_us", jnums(ser_us))
      .raw("entry_bytes", jnums(bytes))
      .done();
}

std::string scenario_probe(const std::vector<std::string>& names) {
  std::vector<double> us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::string& n : names) {
      us.push_back(time_us("scenario.load", "scenario", [&] { scenario::load(n); }));
    }
  }
  return Obj().raw("load_us", jnums(us)).done();
}

std::string serve_probe(const Plan& p) {
  const std::string empty = p.workdir + "/empty.req";
  std::ofstream(empty).close();
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    ms.push_back(time_us("serve.startup", "serve", [&] {
      if (spawn_wait({p.serve, "--requests", empty}, p.workdir + "/empty.out",
                     p.workdir + "/empty.err") != 0) {
        throw std::runtime_error("alb-serve failed on an empty request list");
      }
    }) / 1e3);
  }
  return Obj().raw("startup_ms", jnums(ms)).done();
}

/// A small traced run with the causal analysis, for workloads that do
/// not exercise the recorder themselves: traced and untraced wall time
/// and the analysis calls.
std::string causal_probe(std::uint64_t seed) {
  Job j{"probe", "ACP", 2, 2, true, seed, "plain"};
  std::vector<double> plain_ms, traced_ms;
  AppResult traced;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    run_job(j, -1, -1);
    plain_ms.push_back((now_s() - t0) * 1e3);
  }
  j.arm = "causal";
  for (int rep = 0; rep < 5; ++rep) {
    AppConfig cfg = make_config(j);
    const double t0 = now_s();
    {
      Scope s("sim.run", "sim");
      traced = find_app(j.app).run(cfg);
    }
    traced_ms.push_back((now_s() - t0) * 1e3);
    run_job(j, -1, -1);  // analysis spans
  }
  return Obj()
      .raw("plain_ms", jnums(plain_ms))
      .raw("traced_ms", jnums(traced_ms))
      .u64("recorded", traced.trace ? traced.trace->recorded : 0)
      .u64("dropped", traced.trace ? traced.trace->dropped : 0)
      .done();
}

// ---------------------------------------------------------------- run

struct Window {
  double start = 0;
  double end = 0;
  double cpu = 0;
  bool traced = false;
};

int run_plan(const std::string& plan_path, const std::string& out_path) {
  const Plan p = read_plan(plan_path);
  std::filesystem::create_directories(p.workdir);
  const bool serve = p.workload == "serve_mix";
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  g_tracer.set_enabled(p.trace);

  // ---- set-up, repeated; the last repetition's state is kept.
  std::vector<double> setup_s;
  std::map<std::string, Reference> expected;
  std::vector<RefResult> kernels;
  campaign::RunStats setup_stats;
  std::string cache_dir;
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    Scope s("setup", "bench");
    const double t0 = now_s();
    if (serve) {
      cache_dir = p.workdir + "/cache" + std::to_string(rep);
      std::filesystem::remove_all(cache_dir);
      std::filesystem::create_directories(cache_dir);
      Scope f("serve.fill", "serve", s.id());
      const std::string out = p.workdir + "/fill" + std::to_string(rep);
      if (spawn_wait({p.serve, "--requests", p.fill, "--cache-dir", cache_dir, "--jobs",
                      std::to_string(p.workers)},
                     out + ".out", out + ".err") != 0) {
        throw std::runtime_error("alb-serve failed filling the cache; see " + out + ".err");
      }
    } else {
      das_net();
      for (const std::string& n : p.scenarios) scenario::load(n);
      std::set<std::pair<std::string, std::uint64_t>> distinct;
      for (const Job& j : p.jobs) distinct.emplace(j.app, j.seed);
      std::vector<std::pair<std::string, std::uint64_t>> want;
      for (int c = 0; c < p.setup_copies; ++c) want.insert(want.end(), distinct.begin(), distinct.end());
      kernels = compute_references(want, p.workers, &setup_stats, s.id());
      std::map<std::string, Reference> now;
      for (const RefResult& r : kernels) {
        const auto [it, first] = now.emplace(ref_key(r.app, r.seed), r.ref);
        if (!first && !(it->second == r.ref)) {
          throw std::runtime_error("reference kernels disagree between copies");
        }
      }
      if (!expected.empty() && now != expected) {
        throw std::runtime_error("reference kernels disagree between set-up repetitions");
      }
      expected = now;
    }
    setup_s.push_back(now_s() - t0);
  }

  // ---- measured window(s).
  std::vector<OpRecord> ops;
  std::vector<std::string> rounds_json;
  std::vector<std::string> batch_json;
  std::vector<Window> windows;
  const int halves = p.trace ? 2 : 1;
  std::size_t round_no = 0;
  std::size_t batch_no = 0;
  for (int half = 0; half < halves; ++half) {
    const bool traced = p.trace && half == 1;
    g_tracer.set_enabled(traced);
    Window w;
    w.traced = traced;
    w.start = now_s();
    const double cpu0 = cpu_s(RUSAGE_SELF) + cpu_s(RUSAGE_CHILDREN);
    const double budget = p.seconds / halves;
    if (serve) {
      while (now_s() - w.start < budget && batch_no < p.batches.size()) {
        const std::string base = p.workdir + "/batch" + std::to_string(batch_no);
        Scope s("serve.batch", "serve", -1, static_cast<long>(batch_no));
        const double t0 = now_s();
        const int rc = spawn_wait({p.serve, "--requests", p.batches[batch_no], "--cache-dir",
                                   cache_dir, "--jobs", std::to_string(p.workers)},
                                  base + ".out", base + ".err");
        const double t1 = now_s();
        batch_json.push_back(Obj()
                                 .u64("batch", batch_no)
                                 .flag("traced", traced)
                                 .num("start", t0)
                                 .num("end", t1)
                                 .raw("exit", std::to_string(rc))
                                 .str("out", base + ".out")
                                 .str("err", base + ".err")
                                 .done());
        ++batch_no;
      }
    } else if (p.workload == "figure_sweep") {
      while (now_s() - w.start < budget) {
        const std::vector<std::size_t>& order = p.rounds[round_no % p.rounds.size()];
        Scope rs("campaign.run_sim_jobs", "campaign");
        const std::size_t first = ops.size();
        std::vector<campaign::SimJob> jobs;
        for (std::size_t k = 0; k < order.size(); ++k) {
          OpRecord rec;
          rec.job = order[k];
          rec.round = static_cast<int>(round_no);
          rec.traced = traced;
          ops.push_back(rec);
        }
        for (std::size_t k = 0; k < order.size(); ++k) {
          const std::size_t slot = first + k;
          const Job& j = p.jobs[order[k]];
          const long parent = rs.id();
          // Each slot is written by exactly one worker; ops is not
          // resized until the pool has joined.
          jobs.push_back({[&ops, &j, slot, parent](const AppConfig&) {
                            Scope s("op", "bench", parent, static_cast<long>(slot));
                            ops[slot].start = now_s();
                            AppResult r;
                            try {
                              r = run_job(j, s.id(), static_cast<long>(slot));
                            } catch (const std::exception& e) {
                              ops[slot].why = e.what();
                            }
                            ops[slot].end = now_s();
                            return r;
                          },
                          AppConfig{}});
        }
        campaign::RunStats stats;
        std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {p.workers}, &stats);
        double busy = 0;
        for (double js : stats.job_seconds) busy += js;
        rounds_json.push_back(Obj()
                                  .u64("round", round_no)
                                  .flag("traced", traced)
                                  .raw("workers", std::to_string(stats.workers))
                                  .num("wall_s", stats.wall_seconds)
                                  .num("busy_s", busy)
                                  .u64("jobs", stats.jobs_run)
                                  .done());
        for (std::size_t k = 0; k < results.size(); ++k) {
          results[k].trace.reset();
          ops[first + k].result = std::move(results[k]);
          check(p.jobs[order[k]], &ops[first + k], expected);
        }
        ++round_no;
      }
    } else if (p.workload == "wan_sim") {
      while (now_s() - w.start < budget) {
        const std::vector<std::size_t>& order = p.rounds[round_no % p.rounds.size()];
        for (std::size_t idx : order) {
          OpRecord rec;
          rec.job = idx;
          rec.round = static_cast<int>(round_no);
          rec.traced = traced;
          const long slot = static_cast<long>(ops.size());
          Scope s("op", "bench", -1, slot);
          rec.start = now_s();
          try {
            rec.result = run_job(p.jobs[idx], s.id(), slot);
          } catch (const std::exception& e) {
            rec.why = e.what();
          }
          rec.end = now_s();
          if (rec.result.trace) {
            rec.result.metrics["perfbench.trace_recorded"] =
                static_cast<double>(rec.result.trace->recorded);
            rec.result.metrics["perfbench.trace_dropped"] =
                static_cast<double>(rec.result.trace->dropped);
            rec.result.trace.reset();
          }
          check(p.jobs[idx], &rec, expected);
          ops.push_back(std::move(rec));
        }
        ++round_no;
      }
    } else {
      throw std::runtime_error("unknown workload '" + p.workload + "'");
    }
    w.end = now_s();
    w.cpu = cpu_s(RUSAGE_SELF) + cpu_s(RUSAGE_CHILDREN) - cpu0;
    windows.push_back(w);
  }

  // ---- layer probes (traced runs only).
  Obj probe;
  if (p.trace) {
    std::set<std::string> have;
    for (const RefResult& r : kernels) have.insert(r.app);
    std::vector<std::pair<std::string, std::uint64_t>> missing;
    for (const auto& e : apps::registry()) {
      if (!have.count(e.name)) missing.emplace_back(e.name, p.kernel_seed);
    }
    for (const RefResult& r : compute_references(missing, 1, nullptr, -1)) {
      kernels.push_back(r);
    }
    // Cache entries: the workload's own results, or for serve_mix the
    // hit set read back from the filled cache.
    std::vector<std::pair<std::string, AppResult>> entries;
    std::vector<std::string> hit_results;
    if (serve) {
      campaign::ResultCache reader(cache_dir);
      for (const auto& [sc, app] : p.hits) {
        for (const scenario::RunPlan& run : scenario::load(sc).runs) {
          AppConfig cfg = run.cfg;
          const std::string req = scenario::canonical_request(app, cfg);
          std::optional<AppResult> r = reader.lookup(reader.key(req));
          if (!r) throw std::runtime_error("hit-set entry missing from the filled cache");
          hit_results.push_back(result_json(*r));
          entries.emplace_back(req, std::move(*r));
        }
      }
    } else {
      std::set<std::size_t> seen;
      for (const OpRecord& op : ops) {
        if (seen.insert(op.job).second) {
          entries.emplace_back(
              scenario::canonical_request(p.jobs[op.job].app, make_config(p.jobs[op.job])),
              op.result);
        }
      }
    }
    g_tracer.set_enabled(true);
    probe.raw("cache", cache_probe(entries, p.workdir + "/probe-cache"))
        .raw("scenario", scenario_probe(p.scenarios))
        .raw("serve", serve_probe(p))
        .raw("hit_results", jlist(hit_results));
    if (p.workload != "wan_sim") probe.raw("causal", causal_probe(p.kernel_seed));
  }

  // ---- output.
  std::vector<std::string> ops_json;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    const Job& j = p.jobs[op.job];
    Obj o;
    o.str("job", j.id)
        .str("app", j.app)
        .str("arm", j.arm)
        .flag("opt", j.opt)
        .raw("clusters", std::to_string(j.clusters))
        .raw("per", std::to_string(j.per))
        .u64("seed", j.seed)
        .raw("round", std::to_string(op.round))
        .flag("traced", op.traced)
        .num("start", op.start)
        .num("end", op.end)
        .flag("ok", op.ok)
        .str("why", op.why)
        .u64("expected", op.expected)
        .raw("result", result_json(op.result));
    const auto m = [&](const char* k) {
      const auto it = op.result.metrics.find(k);
      return it == op.result.metrics.end() ? 0.0 : it->second;
    };
    if (j.arm == "causal") {
      o.num("trace_recorded", m("perfbench.trace_recorded"))
          .num("trace_dropped", m("perfbench.trace_dropped"));
    }
    ops_json.push_back(o.done());
  }
  std::vector<std::string> kernels_json;
  for (const RefResult& r : kernels) {
    kernels_json.push_back(
        Obj().str("app", r.app).u64("seed", r.seed).u64("checksum", r.ref.checksum).num("ms", r.ms).done());
  }
  std::vector<std::string> windows_json;
  for (const Window& w : windows) {
    windows_json.push_back(
        Obj().num("start", w.start).num("end", w.end).num("cpu_s", w.cpu).flag("traced", w.traced).done());
  }
  std::vector<std::string> spans_json;
  for (const Tracer::Span& s : g_tracer.spans()) {
    spans_json.push_back(Obj()
                             .str("name", s.name)
                             .str("layer", s.layer)
                             .num("start", s.start)
                             .num("end", s.end)
                             .raw("parent", std::to_string(s.parent))
                             .raw("op", std::to_string(s.op))
                             .done());
  }
  double setup_busy = 0;
  for (double js : setup_stats.job_seconds) setup_busy += js;
  std::ofstream out(out_path);
  out << Obj()
             .str("workload", p.workload)
             .str("compiler", PERFBENCH_COMPILER)
             .str("build_type", PERFBENCH_BUILD_TYPE)
             .raw("hardware_concurrency", std::to_string(hw))
             .raw("workers", std::to_string(p.workers))
             .raw("setup_s", jnums(setup_s))
             .raw("setup_pool", Obj()
                                    .raw("workers", std::to_string(setup_stats.workers))
                                    .num("wall_s", setup_stats.wall_seconds)
                                    .num("busy_s", setup_busy)
                                    .done())
             .raw("kernels", jlist(kernels_json))
             .raw("windows", jlist(windows_json))
             .raw("rounds", jlist(rounds_json))
             .raw("batches", jlist(batch_json))
             .raw("ops", jlist(ops_json))
             .raw("probe", probe.done())
             .raw("rss_kb_self", std::to_string(maxrss_kb(RUSAGE_SELF)))
             .raw("rss_kb_children", std::to_string(maxrss_kb(RUSAGE_CHILDREN)))
             .raw("spans", jlist(spans_json))
             .done()
      << "\n";
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

int run_reference(const std::string& req_path, const std::string& out_path) {
  std::ifstream in(req_path);
  if (!in) throw std::runtime_error("cannot read " + req_path);
  std::vector<std::pair<std::string, std::uint64_t>> want;
  std::string app;
  std::uint64_t seed = 0;
  while (in >> app >> seed) want.emplace_back(app, seed);
  const int workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::string> rows;
  for (const RefResult& r : compute_references(want, workers, nullptr, -1)) {
    rows.push_back(
        Obj().str("app", r.app).u64("seed", r.seed).u64("checksum", r.ref.checksum).num("ms", r.ms).done());
  }
  std::ofstream out(out_path);
  out << jlist(rows) << "\n";
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (argc == 4 && mode == "run") return run_plan(argv[2], argv[3]);
    if (argc == 4 && mode == "reference") return run_reference(argv[2], argv[3]);
    std::cerr << "usage: perfbench-runner run <plan> <out.json>\n"
                 "       perfbench-runner reference <requests> <out.json>\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench-runner: " << e.what() << "\n";
    return 1;
  }
}
