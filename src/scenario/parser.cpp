// Scenario DSL parser: text -> Scenario (see scenario.hpp for the
// format overview and docs/SCENARIOS.md for the schema reference).
//
// Two passes. The lexer splits the text into sections of key=value
// pairs, each tagged with its 1-based line/column, and rejects
// malformed lines, unknown sections and duplicate keys. The
// interpreter then builds the base AppConfig (preset -> link overrides
// -> transport -> per-pair WAN -> faults -> flags) and expands the
// [run] list or [grid] product, validating every value's type and
// range as it goes. All failures throw ScenarioError with the
// offending position; nothing is returned until the whole file
// interpreted cleanly, so a caller can never observe a partial config.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/presets.hpp"
#include "scenario/scenario.hpp"

namespace alb::scenario {
namespace {

using Code = ScenarioError::Code;

struct Pos {
  int line = 0;
  int col = 1;
};

struct KV {
  std::string key;
  std::string value;
  Pos kpos;
  Pos vpos;
};

struct Section {
  std::string name;
  std::string arg;
  Pos pos;
  std::vector<KV> kvs;
};

[[noreturn]] void fail(Code c, const std::string& file, Pos p, const std::string& msg) {
  throw ScenarioError(c, file, p.line, p.col, msg);
}

[[noreturn]] void fail(Code c, const std::string& file, int line, int col,
                       const std::string& msg) {
  throw ScenarioError(c, file, line, col, msg);
}

const std::set<std::string>& known_sections() {
  static const std::set<std::string> s{"scenario", "topology", "gateway", "transport",
                                       "link",     "wan",      "faults",  "flap",
                                       "brownout", "flags",    "run",     "grid"};
  return s;
}

// --- lexer -----------------------------------------------------------

std::vector<Section> lex(const std::string& text, const std::string& file) {
  std::vector<Section> sections;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (eol == text.size() && line.empty()) break;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    std::size_t last = line.find_last_not_of(" \t\r");
    const Pos lpos{lineno, static_cast<int>(first) + 1};
    if (line[first] == '[') {
      if (line[last] != ']') {
        fail(Code::Syntax, file, lpos, "section header must end with ']'");
      }
      std::string inner = line.substr(first + 1, last - first - 1);
      std::string name = inner, arg;
      if (const std::size_t sp = inner.find(' '); sp != std::string::npos) {
        name = inner.substr(0, sp);
        arg = inner.substr(inner.find_first_not_of(' ', sp));
      }
      if (name.empty()) fail(Code::Syntax, file, lpos, "empty section header");
      if (known_sections().count(name) == 0) {
        fail(Code::UnknownSection, file, lpos,
             "unknown section [" + name +
                 "]; known: scenario topology gateway transport link wan faults flap "
                 "brownout flags run grid");
      }
      sections.push_back(Section{name, arg, lpos, {}});
      continue;
    }
    const std::size_t eq = line.find('=', first);
    if (eq == std::string::npos) {
      fail(Code::Syntax, file, lpos, "expected 'key = value' or '[section]'");
    }
    std::string key = line.substr(first, eq - first);
    if (const std::size_t kend = key.find_last_not_of(" \t"); kend != std::string::npos) {
      key.resize(kend + 1);
    } else {
      fail(Code::Syntax, file, lpos, "missing key before '='");
    }
    std::size_t vstart = line.find_first_not_of(" \t", eq + 1);
    std::string value;
    Pos vpos{lineno, static_cast<int>(eq) + 2};
    if (vstart != std::string::npos) {
      const std::size_t vend = line.find_last_not_of(" \t\r");
      value = line.substr(vstart, vend - vstart + 1);
      vpos.col = static_cast<int>(vstart) + 1;
    }
    if (sections.empty()) {
      fail(Code::Syntax, file, lpos, "key '" + key + "' appears before any [section]");
    }
    for (const KV& kv : sections.back().kvs) {
      if (kv.key == key) {
        fail(Code::DuplicateKey, file, lpos,
             "duplicate key '" + key + "' in [" + sections.back().name + "] (first at line " +
                 std::to_string(kv.kpos.line) + ")");
      }
    }
    sections.back().kvs.push_back(KV{std::move(key), std::move(value), lpos, vpos});
  }
  return sections;
}

// --- value parsers ---------------------------------------------------

/// Splits `v` into a numeric prefix (strtod) and a suffix.
bool split_number(const std::string& v, double* num, std::string* suffix) {
  if (v.empty()) return false;
  const char* begin = v.c_str();
  char* end = nullptr;
  *num = std::strtod(begin, &end);
  if (end == begin) return false;
  *suffix = std::string(end);
  return true;
}

sim::SimTime parse_time(const std::string& file, const KV& kv) {
  double num = 0;
  std::string suffix;
  if (!split_number(kv.value, &num, &suffix)) {
    fail(Code::BadValue, file, kv.vpos, "'" + kv.key + "': expected a duration, got '" +
                                            kv.value + "'");
  }
  double mult = 0;
  if (suffix == "ns") mult = 1;
  else if (suffix == "us") mult = 1e3;
  else if (suffix == "ms") mult = 1e6;
  else if (suffix == "s") mult = 1e9;
  else if (suffix.empty() && num == 0) mult = 1;  // bare 0 needs no unit
  else {
    fail(Code::BadUnit, file, kv.vpos,
         "'" + kv.key + "': duration '" + kv.value + "' needs a unit suffix (ns/us/ms/s)");
  }
  if (num < 0) {
    fail(Code::OutOfRange, file, kv.vpos,
         "'" + kv.key + "': duration must be non-negative (got '" + kv.value + "')");
  }
  return static_cast<sim::SimTime>(std::llround(num * mult));
}

/// Bandwidth in application-level bits/s with a decimal suffix;
/// returned as bytes/s (the TopologyConfig unit).
double parse_bandwidth(const std::string& file, const KV& kv) {
  double num = 0;
  std::string suffix;
  if (!split_number(kv.value, &num, &suffix)) {
    fail(Code::BadValue, file, kv.vpos,
         "'" + kv.key + "': expected a bandwidth, got '" + kv.value + "'");
  }
  double mult = 0;
  if (suffix == "bit") mult = 1;
  else if (suffix == "Kbit") mult = 1e3;
  else if (suffix == "Mbit") mult = 1e6;
  else if (suffix == "Gbit") mult = 1e9;
  else {
    fail(Code::BadUnit, file, kv.vpos,
         "'" + kv.key + "': bandwidth '" + kv.value +
             "' needs a unit suffix (bit/Kbit/Mbit/Gbit, application-level bits per second)");
  }
  if (!(num > 0)) {
    fail(Code::OutOfRange, file, kv.vpos,
         "'" + kv.key + "': bandwidth must be positive (got '" + kv.value + "')");
  }
  return num * mult / 8.0;
}

/// Byte size with an optional binary suffix (B/KB/MB); bare = bytes.
long long parse_size(const std::string& file, const KV& kv) {
  double num = 0;
  std::string suffix;
  if (!split_number(kv.value, &num, &suffix)) {
    fail(Code::BadValue, file, kv.vpos,
         "'" + kv.key + "': expected a size, got '" + kv.value + "'");
  }
  double mult = 0;
  if (suffix.empty() || suffix == "B") mult = 1;
  else if (suffix == "KB") mult = 1024;
  else if (suffix == "MB") mult = 1024.0 * 1024.0;
  else {
    fail(Code::BadUnit, file, kv.vpos,
         "'" + kv.key + "': size '" + kv.value + "' has unknown unit (use B/KB/MB or bytes)");
  }
  if (num < 0) {
    fail(Code::OutOfRange, file, kv.vpos,
         "'" + kv.key + "': size must be non-negative (got '" + kv.value + "')");
  }
  return std::llround(num * mult);
}

long long parse_int(const std::string& file, const KV& kv) {
  const char* begin = kv.value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(begin, &end, 10);
  if (kv.value.empty() || end != begin + kv.value.size()) {
    fail(Code::BadValue, file, kv.vpos,
         "'" + kv.key + "': expected an integer, got '" + kv.value + "'");
  }
  if (errno == ERANGE) {
    fail(Code::OutOfRange, file, kv.vpos, "'" + kv.key + "': integer '" + kv.value + "' overflows");
  }
  return parsed;
}

double parse_double(const std::string& file, const KV& kv) {
  const char* begin = kv.value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (kv.value.empty() || end != begin + kv.value.size()) {
    fail(Code::BadValue, file, kv.vpos,
         "'" + kv.key + "': expected a number, got '" + kv.value + "'");
  }
  return parsed;
}

bool parse_bool(const std::string& file, const KV& kv) {
  const std::string& v = kv.value;
  if (v == "true" || v == "on" || v == "1") return true;
  if (v == "false" || v == "off" || v == "0") return false;
  fail(Code::BadValue, file, kv.vpos,
       "'" + kv.key + "': expected true/false/on/off/1/0, got '" + v + "'");
}

/// Cluster reference: "any" -> -1, else an index checked against the
/// topology's cluster count.
int parse_cluster(const std::string& file, const KV& kv, int clusters, bool allow_any) {
  if (allow_any && kv.value == "any") return -1;
  const long long c = parse_int(file, kv);
  if (c < 0 || c >= clusters) {
    fail(Code::UndefinedCluster, file, kv.vpos,
         "'" + kv.key + "': cluster " + kv.value + " does not exist (topology has " +
             std::to_string(clusters) + " clusters, indices 0.." + std::to_string(clusters - 1) +
             (allow_any ? ", or 'any')" : ")"));
  }
  return static_cast<int>(c);
}

/// The fixed per-direction path cost outside the WAN circuit proper
/// (FE access + delivery + two gateway forwards + WAN stack overhead),
/// matching net::custom_wan_config: rtt -> one-way circuit latency.
sim::SimTime rtt_to_one_way(sim::SimTime rtt) {
  sim::SimTime one_way = rtt / 2 - sim::microseconds(140);
  return one_way < 0 ? 0 : one_way;
}

[[noreturn]] void unknown_key(const std::string& file, const Section& s, const KV& kv,
                              const std::string& known) {
  fail(Code::UnknownKey, file, kv.kpos,
       "unknown key '" + kv.key + "' in [" + s.name + (s.arg.empty() ? "" : " " + s.arg) +
           "]; known: " + known);
}

/// The run-override vocabulary, in the order diagnostics list it.
constexpr const char* kVocabulary =
    "app opt adapt seed coll wan_streams combine_bytes clusters per_cluster rtt latency bandwidth";

/// Applies one key of the run-override vocabulary: the one place each
/// key is parsed and range-checked. False when `kv.key` is not in the
/// vocabulary; the caller reports it in its own context.
bool apply_vocabulary(RunPlan* run, const std::string& file, const KV& kv) {
  apps::AppConfig& cfg = run->cfg;
  if (kv.key == "app") {
    if (apps::find_app(kv.value) == nullptr) {
      std::string known;
      for (const apps::AppEntry& e : apps::registry()) known += " " + e.name;
      fail(Code::BadValue, file, kv.vpos, "'app': unknown app '" + kv.value + "'; known:" + known);
    }
    run->app = kv.value;
  } else if (kv.key == "opt") {
    cfg.optimized = parse_bool(file, kv);
  } else if (kv.key == "adapt") {
    cfg.adapt = parse_bool(file, kv);
  } else if (kv.key == "seed") {
    const long long seed = parse_int(file, kv);
    if (seed < 0) {
      fail(Code::OutOfRange, file, kv.vpos, "'seed': must be non-negative");
    }
    cfg.seed = static_cast<std::uint64_t>(seed);
  } else if (kv.key == "coll") {
    if (kv.value == "tree") cfg.coll = orca::coll::Mode::Tree;
    else if (kv.value == "flat") cfg.coll = orca::coll::Mode::Flat;
    else {
      fail(Code::BadValue, file, kv.vpos,
           "'coll': expected flat or tree, got '" + kv.value + "'");
    }
  } else if (kv.key == "wan_streams") {
    const long long streams = parse_int(file, kv);
    if (streams < 1 || streams > 64) {
      fail(Code::OutOfRange, file, kv.vpos,
           "'wan_streams': must be in [1, 64] (got " + kv.value + ")");
    }
    cfg.wan_streams = static_cast<int>(streams);
  } else if (kv.key == "combine_bytes") {
    const long long bytes = parse_int(file, kv);
    if (bytes < -1 || bytes > (1ll << 30)) {
      fail(Code::OutOfRange, file, kv.vpos,
           "'combine_bytes': must be in [-1, 2^30] (got " + kv.value + ")");
    }
    cfg.combine_bytes = bytes;
  } else if (kv.key == "clusters") {
    const long long n = parse_int(file, kv);
    if (n < 1 || n > 1024) {
      fail(Code::OutOfRange, file, kv.vpos,
           "'clusters': must be in [1, 1024] (got " + kv.value + ")");
    }
    cfg.clusters = static_cast<int>(n);
  } else if (kv.key == "per_cluster") {
    const long long n = parse_int(file, kv);
    if (n < 1 || n > 4096) {
      fail(Code::OutOfRange, file, kv.vpos,
           "'per_cluster': must be in [1, 4096] (got " + kv.value + ")");
    }
    cfg.procs_per_cluster = static_cast<int>(n);
  } else if (kv.key == "rtt") {
    cfg.net_cfg.wan.latency = rtt_to_one_way(parse_time(file, kv));
  } else if (kv.key == "latency") {
    cfg.net_cfg.wan.latency = parse_time(file, kv);
  } else if (kv.key == "bandwidth") {
    cfg.net_cfg.wan.bandwidth_bytes_per_sec = parse_bandwidth(file, kv);
  } else {
    return false;
  }
  return true;
}

// --- interpreter -----------------------------------------------------

struct Interp {
  const std::string& file;
  std::vector<Section> sections;

  const Section* find_unique(const std::string& name) {
    const Section* found = nullptr;
    for (const Section& s : sections) {
      if (s.name != name) continue;
      if (found) {
        fail(Code::DuplicateKey, file, s.pos, "section [" + name + "] appears twice");
      }
      found = &s;
    }
    return found;
  }

  void apply_link(const Section& s, net::LinkParams* p, bool is_wan) {
    for (const KV& kv : s.kvs) {
      if (kv.key == "latency") p->latency = parse_time(file, kv);
      else if (kv.key == "bandwidth") p->bandwidth_bytes_per_sec = parse_bandwidth(file, kv);
      else if (kv.key == "overhead") p->per_message_overhead = parse_time(file, kv);
      else if (kv.key == "rtt" && is_wan) p->latency = rtt_to_one_way(parse_time(file, kv));
      else {
        unknown_key(file, s, kv,
                    is_wan ? "latency bandwidth overhead rtt" : "latency bandwidth overhead");
      }
    }
  }
};

}  // namespace

Scenario parse(const std::string& text, const std::string& filename) {
  Interp in{filename, lex(text, filename)};
  Scenario sc;
  sc.file = filename;

  // [scenario] ---------------------------------------------------------
  if (const Section* s = in.find_unique("scenario")) {
    for (const KV& kv : s->kvs) {
      if (kv.key == "name") sc.name = kv.value;
      else if (kv.key == "description") sc.description = kv.value;
      else unknown_key(filename, *s, kv, "name description");
    }
  }
  if (sc.name.empty()) {
    // Default to the file stem so diagnostics and labels stay useful.
    std::string stem = filename;
    if (const std::size_t slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (stem.size() > 4 && stem.substr(stem.size() - 4) == ".scn") {
      stem.resize(stem.size() - 4);
    }
    sc.name = stem;
  }

  // [topology] ---------------------------------------------------------
  std::string preset = "das";
  int clusters = 4, per_cluster = 15;
  if (const Section* s = in.find_unique("topology")) {
    for (const KV& kv : s->kvs) {
      if (kv.key == "preset") {
        if (kv.value != "das" && kv.value != "internet" && kv.value != "slow-wan" &&
            kv.value != "none") {
          fail(ScenarioError::Code::BadValue, filename, kv.vpos.line, kv.vpos.col,
               "'preset': expected das, internet, slow-wan or none (got '" + kv.value + "')");
        }
        preset = kv.value;
      } else if (kv.key == "clusters") {
        const long long n = parse_int(filename, kv);
        if (n < 1 || n > 1024) {
          fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
               "'clusters': must be in [1, 1024] (got " + kv.value + ")");
        }
        clusters = static_cast<int>(n);
      } else if (kv.key == "per_cluster") {
        const long long n = parse_int(filename, kv);
        if (n < 1 || n > 4096) {
          fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
               "'per_cluster': must be in [1, 4096] (got " + kv.value + ")");
        }
        per_cluster = static_cast<int>(n);
      } else {
        unknown_key(filename, *s, kv, "preset clusters per_cluster");
      }
    }
  }
  apps::AppConfig& base = sc.base;
  base.clusters = clusters;
  base.procs_per_cluster = per_cluster;
  if (preset == "das") base.net_cfg = net::das_config(clusters, per_cluster);
  else if (preset == "internet") base.net_cfg = net::internet_config(clusters, per_cluster);
  else if (preset == "slow-wan") base.net_cfg = net::slow_wan_config(clusters, per_cluster);
  else {
    base.net_cfg = net::TopologyConfig{};
    base.net_cfg.clusters = clusters;
    base.net_cfg.nodes_per_cluster = per_cluster;
  }

  // [gateway] ----------------------------------------------------------
  if (const Section* s = in.find_unique("gateway")) {
    for (const KV& kv : s->kvs) {
      if (kv.key == "forward_overhead") {
        base.net_cfg.gateway_forward_overhead = parse_time(filename, kv);
      } else {
        unknown_key(filename, *s, kv, "forward_overhead");
      }
    }
  }

  // [link <class>] -----------------------------------------------------
  {
    std::set<std::string> seen;
    for (const Section& s : in.sections) {
      if (s.name != "link") continue;
      if (!seen.insert(s.arg).second) {
        throw ScenarioError(ScenarioError::Code::DuplicateKey, filename, s.pos.line, s.pos.col,
                            "section [link " + s.arg + "] appears twice");
      }
      if (s.arg == "lan") in.apply_link(s, &base.net_cfg.lan, false);
      else if (s.arg == "lan_broadcast") in.apply_link(s, &base.net_cfg.lan_broadcast, false);
      else if (s.arg == "access") in.apply_link(s, &base.net_cfg.access, false);
      else if (s.arg == "wan") in.apply_link(s, &base.net_cfg.wan, true);
      else {
        throw ScenarioError(ScenarioError::Code::BadValue, filename, s.pos.line, s.pos.col,
                            "unknown link class [link " + s.arg +
                                "]; known: lan lan_broadcast access wan");
      }
    }
  }

  // [transport] --------------------------------------------------------
  if (const Section* s = in.find_unique("transport")) {
    net::WanTransportConfig& wt = base.net_cfg.wan_transport;
    for (const KV& kv : s->kvs) {
      if (kv.key == "chunk") {
        const long long n = parse_size(filename, kv);
        if (n < 1) {
          fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
               "'chunk': must be positive (got " + kv.value + ")");
        }
        wt.stream_chunk_bytes = static_cast<std::size_t>(n);
      } else if (kv.key == "combine_epoch") {
        wt.combine_epoch = parse_time(filename, kv);
      } else if (kv.key == "frame_bytes") {
        wt.frame_bytes = static_cast<std::size_t>(parse_size(filename, kv));
      } else {
        unknown_key(filename, *s, kv, "chunk combine_epoch frame_bytes");
      }
    }
  }

  // [wan A-B] per-pair overrides ---------------------------------------
  {
    std::set<std::pair<int, int>> seen;
    for (const Section& s : in.sections) {
      if (s.name != "wan") continue;
      int a = -1, b = -1;
      const std::size_t dash = s.arg.find('-');
      bool ok = !s.arg.empty() && dash != std::string::npos && dash > 0;
      if (ok) {
        char* end = nullptr;
        a = static_cast<int>(std::strtol(s.arg.c_str(), &end, 10));
        ok = end == s.arg.c_str() + dash;
        const char* bs = s.arg.c_str() + dash + 1;
        b = static_cast<int>(std::strtol(bs, &end, 10));
        ok = ok && end == s.arg.c_str() + s.arg.size() && *bs != '\0';
      }
      if (!ok) {
        throw ScenarioError(ScenarioError::Code::Syntax, filename, s.pos.line, s.pos.col,
                            "[wan] wants a cluster pair: [wan <from>-<to>], e.g. [wan 0-2]");
      }
      if (a < 0 || a >= clusters || b < 0 || b >= clusters) {
        throw ScenarioError(ScenarioError::Code::UndefinedCluster, filename, s.pos.line, s.pos.col,
                            "[wan " + s.arg + "]: cluster pair out of range (topology has " +
                                std::to_string(clusters) + " clusters)");
      }
      if (a == b) {
        throw ScenarioError(ScenarioError::Code::OutOfRange, filename, s.pos.line, s.pos.col,
                            "[wan " + s.arg + "]: a WAN circuit links two different clusters");
      }
      if (!seen.insert({std::min(a, b), std::max(a, b)}).second) {
        throw ScenarioError(ScenarioError::Code::DuplicateKey, filename, s.pos.line, s.pos.col,
                            "[wan " + s.arg + "]: this cluster pair already has an override");
      }
      net::WanPairOverride o;
      o.from = a;
      o.to = b;
      o.params = base.net_cfg.wan;  // unspecified keys keep the base circuit
      in.apply_link(s, &o.params, true);
      base.net_cfg.wan_overrides.push_back(o);
    }
  }

  // [faults] + [flap] + [brownout] -------------------------------------
  {
    bool have_fault_section = false;
    bool enabled_explicit = false;
    if (const Section* s = in.find_unique("faults")) {
      have_fault_section = true;
      for (const KV& kv : s->kvs) {
        auto link_fault = [&](net::LinkFaults* lf, const std::string& field) {
          const double v = parse_double(filename, kv);
          if (field == "loss") {
            if (v < 0 || v > 1) {
              fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                   "'" + kv.key + "': loss is a probability in [0, 1] (got " + kv.value + ")");
            }
            lf->loss = v;
          } else {
            if (v < 0) {
              fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                   "'" + kv.key + "': jitter must be non-negative (got " + kv.value + ")");
            }
            if (field == "latency_jitter") lf->latency_jitter = v;
            else lf->bandwidth_jitter = v;
          }
        };
        const std::size_t dot = kv.key.find('.');
        const std::string head = kv.key.substr(0, dot);
        const std::string tail = dot == std::string::npos ? "" : kv.key.substr(dot + 1);
        if (kv.key == "enabled") {
          base.faults.enabled = parse_bool(filename, kv);
          enabled_explicit = true;
        } else if ((head == "lan" || head == "access" || head == "wan") &&
                   (tail == "loss" || tail == "latency_jitter" || tail == "bandwidth_jitter")) {
          net::LinkFaults* lf = head == "lan" ? &base.faults.lan
                              : head == "access" ? &base.faults.access
                                                 : &base.faults.wan;
          link_fault(lf, tail);
        } else if (kv.key == "recovery.rpc_timeout") {
          base.faults.recovery.rpc_timeout = parse_time(filename, kv);
        } else if (kv.key == "recovery.seq_timeout") {
          base.faults.recovery.seq_timeout = parse_time(filename, kv);
        } else if (kv.key == "recovery.backoff") {
          const double v = parse_double(filename, kv);
          if (v < 1.0) {
            fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                 "'recovery.backoff': must be >= 1 (got " + kv.value + ")");
          }
          base.faults.recovery.backoff = v;
        } else if (kv.key == "recovery.max_attempts") {
          const long long v = parse_int(filename, kv);
          if (v < 1 || v > 1000) {
            fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                 "'recovery.max_attempts': must be in [1, 1000] (got " + kv.value + ")");
          }
          base.faults.recovery.max_attempts = static_cast<int>(v);
        } else {
          unknown_key(filename, *s, kv,
                      "enabled {lan,access,wan}.{loss,latency_jitter,bandwidth_jitter} "
                      "recovery.{rpc_timeout,seq_timeout,backoff,max_attempts}");
        }
      }
    }
    for (const Section& s : in.sections) {
      if (s.name != "flap") continue;
      have_fault_section = true;
      net::FlapWindow w;
      for (const KV& kv : s.kvs) {
        if (kv.key == "from") w.from = parse_cluster(filename, kv, clusters, true);
        else if (kv.key == "to") w.to = parse_cluster(filename, kv, clusters, true);
        else if (kv.key == "start") w.start = parse_time(filename, kv);
        else if (kv.key == "end") w.end = parse_time(filename, kv);
        else unknown_key(filename, s, kv, "from to start end");
      }
      if (w.end <= w.start) {
        throw ScenarioError(ScenarioError::Code::OutOfRange, filename, s.pos.line, s.pos.col,
                            "[flap]: end must be after start");
      }
      base.faults.flaps.push_back(w);
    }
    for (const Section& s : in.sections) {
      if (s.name != "brownout") continue;
      have_fault_section = true;
      net::Brownout b;
      for (const KV& kv : s.kvs) {
        if (kv.key == "cluster") b.cluster = parse_cluster(filename, kv, clusters, true);
        else if (kv.key == "start") b.start = parse_time(filename, kv);
        else if (kv.key == "end") b.end = parse_time(filename, kv);
        else if (kv.key == "slow_factor") {
          b.slow_factor = parse_double(filename, kv);
          if (b.slow_factor < 1.0) {
            fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                 "'slow_factor': must be >= 1 (got " + kv.value + ")");
          }
        } else if (kv.key == "extra_loss") {
          b.extra_loss = parse_double(filename, kv);
          if (b.extra_loss < 0 || b.extra_loss > 1) {
            fail(ScenarioError::Code::OutOfRange, filename, kv.vpos.line, kv.vpos.col,
                 "'extra_loss': probability in [0, 1] (got " + kv.value + ")");
          }
        } else {
          unknown_key(filename, s, kv, "cluster start end slow_factor extra_loss");
        }
      }
      if (b.end <= b.start) {
        throw ScenarioError(ScenarioError::Code::OutOfRange, filename, s.pos.line, s.pos.col,
                            "[brownout]: end must be after start");
      }
      base.faults.brownouts.push_back(b);
    }
    // Writing any fault section arms the plan unless `enabled = false`
    // said otherwise — a described fault that silently never fires
    // would be the config-drift bug all over again.
    if (have_fault_section && !enabled_explicit) base.faults.enabled = true;
  }

  // [flags] ------------------------------------------------------------
  if (const Section* s = in.find_unique("flags")) {
    RunPlan probe;  // the run-override vocabulary minus the topology keys
    probe.cfg = base;
    for (const KV& kv : s->kvs) {
      const bool topology = kv.key == "clusters" || kv.key == "per_cluster" ||
                            kv.key == "rtt" || kv.key == "latency" || kv.key == "bandwidth";
      if (topology || !apply_vocabulary(&probe, filename, kv)) {
        unknown_key(filename, *s, kv, "app opt adapt seed coll wan_streams combine_bytes");
      }
    }
    sc.app = probe.app;
    base = probe.cfg;
  }

  // [run] xor [grid] ---------------------------------------------------
  const Section* grid = in.find_unique("grid");
  std::vector<const Section*> run_sections;
  for (const Section& s : in.sections) {
    if (s.name == "run") run_sections.push_back(&s);
  }
  if (grid && !run_sections.empty()) {
    throw ScenarioError(ScenarioError::Code::Conflict, filename, grid->pos.line, grid->pos.col,
                        "[grid] and [run] are mutually exclusive — a scenario is either an "
                        "explicit run list or a parameter product");
  }

  if (grid) {
    // Cartesian product over the value lists, first key slowest.
    struct Axis {
      const KV* kv;
      std::vector<std::string> values;
    };
    std::vector<Axis> axes;
    std::size_t total = 1;
    for (const KV& kv : grid->kvs) {
      Axis ax{&kv, {}};
      std::size_t pos = 0;
      while (pos <= kv.value.size()) {
        const std::size_t comma = std::min(kv.value.find(',', pos), kv.value.size());
        std::string item = kv.value.substr(pos, comma - pos);
        const std::size_t f = item.find_first_not_of(" \t");
        if (f == std::string::npos) {
          fail(ScenarioError::Code::BadValue, filename, kv.vpos.line, kv.vpos.col,
               "'" + kv.key + "': empty item in value list");
        }
        item = item.substr(f, item.find_last_not_of(" \t") - f + 1);
        ax.values.push_back(std::move(item));
        pos = comma + 1;
      }
      total *= ax.values.size();
      axes.push_back(std::move(ax));
    }
    if (axes.empty()) {
      throw ScenarioError(ScenarioError::Code::BadValue, filename, grid->pos.line, grid->pos.col,
                          "[grid] needs at least one 'key = v1, v2, ...' axis");
    }
    if (total > kMaxGridRuns) {
      throw ScenarioError(ScenarioError::Code::GridTooLarge, filename, grid->pos.line,
                          grid->pos.col,
                          "[grid] expands to " + std::to_string(total) + " runs (cap " +
                              std::to_string(kMaxGridRuns) + ")");
    }
    for (std::size_t i = 0; i < total; ++i) {
      RunPlan run;
      run.app = sc.app;
      run.cfg = base;
      std::string label;
      std::size_t radix = total;
      for (const Axis& ax : axes) {
        radix /= ax.values.size();
        const std::string& v = ax.values[(i / radix) % ax.values.size()];
        KV item = *ax.kv;
        item.value = v;
        if (!apply_vocabulary(&run, filename, item)) {
          unknown_key(filename, *grid, item, kVocabulary);
        }
        label += (label.empty() ? "" : ",") + ax.kv->key + "=" + v;
      }
      run.label = label;
      sc.runs.push_back(std::move(run));
    }
  } else if (!run_sections.empty()) {
    for (const Section* s : run_sections) {
      RunPlan run;
      run.app = sc.app;
      run.cfg = base;
      for (const KV& kv : s->kvs) {
        if (kv.key == "label") run.label = kv.value;
        else if (!apply_vocabulary(&run, filename, kv)) {
          unknown_key(filename, *s, kv, std::string(kVocabulary) + " label");
        }
      }
      if (run.label.empty()) run.label = "run" + std::to_string(sc.runs.size());
      sc.runs.push_back(std::move(run));
    }
  } else {
    sc.runs.push_back(RunPlan{sc.name, sc.app, base});
  }

  // Surface config-level errors (e.g. an override pair a run's smaller
  // cluster count invalidated) now, with at least file-level blame,
  // instead of letting them escape to simulation time.
  for (const RunPlan& run : sc.runs) check_run(run, filename, 1, 1);
  return sc;
}

void apply_override(RunPlan* run, const std::string& key, const std::string& value,
                    const std::string& file, int line, int col) {
  const KV kv{key, value, Pos{line, col}, Pos{line, col}};
  if (!apply_vocabulary(run, file, kv)) {
    fail(Code::UnknownKey, file, kv.kpos,
         "unknown key '" + key + "'; known: " + std::string(kVocabulary));
  }
}

void check_run(const RunPlan& run, const std::string& file, int line, int col) {
  try {
    apps::Harness::patch(run.cfg).validate();
  } catch (const net::ConfigError& e) {
    fail(Code::OutOfRange, file, line, col, "run '" + run.label + "': " + e.what());
  }
}

}  // namespace alb::scenario
