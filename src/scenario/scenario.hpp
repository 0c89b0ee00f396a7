#pragma once
// Declarative scenario language (.scn files).
//
// The paper's methodology is "describe a wide-area configuration, run
// the app, compare" — a scenario file is that description as data
// instead of a hand-built C++ config: a multi-level topology (preset or
// explicit link parameters, heterogeneous per-pair WAN circuits), a
// fault plan, the wide-area flags (--coll / --combine-bytes /
// --wan-streams / --adapt), and either an explicit run list or a
// parameter grid. `scenarios/` ships one canonical file per
// configuration the benches used to hand-build; tests pin each one
// byte-identical (checksum + trace_hash) to the old builder output.
//
// Format: INI/TOML-like lines.  `[section]` headers, `key = value`
// pairs, `#` comments.  Values carry unit suffixes: time ns/us/ms/s,
// bandwidth bit/Kbit/Mbit/Gbit (decimal, application-level bits/s),
// sizes B/KB/MB (binary).  docs/SCENARIOS.md is the schema reference.
//
// Every parse failure is a typed ScenarioError carrying the offending
// file:line:column — a scenario either loads completely or not at all;
// no partially-applied config ever escapes.

#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hpp"

namespace alb::scenario {

/// A malformed scenario file. `code()` classifies the failure for
/// programmatic handling (tests assert on it); what() is
/// "file:line:col: message" so editors can jump to the fault.
class ScenarioError : public std::runtime_error {
 public:
  enum class Code {
    Io,                ///< file unreadable / not found
    Syntax,            ///< malformed line or section header
    UnknownSection,    ///< section name not in the schema
    UnknownKey,        ///< key not valid in its section
    DuplicateKey,      ///< same key (or unique section) twice
    BadValue,          ///< value does not parse as its type
    BadUnit,           ///< missing or unknown unit suffix
    OutOfRange,        ///< parsed fine but outside the legal range
    UndefinedCluster,  ///< reference to a cluster the topology lacks
    GridTooLarge,      ///< grid expansion exceeds the hard cap
    Conflict,          ///< mutually exclusive constructs ([run] + [grid])
  };

  ScenarioError(Code code, const std::string& file, int line, int col, const std::string& msg)
      : std::runtime_error(file + ":" + std::to_string(line) + ":" + std::to_string(col) + ": " +
                           msg),
        code_(code),
        file_(file),
        line_(line),
        col_(col) {}

  Code code() const { return code_; }
  const std::string& file() const { return file_; }
  int line() const { return line_; }
  int col() const { return col_; }

 private:
  Code code_;
  std::string file_;
  int line_;
  int col_;
};

/// Hard cap on [grid] expansion — a typo like `seed = 1..1e6` must fail
/// loudly instead of scheduling a million simulations.
inline constexpr std::size_t kMaxGridRuns = 4096;

/// One fully-resolved run: the scenario base with one [run] section's
/// (or one grid point's) overrides applied.
struct RunPlan {
  /// Display label: [run] label=, or the grid point's "key=value,..."
  /// signature, or the scenario name for the implicit single run.
  std::string label;
  /// App registry name; empty = scenario doesn't choose (caller's
  /// default applies).
  std::string app;
  apps::AppConfig cfg;
};

/// A parsed scenario: the base configuration plus its expanded run list
/// (always at least one entry).
struct Scenario {
  std::string name;
  std::string description;
  /// Source path, for diagnostics ("<string>" when parsed from text).
  std::string file;
  /// App registry name from [flags] (empty = caller's default).
  std::string app;
  apps::AppConfig base;
  std::vector<RunPlan> runs;
};

/// Parses scenario text. `filename` is used for diagnostics only.
/// Throws ScenarioError; never returns a partial scenario.
Scenario parse(const std::string& text, const std::string& filename = "<string>");

/// Applies one run override `key = value` to `run`. The vocabulary is
/// that of [flags]/[run]/[grid] (docs/SCENARIOS.md, "The override
/// vocabulary"): app opt adapt seed coll wan_streams combine_bytes
/// clusters per_cluster rtt latency bandwidth. The one place these keys
/// are parsed and range-checked, for .scn files, alb-serve request
/// lines and alb-trace flags alike; `app` must name a registry app.
/// Throws ScenarioError at file:line:col.
void apply_override(RunPlan* run, const std::string& key, const std::string& value,
                    const std::string& file, int line, int col);

/// Checks that the topology `run` would build is valid (e.g. no
/// [wan A-B] pair beyond an overridden cluster count), so a bad run
/// fails before simulating. Throws ScenarioError (OutOfRange) at
/// file:line:col naming the run's label.
void check_run(const RunPlan& run, const std::string& file, int line, int col);

/// Resolves a scenario reference to a path: anything containing '/' or
/// ending in ".scn" is used as a path; a bare name resolves to
/// `<scenario_dir()>/<name>.scn`.
std::string locate(const std::string& ref);

/// Reads and parses `locate(ref)`. Throws ScenarioError (Code::Io when
/// the file cannot be read).
Scenario load(const std::string& ref);

/// The shipped-scenario directory: $ALB_SCENARIO_DIR if set, else the
/// build-time source path, else "./scenarios".
std::string scenario_dir();

/// Canonical request text for a (app, config) pair: every
/// output-relevant field serialized as deterministic key=value lines.
/// Excludes `trace`, the one output-neutral field (a traced run
/// dispatches the identical event stream), so a cache keyed on this
/// text serves traced and untraced requests alike. This is the
/// content-address the campaign result cache hashes.
std::string canonical_request(const std::string& app, const apps::AppConfig& cfg);

}  // namespace alb::scenario
