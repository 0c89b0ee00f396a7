// Scenario DSL parser tests: happy paths (presets, link overrides,
// per-pair WAN, faults, flags, run lists, grids) and every typed error
// path with its reported position. A scenario either loads completely
// or throws — no partial config may escape (the config-drift bugfix
// contract this PR's sweep pins).

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/presets.hpp"

namespace alb {
namespace {

using scenario::Scenario;
using scenario::ScenarioError;
using Code = scenario::ScenarioError::Code;

/// Parses `text` expecting a ScenarioError; returns it for inspection.
ScenarioError expect_error(const std::string& text, Code code) {
  try {
    (void)scenario::parse(text, "test.scn");
  } catch (const ScenarioError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(code)) << e.what();
    EXPECT_EQ(e.file(), "test.scn");
    return e;
  }
  ADD_FAILURE() << "parse accepted:\n" << text;
  return ScenarioError(Code::Io, "", 0, 0, "unreachable");
}

TEST(ScenarioParser, EmptyTextIsTheDefaultDasRun) {
  const Scenario sc = scenario::parse("", "empty.scn");
  EXPECT_EQ(sc.name, "empty");
  ASSERT_EQ(sc.runs.size(), 1u);
  EXPECT_EQ(sc.runs[0].label, "empty");
  EXPECT_TRUE(sc.runs[0].app.empty());
  // Defaults: the DAS preset at 4x15, original variant, seed 42.
  const apps::AppConfig& cfg = sc.base;
  EXPECT_EQ(cfg.clusters, 4);
  EXPECT_EQ(cfg.procs_per_cluster, 15);
  EXPECT_FALSE(cfg.optimized);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(scenario::canonical_request("TSP", cfg),
            scenario::canonical_request("TSP", [] {
              apps::AppConfig c;
              c.clusters = 4;
              c.procs_per_cluster = 15;
              c.net_cfg = net::das_config(4, 15);
              return c;
            }()));
}

TEST(ScenarioParser, PresetsMatchTheHandBuiltConfigs) {
  const auto base_of = [](const std::string& preset) {
    return scenario::parse("[topology]\npreset = " + preset + "\n", "p.scn").base;
  };
  EXPECT_EQ(scenario::canonical_request("ASP", base_of("internet")),
            scenario::canonical_request("ASP", [] {
              apps::AppConfig c;
              c.clusters = 4;
              c.procs_per_cluster = 15;
              c.net_cfg = net::internet_config(4, 15);
              return c;
            }()));
  EXPECT_EQ(scenario::canonical_request("ASP", base_of("slow-wan")),
            scenario::canonical_request("ASP", [] {
              apps::AppConfig c;
              c.clusters = 4;
              c.procs_per_cluster = 15;
              c.net_cfg = net::slow_wan_config(4, 15);
              return c;
            }()));
}

TEST(ScenarioParser, UnitSuffixesConvertExactly) {
  const Scenario sc = scenario::parse(
      "[link wan]\n"
      "latency = 1.21ms\n"
      "bandwidth = 4.53Mbit\n"
      "overhead = 10us\n",
      "u.scn");
  EXPECT_EQ(sc.base.net_cfg.wan.latency, sim::microseconds(1210));
  EXPECT_EQ(sc.base.net_cfg.wan.bandwidth_bytes_per_sec, 4.53e6 / 8.0);
  EXPECT_EQ(sc.base.net_cfg.wan.per_message_overhead, sim::microseconds(10));
}

TEST(ScenarioParser, RttSubtractsTheFixedPathCosts) {
  // rtt -> one-way must match net::custom_wan_config: rtt/2 - 140us.
  const Scenario sc = scenario::parse("[link wan]\nrtt = 8ms\n", "r.scn");
  EXPECT_EQ(sc.base.net_cfg.wan.latency, sim::microseconds(3860));
  // An rtt below the fixed costs clamps to zero instead of going negative.
  const Scenario tiny = scenario::parse("[link wan]\nrtt = 100us\n", "r.scn");
  EXPECT_EQ(tiny.base.net_cfg.wan.latency, 0);
}

TEST(ScenarioParser, FlagsSectionSetsWideAreaKnobs) {
  const Scenario sc = scenario::parse(
      "[flags]\n"
      "app = ASP\n"
      "opt = true\n"
      "coll = tree\n"
      "wan_streams = 4\n"
      "combine_bytes = 8192\n"
      "adapt = on\n"
      "seed = 7\n",
      "f.scn");
  EXPECT_EQ(sc.app, "ASP");
  EXPECT_TRUE(sc.base.optimized);
  EXPECT_EQ(sc.base.coll, orca::coll::Mode::Tree);
  EXPECT_EQ(sc.base.wan_streams, 4);
  EXPECT_EQ(sc.base.combine_bytes, 8192);
  EXPECT_TRUE(sc.base.adapt);
  EXPECT_EQ(sc.base.seed, 7u);
  ASSERT_EQ(sc.runs.size(), 1u);
  EXPECT_EQ(sc.runs[0].app, "ASP");
}

TEST(ScenarioParser, FaultSectionsArmThePlan) {
  const Scenario sc = scenario::parse(
      "[faults]\n"
      "wan.loss = 0.05\n"
      "wan.latency_jitter = 0.25\n"
      "recovery.max_attempts = 12\n"
      "[flap]\n"
      "from = any\n"
      "to = any\n"
      "start = 5ms\n"
      "end = 25ms\n"
      "[brownout]\n"
      "cluster = 1\n"
      "start = 30ms\n"
      "end = 50ms\n"
      "slow_factor = 2.0\n"
      "extra_loss = 0.05\n",
      "fa.scn");
  EXPECT_TRUE(sc.base.faults.enabled);  // armed implicitly by content
  EXPECT_DOUBLE_EQ(sc.base.faults.wan.loss, 0.05);
  EXPECT_DOUBLE_EQ(sc.base.faults.wan.latency_jitter, 0.25);
  EXPECT_EQ(sc.base.faults.recovery.max_attempts, 12);
  ASSERT_EQ(sc.base.faults.flaps.size(), 1u);
  EXPECT_EQ(sc.base.faults.flaps[0].from, -1);
  EXPECT_EQ(sc.base.faults.flaps[0].start, sim::milliseconds(5));
  ASSERT_EQ(sc.base.faults.brownouts.size(), 1u);
  EXPECT_EQ(sc.base.faults.brownouts[0].cluster, 1);

  const Scenario off = scenario::parse(
      "[faults]\nenabled = false\nwan.loss = 0.5\n", "off.scn");
  EXPECT_FALSE(off.base.faults.enabled);  // explicit off wins
}

TEST(ScenarioParser, PerPairWanOverrides) {
  const Scenario sc = scenario::parse(
      "[topology]\n"
      "preset = das\n"
      "clusters = 3\n"
      "per_cluster = 4\n"
      "[wan 0-2]\n"
      "rtt = 8ms\n"
      "bandwidth = 1.8Mbit\n",
      "h.scn");
  const net::TopologyConfig& t = sc.base.net_cfg;
  ASSERT_EQ(t.wan_overrides.size(), 1u);
  // The override applies symmetrically; unlisted pairs keep the base.
  EXPECT_EQ(t.wan_between(0, 2).latency, sim::microseconds(3860));
  EXPECT_EQ(t.wan_between(2, 0).latency, sim::microseconds(3860));
  EXPECT_EQ(t.wan_between(0, 1).latency, sim::microseconds(1210));
  // Unspecified keys of an overridden pair keep the base circuit's.
  EXPECT_EQ(t.wan_between(0, 2).per_message_overhead, t.wan.per_message_overhead);
  // The minimum intercluster latency tightens to the fastest circuit.
  EXPECT_EQ(t.min_intercluster_latency(), sim::microseconds(1210));
}

TEST(ScenarioParser, GridExpandsFirstKeySlowest) {
  const Scenario sc = scenario::parse(
      "[topology]\nclusters = 2\nper_cluster = 2\n"
      "[grid]\n"
      "opt = 0, 1\n"
      "seed = 42, 43, 44\n",
      "g.scn");
  ASSERT_EQ(sc.runs.size(), 6u);
  EXPECT_EQ(sc.runs[0].label, "opt=0,seed=42");
  EXPECT_EQ(sc.runs[1].label, "opt=0,seed=43");
  EXPECT_EQ(sc.runs[2].label, "opt=0,seed=44");
  EXPECT_EQ(sc.runs[3].label, "opt=1,seed=42");
  EXPECT_EQ(sc.runs[5].label, "opt=1,seed=44");
  EXPECT_FALSE(sc.runs[0].cfg.optimized);
  EXPECT_TRUE(sc.runs[3].cfg.optimized);
  EXPECT_EQ(sc.runs[4].cfg.seed, 43u);
}

TEST(ScenarioParser, RunListAppliesOverridesPerRun) {
  const Scenario sc = scenario::parse(
      "[run]\nlabel = a\nrtt = 8ms\nbandwidth = 1.8Mbit\n"
      "[run]\nopt = 1\n",
      "rl.scn");
  ASSERT_EQ(sc.runs.size(), 2u);
  EXPECT_EQ(sc.runs[0].label, "a");
  EXPECT_EQ(sc.runs[0].cfg.net_cfg.wan.latency, sim::microseconds(3860));
  EXPECT_EQ(sc.runs[1].label, "run1");  // default label by index
  EXPECT_TRUE(sc.runs[1].cfg.optimized);
  // The second run keeps the base WAN — overrides never leak across runs.
  EXPECT_EQ(sc.runs[1].cfg.net_cfg.wan.latency, sim::microseconds(1210));
}

// --- error paths, each with the typed code and reported position -----

TEST(ScenarioParserErrors, UnknownSection) {
  const ScenarioError e = expect_error("[bogus]\n", Code::UnknownSection);
  EXPECT_EQ(e.line(), 1);
  EXPECT_EQ(e.col(), 1);
  EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
}

TEST(ScenarioParserErrors, UnknownKeyNamesSectionAndPosition) {
  const ScenarioError e =
      expect_error("[topology]\npreset = das\nfoo = 1\n", Code::UnknownKey);
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.col(), 1);
  EXPECT_NE(std::string(e.what()).find("'foo'"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("[topology]"), std::string::npos);
}

TEST(ScenarioParserErrors, BadUnitSuffix) {
  // A bare duration (other than 0) must not guess its unit.
  const ScenarioError e = expect_error("[link wan]\nlatency = 5\n", Code::BadUnit);
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(e.col(), 11);  // points at the value
  const ScenarioError b =
      expect_error("[link wan]\nbandwidth = 4.53MB\n", Code::BadUnit);
  EXPECT_EQ(b.line(), 2);
}

TEST(ScenarioParserErrors, OutOfRangeLinkParams) {
  const ScenarioError neg =
      expect_error("[link wan]\nlatency = -5us\n", Code::OutOfRange);
  EXPECT_EQ(neg.line(), 2);
  const ScenarioError bw =
      expect_error("[link wan]\nbandwidth = 0bit\n", Code::OutOfRange);
  EXPECT_EQ(bw.line(), 2);
  expect_error("[faults]\nwan.loss = 1.5\n", Code::OutOfRange);
  expect_error("[flags]\nwan_streams = 65\n", Code::OutOfRange);
}

TEST(ScenarioParserErrors, UndefinedClusterReference) {
  const ScenarioError wan = expect_error(
      "[topology]\nclusters = 2\nper_cluster = 2\n[wan 0-2]\nlatency = 1ms\n",
      Code::UndefinedCluster);
  EXPECT_EQ(wan.line(), 4);
  const ScenarioError bo = expect_error(
      "[topology]\nclusters = 2\nper_cluster = 2\n"
      "[brownout]\ncluster = 5\nstart = 1ms\nend = 2ms\n",
      Code::UndefinedCluster);
  EXPECT_EQ(bo.line(), 5);
}

TEST(ScenarioParserErrors, GridExpansionOverCapFailsLoudly) {
  std::string grid = "[grid]\nseed = 0";
  for (int i = 1; i < 70; ++i) grid += ", " + std::to_string(i);
  grid += "\nwan_streams = 1";
  for (int i = 2; i <= 64; ++i) grid += ", " + std::to_string(i % 64 + 1);
  grid += "\n";  // 70 x 64 = 4480 > 4096
  const ScenarioError e = expect_error(grid, Code::GridTooLarge);
  EXPECT_NE(std::string(e.what()).find("4480"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("4096"), std::string::npos);
}

TEST(ScenarioParserErrors, RunAndGridAreMutuallyExclusive) {
  expect_error("[run]\nopt = 1\n[grid]\nseed = 1, 2\n", Code::Conflict);
}

TEST(ScenarioParserErrors, DuplicateKeyAndSection) {
  const ScenarioError key =
      expect_error("[topology]\nclusters = 2\nclusters = 4\n", Code::DuplicateKey);
  EXPECT_EQ(key.line(), 3);
  EXPECT_NE(std::string(key.what()).find("line 2"), std::string::npos);
  expect_error("[topology]\n[topology]\n", Code::DuplicateKey);
  expect_error("[link wan]\nrtt = 1ms\n[link wan]\nrtt = 2ms\n", Code::DuplicateKey);
  expect_error("[wan 0-1]\nrtt = 1ms\n[wan 1-0]\nrtt = 2ms\n", Code::DuplicateKey);
}

TEST(ScenarioParserErrors, SyntaxErrors) {
  expect_error("key = 1\n", Code::Syntax);          // key before any section
  expect_error("[topology]\nnot a pair\n", Code::Syntax);
  expect_error("[topology\n", Code::Syntax);        // unterminated header
  expect_error("[wan zero-one]\nrtt = 1ms\n", Code::Syntax);
  expect_error("[wan 0]\nrtt = 1ms\n", Code::Syntax);
}

TEST(ScenarioParserErrors, BadValues) {
  expect_error("[topology]\npreset = atm\n", Code::BadValue);
  expect_error("[flags]\ncoll = ring\n", Code::BadValue);
  expect_error("[flags]\nopt = maybe\n", Code::BadValue);
  expect_error("[grid]\nseed = 1,,2\n", Code::BadValue);  // empty item
  expect_error("[grid]\n", Code::BadValue);               // no axes
  expect_error("[link dialup]\nrtt = 1ms\n", Code::BadValue);
}

TEST(ScenarioParserErrors, GridRejectsLabel) {
  expect_error("[grid]\nlabel = a, b\n", Code::UnknownKey);
}

TEST(ScenarioParserErrors, FlagsRejectsTopologyOverrides) {
  expect_error("[flags]\nclusters = 2\n", Code::UnknownKey);
  expect_error("[flags]\nrtt = 1ms\n", Code::UnknownKey);
  expect_error("[flags]\nlabel = x\n", Code::UnknownKey);
}

TEST(ScenarioParserErrors, RunLevelTopologyValidationFailure) {
  // A [run] that shrinks the topology under an override pair must fail
  // at parse time, not at simulation time.
  const ScenarioError e = expect_error(
      "[topology]\nclusters = 4\nper_cluster = 2\n"
      "[wan 2-3]\nrtt = 8ms\n"
      "[run]\nlabel = small\nclusters = 2\n",
      Code::OutOfRange);
  EXPECT_NE(std::string(e.what()).find("small"), std::string::npos);
}

TEST(ScenarioParserErrors, FlapWindowMustBeOrdered) {
  expect_error("[flap]\nfrom = any\nto = any\nstart = 5ms\nend = 5ms\n",
               Code::OutOfRange);
}

// --- the override vocabulary -----------------------------------------

// One accepted value and its effect, and one rejected value and its
// code, for every key of the vocabulary that .scn sections, alb-serve
// request lines and alb-trace flags share.
TEST(ScenarioVocabulary, EveryKeyParsesAndRangeChecks) {
  using Check = std::function<bool(const scenario::RunPlan&)>;
  struct Row {
    const char* key;
    const char* good;
    Check effect;
    const char* bad;
    Code code;
  };
  const std::vector<Row> rows = {
      {"app", "ASP", [](const auto& r) { return r.app == "ASP"; }, "Bogus", Code::BadValue},
      {"opt", "on", [](const auto& r) { return r.cfg.optimized; }, "maybe", Code::BadValue},
      {"adapt", "1", [](const auto& r) { return r.cfg.adapt; }, "2", Code::BadValue},
      {"seed", "7", [](const auto& r) { return r.cfg.seed == 7u; }, "-1", Code::OutOfRange},
      {"coll", "tree", [](const auto& r) { return r.cfg.coll == orca::coll::Mode::Tree; }, "ring",
       Code::BadValue},
      {"wan_streams", "64", [](const auto& r) { return r.cfg.wan_streams == 64; }, "65",
       Code::OutOfRange},
      {"combine_bytes", "4096", [](const auto& r) { return r.cfg.combine_bytes == 4096; },
       "1073741825", Code::OutOfRange},
      {"clusters", "2", [](const auto& r) { return r.cfg.clusters == 2; }, "0", Code::OutOfRange},
      {"per_cluster", "4096", [](const auto& r) { return r.cfg.procs_per_cluster == 4096; },
       "4097", Code::OutOfRange},
      {"rtt", "20ms",
       [](const auto& r) { return r.cfg.net_cfg.wan.latency == sim::microseconds(9860); }, "-1ms",
       Code::OutOfRange},
      {"latency", "5ms",
       [](const auto& r) { return r.cfg.net_cfg.wan.latency == sim::milliseconds(5); }, "5",
       Code::BadUnit},
      {"bandwidth", "8Mbit",
       [](const auto& r) { return r.cfg.net_cfg.wan.bandwidth_bytes_per_sec == 1e6; }, "0Mbit",
       Code::OutOfRange},
  };
  const scenario::RunPlan base = scenario::load("das").runs[0];
  for (const Row& row : rows) {
    scenario::RunPlan run = base;
    scenario::apply_override(&run, row.key, row.good, "req", 3, 5);
    EXPECT_TRUE(row.effect(run)) << row.key << "=" << row.good;
    EXPECT_FALSE(row.effect(base)) << row.key << ": the base already has the value";
    try {
      scenario::apply_override(&run, row.key, row.bad, "req", 3, 5);
      ADD_FAILURE() << row.key << "=" << row.bad << " was accepted";
    } catch (const ScenarioError& e) {
      EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(row.code)) << e.what();
      EXPECT_EQ(e.file(), "req");
      EXPECT_EQ(e.line(), 3);
      EXPECT_EQ(e.col(), 5);
    }
  }
  scenario::RunPlan run = base;
  try {
    scenario::apply_override(&run, "label", "x", "req", 1, 1);
    ADD_FAILURE() << "label is not a run override";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(Code::UnknownKey)) << e.what();
  }
}

TEST(ScenarioVocabulary, CheckRunRejectsAPairAShrunkenTopologyLacks) {
  scenario::RunPlan run = scenario::load("hetero3").runs[0];
  scenario::check_run(run, "req", 1, 1);
  scenario::apply_override(&run, "clusters", "2", "req", 1, 1);
  try {
    scenario::check_run(run, "req", 2, 1);
    FAIL() << "check_run accepted a [wan 0-2] pair on 2 clusters";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(Code::OutOfRange)) << e.what();
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("hetero3"), std::string::npos) << e.what();
  }
}

TEST(ScenarioVocabulary, UnknownAppIsRejectedInEverySection) {
  expect_error("[flags]\napp = Bogus\n", Code::BadValue);
  expect_error("[run]\napp = Bogus\n", Code::BadValue);
  expect_error("[grid]\napp = TSP, Bogus\n", Code::BadValue);
}

TEST(ScenarioVocabulary, TransportLeavesStreamsAndCombiningToTheVocabulary) {
  // wan_streams and combine_bytes are the one spelling of these values.
  expect_error("[transport]\nstreams = 2\n", Code::UnknownKey);
  expect_error("[transport]\ncombine_bytes = 4KB\n", Code::UnknownKey);
  const Scenario sc = scenario::parse("[transport]\nchunk = 8KB\n", "t.scn");
  EXPECT_EQ(sc.base.net_cfg.wan_transport.stream_chunk_bytes, 8192u);
}

// --- file loading ----------------------------------------------------

TEST(ScenarioLoad, MissingFileIsTypedIo) {
  try {
    (void)scenario::load("/nonexistent/nope.scn");
    FAIL() << "load accepted a missing file";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(Code::Io));
  }
}

TEST(ScenarioLoad, ShippedScenariosAllParse) {
  for (const char* name : {"das", "internet", "slow-wan", "sensitivity",
                           "faults-preset", "hetero3", "sweep-demo"}) {
    const Scenario sc = scenario::load(name);
    EXPECT_EQ(sc.name, name);
    EXPECT_GE(sc.runs.size(), 1u) << name;
  }
  EXPECT_EQ(scenario::load("sensitivity").runs.size(), 5u);
  EXPECT_EQ(scenario::load("sweep-demo").runs.size(), 6u);
  EXPECT_EQ(scenario::load("hetero3").base.net_cfg.wan_overrides.size(), 3u);
}

TEST(ScenarioCanonicalRequest, IsStableAndDiscriminating) {
  const apps::AppConfig base = scenario::load("das").base;
  const std::string a = scenario::canonical_request("TSP", base);
  EXPECT_EQ(a, scenario::canonical_request("TSP", base));  // deterministic
  apps::AppConfig other = base;
  other.seed = 43;
  EXPECT_NE(a, scenario::canonical_request("TSP", other));
  EXPECT_NE(a, scenario::canonical_request("ASP", base));
  // Trace recording is pinned output-neutral: same address.
  apps::AppConfig traced = base;
  traced.trace.enabled = true;
  traced.trace.capacity = 7;
  traced.trace.engine_events = true;
  EXPECT_EQ(a, scenario::canonical_request("TSP", traced));
}

TEST(ScenarioCanonicalRequest, EveryOutputFieldChangesTheKey) {
  // The result cache serves a stored answer for any request with the
  // same canonical text, so every field that can move a simulated byte
  // must reach that text. Each case perturbs one field of AppConfig,
  // its TopologyConfig or its (enabled) FaultPlan; the case list
  // mirrors the struct declarations, so a new field belongs here too.
  apps::AppConfig base = scenario::load("das").base;
  base.net_cfg.wan_overrides.push_back({0, 1, base.net_cfg.wan});
  net::FaultPlan& f = base.faults;
  f.enabled = true;
  f.wan.loss = 0.05;
  f.flaps.push_back({0, 1, sim::milliseconds(1), sim::milliseconds(2)});
  f.brownouts.push_back({1, sim::milliseconds(3), sim::milliseconds(4), 2.0, 0.1});
  f.force_drop = {3};
  f.force_drop_from = 0;
  const std::string ref = scenario::canonical_request("TSP", base);

  using Mutate = std::function<void(apps::AppConfig&)>;
  const std::vector<std::pair<const char*, Mutate>> cases = {
      {"clusters", [](apps::AppConfig& c) { ++c.clusters; }},
      {"procs_per_cluster", [](apps::AppConfig& c) { ++c.procs_per_cluster; }},
      {"optimized", [](apps::AppConfig& c) { c.optimized = !c.optimized; }},
      {"seed", [](apps::AppConfig& c) { ++c.seed; }},
      {"coll", [](apps::AppConfig& c) { c.coll = orca::coll::Mode::Tree; }},
      {"wan_streams", [](apps::AppConfig& c) { c.wan_streams = 2; }},
      {"combine_bytes", [](apps::AppConfig& c) { c.combine_bytes = 512; }},
      {"adapt", [](apps::AppConfig& c) { c.adapt = !c.adapt; }},
      {"net.lan.latency", [](apps::AppConfig& c) { ++c.net_cfg.lan.latency; }},
      {"net.lan.bandwidth", [](apps::AppConfig& c) { c.net_cfg.lan.bandwidth_bytes_per_sec *= 2; }},
      {"net.lan.overhead", [](apps::AppConfig& c) { ++c.net_cfg.lan.per_message_overhead; }},
      {"net.access.latency", [](apps::AppConfig& c) { ++c.net_cfg.access.latency; }},
      {"net.access.bandwidth",
       [](apps::AppConfig& c) { c.net_cfg.access.bandwidth_bytes_per_sec *= 2; }},
      {"net.access.overhead", [](apps::AppConfig& c) { ++c.net_cfg.access.per_message_overhead; }},
      {"net.wan.latency", [](apps::AppConfig& c) { ++c.net_cfg.wan.latency; }},
      {"net.wan.bandwidth", [](apps::AppConfig& c) { c.net_cfg.wan.bandwidth_bytes_per_sec *= 2; }},
      {"net.wan.overhead", [](apps::AppConfig& c) { ++c.net_cfg.wan.per_message_overhead; }},
      {"net.gateway_forward", [](apps::AppConfig& c) { ++c.net_cfg.gateway_forward_overhead; }},
      {"net.lan_broadcast.latency", [](apps::AppConfig& c) { ++c.net_cfg.lan_broadcast.latency; }},
      {"net.lan_broadcast.bandwidth",
       [](apps::AppConfig& c) { c.net_cfg.lan_broadcast.bandwidth_bytes_per_sec *= 2; }},
      {"net.lan_broadcast.overhead",
       [](apps::AppConfig& c) { ++c.net_cfg.lan_broadcast.per_message_overhead; }},
      {"net.transport.streams", [](apps::AppConfig& c) { c.net_cfg.wan_transport.streams = 3; }},
      {"net.transport.stream_chunk_bytes",
       [](apps::AppConfig& c) { c.net_cfg.wan_transport.stream_chunk_bytes *= 2; }},
      {"net.transport.combine_bytes",
       [](apps::AppConfig& c) { c.net_cfg.wan_transport.combine_bytes = 1024; }},
      {"net.transport.combine_epoch",
       [](apps::AppConfig& c) { c.net_cfg.wan_transport.combine_epoch *= 2; }},
      {"net.transport.frame_bytes",
       [](apps::AppConfig& c) { c.net_cfg.wan_transport.frame_bytes = 40; }},
      {"net.override.from", [](apps::AppConfig& c) { c.net_cfg.wan_overrides[0].from = 2; }},
      {"net.override.to", [](apps::AppConfig& c) { c.net_cfg.wan_overrides[0].to = 3; }},
      {"net.override.latency",
       [](apps::AppConfig& c) { ++c.net_cfg.wan_overrides[0].params.latency; }},
      {"net.override.bandwidth",
       [](apps::AppConfig& c) { c.net_cfg.wan_overrides[0].params.bandwidth_bytes_per_sec *= 2; }},
      {"net.override.overhead",
       [](apps::AppConfig& c) { ++c.net_cfg.wan_overrides[0].params.per_message_overhead; }},
      {"net.override.added",
       [](apps::AppConfig& c) { c.net_cfg.wan_overrides.push_back(c.net_cfg.wan_overrides[0]); }},
      {"faults.enabled", [](apps::AppConfig& c) { c.faults.enabled = false; }},
      {"faults.lan.loss", [](apps::AppConfig& c) { c.faults.lan.loss = 0.01; }},
      {"faults.lan.latency_jitter", [](apps::AppConfig& c) { c.faults.lan.latency_jitter = 0.1; }},
      {"faults.lan.bandwidth_jitter",
       [](apps::AppConfig& c) { c.faults.lan.bandwidth_jitter = 0.1; }},
      {"faults.access.loss", [](apps::AppConfig& c) { c.faults.access.loss = 0.01; }},
      {"faults.access.latency_jitter",
       [](apps::AppConfig& c) { c.faults.access.latency_jitter = 0.1; }},
      {"faults.access.bandwidth_jitter",
       [](apps::AppConfig& c) { c.faults.access.bandwidth_jitter = 0.1; }},
      {"faults.wan.loss", [](apps::AppConfig& c) { c.faults.wan.loss = 0.06; }},
      {"faults.wan.latency_jitter", [](apps::AppConfig& c) { c.faults.wan.latency_jitter = 0.1; }},
      {"faults.wan.bandwidth_jitter",
       [](apps::AppConfig& c) { c.faults.wan.bandwidth_jitter = 0.1; }},
      {"faults.flap.from", [](apps::AppConfig& c) { c.faults.flaps[0].from = 2; }},
      {"faults.flap.to", [](apps::AppConfig& c) { c.faults.flaps[0].to = 2; }},
      {"faults.flap.start", [](apps::AppConfig& c) { ++c.faults.flaps[0].start; }},
      {"faults.flap.end", [](apps::AppConfig& c) { ++c.faults.flaps[0].end; }},
      {"faults.brownout.cluster", [](apps::AppConfig& c) { c.faults.brownouts[0].cluster = 2; }},
      {"faults.brownout.start", [](apps::AppConfig& c) { ++c.faults.brownouts[0].start; }},
      {"faults.brownout.end", [](apps::AppConfig& c) { ++c.faults.brownouts[0].end; }},
      {"faults.brownout.slow_factor",
       [](apps::AppConfig& c) { c.faults.brownouts[0].slow_factor = 3.0; }},
      {"faults.brownout.extra_loss",
       [](apps::AppConfig& c) { c.faults.brownouts[0].extra_loss = 0.2; }},
      {"faults.recovery.rpc_timeout", [](apps::AppConfig& c) { ++c.faults.recovery.rpc_timeout; }},
      {"faults.recovery.seq_timeout", [](apps::AppConfig& c) { ++c.faults.recovery.seq_timeout; }},
      {"faults.recovery.backoff", [](apps::AppConfig& c) { c.faults.recovery.backoff = 3.0; }},
      {"faults.recovery.max_attempts", [](apps::AppConfig& c) { ++c.faults.recovery.max_attempts; }},
      {"faults.force_drop", [](apps::AppConfig& c) { c.faults.force_drop.push_back(5); }},
      {"faults.force_drop_from", [](apps::AppConfig& c) { c.faults.force_drop_from = 1; }},
  };
  for (const auto& [name, mutate] : cases) {
    apps::AppConfig c = base;
    mutate(c);
    EXPECT_NE(ref, scenario::canonical_request("TSP", c)) << name << " is missing from the key";
  }

  // Output-neutral: trace recording, and the topology's own node counts
  // (the harness overwrites them with clusters/procs_per_cluster).
  apps::AppConfig neutral = base;
  neutral.trace.enabled = true;
  neutral.net_cfg.clusters = 7;
  neutral.net_cfg.nodes_per_cluster = 9;
  EXPECT_EQ(ref, scenario::canonical_request("TSP", neutral));
}

}  // namespace
}  // namespace alb
