// util layer tests: table rendering, option parsing, statistics.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/log.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace alb::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"app", "speedup"});
  t.row().add("Water").add(56.5, 1);
  t.row().add("TSP").add(62.9, 1);
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("Water"), std::string::npos);
  EXPECT_NE(s.find("56.5"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.row().add("a,b").add("say \"hi\"");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CellAccess) {
  Table t({"x"});
  t.row().add(static_cast<long long>(7));
  EXPECT_EQ(t.cell(0, 0), "7");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_cols(), 1u);
}

TEST(Options, ParsesKeyValueForms) {
  Options o;
  o.define("nodes", "8", "node count");
  o.define("bw", "4.53", "bandwidth");
  o.define_flag("csv", "emit csv");
  const char* argv[] = {"prog", "--nodes=16", "--bw", "2.5", "--csv"};
  ASSERT_TRUE(o.parse(5, argv));
  EXPECT_EQ(o.get_int("nodes"), 16);
  EXPECT_DOUBLE_EQ(o.get_double("bw"), 2.5);
  EXPECT_TRUE(o.has_flag("csv"));
}

TEST(Options, DefaultsApply) {
  Options o;
  o.define("nodes", "8", "node count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  EXPECT_EQ(o.get_int("nodes"), 8);
}

TEST(Options, UnknownOptionThrows) {
  Options o;
  o.define("nodes", "8", "node count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(o.parse(2, argv), std::runtime_error);
}

TEST(Options, HelpReturnsFalse) {
  Options o;
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(o.parse(2, argv));
  (void)testing::internal::GetCapturedStdout();
}

TEST(Options, PositionalArgumentsCollected) {
  Options o;
  const char* argv[] = {"prog", "water", "tsp"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_EQ(o.positional(), (std::vector<std::string>{"water", "tsp"}));
}

TEST(Options, MalformedIntegerThrows) {
  Options o;
  o.define("cpus", "4", "cpu count");
  const char* argv[] = {"prog", "--cpus=abc"};
  ASSERT_TRUE(o.parse(2, argv));
  // The error must name the option and the bad value — not parse as 0.
  try {
    (void)o.get_int("cpus");
    FAIL() << "get_int accepted 'abc'";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("--cpus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(Options, TrailingGarbageAndEmptyNumbersThrow) {
  Options o;
  o.define("cpus", "4", "cpu count");
  o.define("bw", "1.5", "bandwidth");
  const char* argv[] = {"prog", "--cpus=12x", "--bw="};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_THROW((void)o.get_int("cpus"), std::runtime_error);
  EXPECT_THROW((void)o.get_double("bw"), std::runtime_error);
}

TEST(Options, MalformedDoubleThrows) {
  Options o;
  o.define("bw", "1.5", "bandwidth");
  const char* argv[] = {"prog", "--bw", "4.5e"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_THROW((void)o.get_double("bw"), std::runtime_error);
}

TEST(Options, NumericKindsRejectMalformedValuesAtParse) {
  for (const char* arg : {"--cpus=abc", "--bw=4.5e", "--cpus=", "--bw=x"}) {
    Options o;
    o.define("cpus", "4", "cpu count", Options::Kind::Int);
    o.define("bw", "1.5", "bandwidth", Options::Kind::Double);
    const char* argv[] = {"prog", arg};
    try {
      (void)o.parse(2, argv);
      FAIL() << "parse accepted " << arg;
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(arg).find(e.option()), std::string::npos) << e.what();
    }
  }
  Options o;
  o.define("cpus", "4", "cpu count", Options::Kind::Int);
  o.define_opt_value("period", "0", "2", "seconds", Options::Kind::Double);
  const char* argv[] = {"prog", "--cpus", "-3", "--period=0.5"};
  ASSERT_TRUE(o.parse(4, argv));
  EXPECT_EQ(o.get_int("cpus"), -3);
  EXPECT_DOUBLE_EQ(o.get_double("period"), 0.5);
}

TEST(Options, ValidNumbersStillParse) {
  Options o;
  o.define("n", "0", "count");
  o.define("x", "0", "value");
  const char* argv[] = {"prog", "--n=-42", "--x=2.5e3"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_EQ(o.get_int("n"), -42);
  EXPECT_DOUBLE_EQ(o.get_double("x"), 2500.0);
}

TEST(Options, SpaceFormDoesNotEatNextOption) {
  Options o;
  o.define("seed", "42", "rng seed");
  o.define_flag("trace", "enable tracing");
  // `--seed --trace` must report that --seed is missing a value, not
  // silently consume --trace as the seed.
  const char* argv[] = {"prog", "--seed", "--trace"};
  try {
    o.parse(3, argv);
    FAIL() << "parse accepted '--seed --trace'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("needs a value"), std::string::npos);
  }
}

TEST(Options, SpaceFormMissingValueAtEndThrows) {
  Options o;
  o.define("seed", "42", "rng seed");
  const char* argv[] = {"prog", "--seed"};
  EXPECT_THROW(o.parse(2, argv), std::runtime_error);
}

TEST(Options, HasFlagRejectsNonFlags) {
  Options o;
  o.define("nodes", "8", "node count");  // non-empty, non-"0" default
  o.define_flag("csv", "emit csv");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(o.parse(1, argv));
  EXPECT_FALSE(o.has_flag("csv"));
  // A value option must not read as a set flag just because its default
  // is truthy-looking, and an unknown name must not read as unset.
  EXPECT_THROW((void)o.has_flag("nodes"), std::logic_error);
  EXPECT_THROW((void)o.has_flag("bogus"), std::runtime_error);
}

TEST(Options, FlagZeroOverrideReadsUnset) {
  Options o;
  o.define_flag("csv", "emit csv");
  const char* argv[] = {"prog", "--csv=0"};
  ASSERT_TRUE(o.parse(2, argv));
  EXPECT_FALSE(o.has_flag("csv"));
}

TEST(Options, UnknownOptionMessageListsKnown) {
  Options o;
  o.define("nodes", "8", "node count");
  const char* argv[] = {"prog", "--bogus=1"};
  try {
    o.parse(2, argv);
    FAIL() << "parse accepted --bogus";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
  }
}

TEST(Options, DuplicateFlagThrowsTypedError) {
  Options o;
  o.define_flag("csv", "emit csv");
  const char* argv[] = {"prog", "--csv", "--csv"};
  try {
    o.parse(3, argv);
    FAIL() << "parse accepted a repeated flag";
  } catch (const OptionError& e) {
    EXPECT_EQ(e.option(), "csv");
    EXPECT_NE(std::string(e.what()).find("--csv"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("more than once"), std::string::npos);
  }
}

TEST(Options, DuplicateValuedOptionThrowsTypedError) {
  Options o;
  o.define("seed", "42", "rng seed");
  // `--seed 1 --seed 2` is a contradiction, not a last-wins.
  const char* argv[] = {"prog", "--seed", "1", "--seed", "2"};
  try {
    o.parse(5, argv);
    FAIL() << "parse accepted a repeated option";
  } catch (const OptionError& e) {
    EXPECT_EQ(e.option(), "seed");
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
  }
}

TEST(Options, DuplicateAcrossEqualsAndSpaceFormsThrows) {
  Options o;
  o.define("seed", "42", "rng seed");
  const char* argv[] = {"prog", "--seed=1", "--seed", "2"};
  EXPECT_THROW(o.parse(4, argv), OptionError);
}

TEST(Options, MissingValueIsTypedAndNamesTheOption) {
  Options o;
  o.define("seed", "42", "rng seed");
  o.define_flag("trace", "enable tracing");
  // `--seed --trace` must still be "missing value", never "duplicate",
  // and must carry the option name in the typed error.
  const char* argv[] = {"prog", "--seed", "--trace"};
  try {
    o.parse(3, argv);
    FAIL() << "parse accepted '--seed --trace'";
  } catch (const OptionError& e) {
    EXPECT_EQ(e.option(), "seed");
    EXPECT_NE(std::string(e.what()).find("needs a value"), std::string::npos);
  }
}

TEST(Options, UnknownOptionIsTyped) {
  Options o;
  o.define("nodes", "8", "node count");
  const char* argv[] = {"prog", "--bogus=1"};
  try {
    o.parse(2, argv);
    FAIL() << "parse accepted --bogus";
  } catch (const OptionError& e) {
    EXPECT_EQ(e.option(), "bogus");
  }
}

TEST(Options, ProvidedTracksExplicitArgumentsOnly) {
  Options o;
  o.define("seed", "42", "rng seed");
  o.define("nodes", "8", "node count");
  o.define_flag("csv", "emit csv");
  const char* argv[] = {"prog", "--seed=7", "--csv"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_TRUE(o.provided("seed"));
  EXPECT_TRUE(o.provided("csv"));
  EXPECT_FALSE(o.provided("nodes"));  // default applied, not provided
  EXPECT_FALSE(o.provided("bogus"));
}

TEST(Log, CaptureRespectsLevelAndTimestamp) {
  std::string captured;
  set_log_capture(&captured);
  set_log_level(LogLevel::Info);
  ALB_LOG(Debug) << "hidden";
  ALB_LOG(Info) << "visible " << 42;
  ALB_LOG_AT(LogLevel::Warn, 1500) << "stamped";
  set_log_capture(nullptr);
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(captured.find("hidden"), std::string::npos);
  EXPECT_NE(captured.find("visible 42"), std::string::npos);
  EXPECT_NE(captured.find("t=1500ns"), std::string::npos);
}

}  // namespace
}  // namespace alb::util
