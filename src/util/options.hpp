#pragma once
// Minimal command-line option parser shared by bench and example binaries.
//
// Syntax accepted: `--flag`, `--key=value`, `--key value`.
// Unknown options raise an error listing the registered names, so every
// binary self-documents via --help.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace alb::util {

/// A rejected command line (unknown option, missing value, duplicate
/// occurrence, ...). Derives std::runtime_error so existing catch
/// sites keep working; the distinct type lets tests assert the parser
/// (not some downstream code) rejected the input. `option()` names the
/// offending option without the leading dashes.
class OptionError : public std::runtime_error {
 public:
  OptionError(std::string option, const std::string& msg)
      : std::runtime_error(msg), option_(std::move(option)) {}
  const std::string& option() const { return option_; }

 private:
  std::string option_;
};

class Options {
 public:
  /// What an option's value must parse as. parse() rejects a numeric
  /// option's malformed value with an OptionError, so every later
  /// get_int()/get_double() on it succeeds.
  enum class Kind { Text, Int, Double };

  /// Registers an option with a default value and help text.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help, Kind kind = Kind::Text);
  /// Registers a boolean flag (default false).
  void define_flag(const std::string& name, const std::string& help);
  /// Registers an option whose value is optional: bare `--name` means
  /// `implicit_value`, `--name=V` means V. The bare form never consumes
  /// the next argv token (`--progress --jobs 4` parses as expected), so
  /// an explicit value must use the `=` form.
  void define_opt_value(const std::string& name, const std::string& default_value,
                        const std::string& implicit_value, const std::string& help,
                        Kind kind = Kind::Text);

  /// Parses argv. Returns false (after printing usage) if --help was given.
  /// Throws OptionError on unknown, malformed or repeated options —
  /// each option may appear at most once (`--seed 1 --seed 2` is a
  /// contradiction, not a last-wins) — and on a numeric option's value
  /// that does not parse as its Kind.
  bool parse(int argc, const char* const* argv);

  /// True iff `name` appeared on the parsed command line (as opposed to
  /// holding its default). Lets callers layer CLI-overrides-config
  /// precedence without sentinel defaults.
  bool provided(const std::string& name) const { return provided_.count(name) > 0; }

  /// True iff the define_flag-registered flag `name` was set. Throws
  /// std::runtime_error for an undefined name and std::logic_error when
  /// `name` was registered as a value option, not a flag.
  bool has_flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  /// Strictly-parsed numeric accessors: the whole value must consume as
  /// a number in range, or they throw OptionError naming the option and
  /// the offending value (`--cpus=abc` is an error, not 0).
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  void print_usage(const std::string& program) const;

 private:
  struct Def {
    std::string value;
    std::string help;
    bool is_flag = false;
    bool is_opt_value = false;
    std::string implicit_value;  ///< value of the bare form (opt-value only)
    Kind kind = Kind::Text;
  };
  std::map<std::string, Def> defs_;
  std::set<std::string> provided_;
  std::vector<std::string> positional_;
};

/// Parses a bench or example command line; false after --help. A
/// rejected command line (OptionError) prints `<program>: <message>` on
/// one line and exits 2.
bool parse_options(Options& opts, int argc, char** argv);

}  // namespace alb::util
