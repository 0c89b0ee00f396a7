#include "util/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>

namespace alb::util {

void Options::define(const std::string& name, const std::string& default_value,
                     const std::string& help, Kind kind) {
  defs_[name] = Def{default_value, help, false, false, "", kind};
}

void Options::define_flag(const std::string& name, const std::string& help) {
  defs_[name] = Def{"0", help, true, false, "", Kind::Text};
}

void Options::define_opt_value(const std::string& name, const std::string& default_value,
                               const std::string& implicit_value, const std::string& help,
                               Kind kind) {
  defs_[name] = Def{default_value, help, false, true, implicit_value, kind};
}

bool Options::parse(int argc, const char* const* argv) {
  define_flag("help", "print this help text");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string key = arg.substr(2);
    std::optional<std::string> value;
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    auto it = defs_.find(key);
    if (it == defs_.end()) {
      std::string known;
      for (const auto& [n, d] : defs_) known += " --" + n;
      throw OptionError(key, "unknown option --" + key + "; known:" + known);
    }
    // A repeated option is a contradiction, not a last-wins: `--seed 1
    // --seed 2` almost certainly means an edited command line kept a
    // stale copy, and silently honouring one of them hides that.
    if (!provided_.insert(key).second) {
      throw OptionError(key, "option --" + key + " given more than once");
    }
    if (it->second.is_flag) {
      it->second.value = value.value_or("1");
    } else if (value) {
      it->second.value = *value;
    } else if (it->second.is_opt_value) {
      // Bare form: take the implicit value, never the next token.
      it->second.value = it->second.implicit_value;
    } else {
      // `--key value`: the next argv element is the value — unless it is
      // another option, in which case `--key` was left without a value
      // (e.g. `--seed --trace` must not silently eat `--trace`).
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw OptionError(key, "option --" + key + " needs a value");
      }
      it->second.value = argv[++i];
    }
    if (it->second.kind == Kind::Int) (void)get_int(key);
    if (it->second.kind == Kind::Double) (void)get_double(key);
  }
  if (has_flag("help")) {
    print_usage(argv[0] ? argv[0] : "program");
    return false;
  }
  return true;
}

bool Options::has_flag(const std::string& name) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) throw std::runtime_error("option not defined: " + name);
  if (!it->second.is_flag) {
    // Querying a value option as a flag is a programming error: any
    // non-empty, non-"0" default would silently read as "set".
    throw std::logic_error("option --" + name + " is not a flag");
  }
  return it->second.value != "0" && !it->second.value.empty();
}

const std::string& Options::get(const std::string& name) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) throw std::runtime_error("option not defined: " + name);
  return it->second.value;
}

std::int64_t Options::get_int(const std::string& name) const {
  const std::string& v = get(name);
  errno = 0;
  char* end = nullptr;
  const std::int64_t parsed = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    throw OptionError(name, "option --" + name + ": invalid integer '" + v + "'");
  }
  return parsed;
}

double Options::get_double(const std::string& name) const {
  const std::string& v = get(name);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    throw OptionError(name, "option --" + name + ": invalid number '" + v + "'");
  }
  return parsed;
}

void Options::print_usage(const std::string& program) const {
  std::cout << "usage: " << program << " [options]\n";
  for (const auto& [name, def] : defs_) {
    std::cout << "  --" << name;
    if (def.is_opt_value) {
      std::cout << "[=<" << (def.value.empty() ? "value" : def.value) << ">]";
    } else if (!def.is_flag) {
      std::cout << "=<" << (def.value.empty() ? "value" : def.value) << ">";
    }
    std::cout << "\n      " << def.help << "\n";
  }
}

bool parse_options(Options& opts, int argc, char** argv) {
  try {
    return opts.parse(argc, argv);
  } catch (const OptionError& e) {
    std::string_view program = argc > 0 && argv[0] ? argv[0] : "program";
    program.remove_prefix(program.rfind('/') + 1);  // npos + 1 == 0: no directory part
    std::cerr << program << ": " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace alb::util
