#pragma once
// The paper's own values, each quoted once: the benches print their
// "paper" columns from here and the Table 1 calibration tests assert
// against them. Values read off the paper's plots (Figures 1-16) are
// approximate and live in EXPERIMENTS.md's prose instead.

#include <stdexcept>
#include <string>
#include <string_view>

namespace alb::bench::paper {

/// Table 1: null-operation latency and 100 KB-message bandwidth.
struct Primitive {
  double lan_latency_us;
  double wan_latency_ms;
  double lan_mbit;
  double wan_mbit;
};
inline constexpr Primitive kRpc{40, 2.7, 208, 4.53};
inline constexpr Primitive kBroadcast{65, 3.0, 248, 4.53};

/// §2: run-time difference of the emulated against the real WAN, %.
inline constexpr double kValidationMeanPct = 1.14;
inline constexpr double kValidationStdevPct = 3.62;

/// Table 2's speedup and Tables 4/5's intercluster message counts
/// before and after optimization. -1 marks a count the paper does not
/// give; RA's and ASP's are rounded as its text quotes them.
struct App {
  std::string_view name;
  double speedup_64cpu;
  long long rpc_before, rpc_after, bcast_before, bcast_after;
};
inline constexpr App kApps[] = {
    {"Water", 56.5, 25665, 4609, -1, -1},  {"TSP", 62.9, 12221, 111, -1, -1},
    {"ASP", 59.3, -1, -1, 38000, 9600},    {"ATPG", 50.3, 3451, 573, -1, -1},
    {"IDA*", 62.1, 18337, 6461, -1, -1},   {"RA", 25.9, 1310000, 39000, -1, -1},
    {"ACP", 37.0, -1, -1, -1, -1},         {"SOR", 46.3, 1443, 807, -1, -1},
};

inline const App& app(std::string_view name) {
  for (const App& a : kApps) {
    if (a.name == name) return a;
  }
  throw std::out_of_range("no paper values for " + std::string(name));
}

}  // namespace alb::bench::paper
