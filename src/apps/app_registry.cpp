#include "apps/app.hpp"

#include "apps/acp.hpp"
#include "apps/asp.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"

namespace alb::apps {

// Paper Table 2 order: Water, TSP, ASP, ATPG, IDA*, RA, ACP, SOR.
const std::vector<AppEntry>& registry() {
  static const std::vector<AppEntry> entries = {
      {"Water", [](const AppConfig& c) { return run_water(c, WaterParams::bench_default()); }},
      {"TSP", [](const AppConfig& c) { return run_tsp(c, TspParams::bench_default()); }},
      {"ASP", [](const AppConfig& c) { return run_asp(c, AspParams::bench_default()); }},
      {"ATPG", [](const AppConfig& c) { return run_atpg(c, AtpgParams::bench_default()); }},
      {"IDA*", [](const AppConfig& c) { return run_ida(c, IdaParams::bench_default()); }},
      {"RA", [](const AppConfig& c) { return run_ra(c, RaParams::bench_default()); }},
      {"ACP", [](const AppConfig& c) { return run_acp(c, AcpParams::bench_default()); }},
      {"SOR", [](const AppConfig& c) { return run_sor(c, SorParams::bench_default()); }},
  };
  return entries;
}

const AppEntry* find_app(const std::string& name) {
  for (const AppEntry& e : registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace alb::apps
