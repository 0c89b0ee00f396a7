#include "telemetry/cli.hpp"

#include <fstream>
#include <ostream>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace alb::telemetry {

void define_cli_options(util::Options& opts) {
  opts.define_opt_value("progress", "0", "2",
                        "emit heartbeat JSON lines every N seconds (bare --progress = 2); "
                        "0 = off; sink is stderr or --progress-out",
                        util::Options::Kind::Double);
  opts.define("progress-out", "", "write heartbeat lines to this file instead of stderr");
  opts.define("telemetry-out", "", "write the wall-clock host Chrome trace (one track per thread) here");
  opts.define("telemetry-json", "", "write the host telemetry JSON snapshot here");
}

bool enable_from_cli(const util::Options& opts, const std::string& job_name) {
  const double period = opts.get_double("progress");
  const bool any = period > 0 || !opts.get("telemetry-out").empty() ||
                   !opts.get("telemetry-json").empty() || !opts.get("progress-out").empty();
  if (!any) return false;
  Config cfg;
  cfg.progress_period_s = period;
  cfg.progress_path = opts.get("progress-out");
  cfg.job_name = job_name;
  Collector::enable(std::move(cfg));
  return true;
}

bool finish_cli(const util::Options& opts, std::ostream& diag) {
  Collector* tc = Collector::active();
  if (!tc) return true;
  bool ok = true;
  const HostTrace t = tc->harvest();
  if (const std::string& p = opts.get("telemetry-out"); !p.empty()) {
    std::ofstream os(p, std::ios::binary);
    if (os) {
      write_host_chrome_trace(t, os);
      diag << "wrote " << p << '\n';
    } else {
      diag << "cannot open " << p << " for writing\n";
      ok = false;
    }
  }
  if (const std::string& p = opts.get("telemetry-json"); !p.empty()) {
    std::ofstream os(p, std::ios::binary);
    if (os) {
      write_host_json(t, os);
      diag << "wrote " << p << '\n';
    } else {
      diag << "cannot open " << p << " for writing\n";
      ok = false;
    }
  }
  Collector::shutdown();
  return ok;
}

}  // namespace alb::telemetry
