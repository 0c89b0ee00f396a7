// §2 validation experiment: the paper validated its split-cluster
// emulation (bandwidth-capped ATM board + 600 us software delay at the
// gateway) against the real Delft-Amsterdam WAN and found 1.14% average
// run-time difference. We reproduce the *procedure*: run every
// application on two parameterizations of the two-cluster system — the
// nominal DAS WAN and a perturbed emulation whose latency/bandwidth
// differ by the tolerances the paper's calibration allowed — and report
// the per-app and average run-time differences.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  util::Options opts;
  opts.define_flag("csv", "emit CSV");
  opts.define("latency-skew", "1.03", "emulated/real one-way latency ratio",
              util::Options::Kind::Double);
  opts.define("bandwidth-skew", "0.97", "emulated/real bandwidth ratio",
              util::Options::Kind::Double);
  if (!parse_options(opts, argc, argv)) return 0;
  const double lat_skew = opts.get_double("latency-skew");
  const double bw_skew = opts.get_double("bandwidth-skew");

  util::Table t({"app", "real WAN (s)", "emulated WAN (s)", "diff %"});
  double sum = 0;
  double sum_sq = 0;
  int n = 0;
  for (const auto& entry : apps::registry()) {
    AppConfig real_cfg = make_config(2, 16, false);
    AppConfig emu_cfg = real_cfg;
    emu_cfg.net_cfg.wan.latency =
        static_cast<sim::SimTime>(emu_cfg.net_cfg.wan.latency * lat_skew);
    emu_cfg.net_cfg.wan.bandwidth_bytes_per_sec *= bw_skew;
    AppResult real_r = entry.run(real_cfg);
    AppResult emu_r = entry.run(emu_cfg);
    double diff = (static_cast<double>(emu_r.elapsed) / real_r.elapsed - 1.0) * 100.0;
    sum += diff;
    sum_sq += diff * diff;
    ++n;
    t.row()
        .add(entry.name)
        .add(sim::to_seconds(real_r.elapsed), 3)
        .add(sim::to_seconds(emu_r.elapsed), 3)
        .add(diff, 2);
  }
  double mean = sum / n;
  double stdev = std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
  std::cout << "=== §2 validation: emulated vs nominal WAN, 2 clusters x 16 CPUs ===\n";
  if (opts.has_flag("csv")) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\naverage |difference| " << util::format_fixed(mean, 2) << "% (stdev "
            << util::format_fixed(stdev, 2)
            << "%); paper: 1.14% average, 3.62% stdev\n";
  return 0;
}
