#include "apps/atpg.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/cluster_reduce.hpp"
#include "sim/rng.hpp"

namespace alb::apps {

namespace {

enum class GateOp : std::uint8_t { And, Or, Xor, Not };

struct Gate {
  GateOp op;
  std::uint32_t a;  // value-buffer slot of the first input
  std::uint32_t b;  // slot of the second input (unused for Not)
};

/// A random layered combinational circuit. Gate i may read primary
/// inputs or gates < i; the last kOutputs gates are outputs.
///
/// Evaluation is bit-parallel: a word holds one signal for 64 input
/// vectors at once, lane v being vector v. Slots [0, 64) of a value
/// buffer carry the primary-input words (input i reads bit i % 64 of
/// its vector), slot 64 + i gate i's output.
struct Circuit {
  std::vector<Gate> gates;
  int primary_inputs;
  static constexpr int kOutputs = 16;
  static constexpr int kInputSlots = 64;

  static Circuit generate(int num_gates, int num_pi, std::uint64_t seed) {
    Circuit c;
    c.primary_inputs = num_pi;
    c.gates.reserve(static_cast<std::size_t>(num_gates));
    sim::Rng rng(seed);
    for (int i = 0; i < num_gates; ++i) {
      auto pick_input = [&](int hi) -> std::uint32_t {
        // Bias toward recent gates to get deep propagation paths.
        if (hi == 0 || rng.uniform() < 0.25) {
          return static_cast<std::uint32_t>(rng.uniform_int(0, num_pi - 1) % kInputSlots);
        }
        int lo = hi > 24 ? hi - 24 : 0;
        return static_cast<std::uint32_t>(kInputSlots + rng.uniform_int(lo, hi - 1));
      };
      Gate g;
      g.op = static_cast<GateOp>(rng.uniform_int(0, 3));
      g.a = pick_input(i);
      g.b = g.op == GateOp::Not ? 0 : pick_input(i);
      c.gates.push_back(g);
    }
    return c;
  }

  std::size_t slots() const { return kInputSlots + gates.size(); }
  /// First output gate. Circuits smaller than kOutputs have no outputs
  /// (every vector hashes alike, so no fault is ever detected).
  std::size_t first_output() const {
    return gates.size() >= kOutputs ? gates.size() - kOutputs : gates.size();
  }

  /// Evaluates gates [from, end) over the words in `value`.
  void evaluate(std::uint64_t* value, std::size_t from) const {
    for (std::size_t i = from; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      const std::uint64_t a = value[g.a];
      std::uint64_t v = 0;
      switch (g.op) {
        case GateOp::And: v = a & value[g.b]; break;
        case GateOp::Or: v = a | value[g.b]; break;
        case GateOp::Xor: v = a ^ value[g.b]; break;
        case GateOp::Not: v = ~a; break;
      }
      value[kInputSlots + i] = v;
    }
  }

  /// hash_mix over lane `lane`'s output bits, in output order.
  std::uint64_t output_hash(const std::uint64_t* value, int lane) const {
    std::uint64_t h = kHashSeed;
    for (std::size_t i = first_output(); i < gates.size(); ++i) {
      h = hash_mix(h, (value[kInputSlots + i] >> lane) & 1);
    }
    return h;
  }
};

using detail::FaultResult;

/// Tries to find a test pattern for (gate, stuck_value): up to
/// max_vectors pseudo-random input vectors, 64 per bit-parallel pass.
/// A vector detects the fault when the hashes of its good and faulty
/// outputs differ; `evals` counts two whole-circuit evaluations per
/// vector tried, up to and including the detecting one.
FaultResult test_fault(const Circuit& c, int gate, bool stuck, int max_vectors,
                       std::uint64_t seed) {
  FaultResult r;
  sim::Rng rng(seed ^ (static_cast<std::uint64_t>(gate) * 2 + (stuck ? 1 : 0)));
  const long long gates = static_cast<long long>(c.gates.size());
  const int pi_bits = std::min(c.primary_inputs, Circuit::kInputSlots);
  const std::size_t site = Circuit::kInputSlots + static_cast<std::size_t>(gate);
  std::vector<std::uint64_t> good(c.slots()), bad(c.slots());
  for (int base = 0; base < max_vectors; base += 64) {
    const int lanes = std::min(64, max_vectors - base);
    std::fill_n(good.begin(), Circuit::kInputSlots, 0);
    for (int v = 0; v < lanes; ++v) {
      const std::uint64_t input = rng.next_u64();
      for (int i = 0; i < pi_bits; ++i) {
        good[static_cast<std::size_t>(i)] |= ((input >> i) & 1) << v;
      }
    }
    c.evaluate(good.data(), 0);
    // Below the fault site the faulty circuit equals the good one.
    std::copy_n(good.begin(), site, bad.begin());
    bad[site] = stuck ? ~std::uint64_t{0} : 0;
    c.evaluate(bad.data(), static_cast<std::size_t>(gate) + 1);

    std::uint64_t differ = 0;
    for (std::size_t i = Circuit::kInputSlots + c.first_output(); i < c.slots(); ++i) {
      differ |= good[i] ^ bad[i];
    }
    if (lanes < 64) differ &= (std::uint64_t{1} << lanes) - 1;
    // Lanes with equal output bits hash alike; the hash test on the
    // rest keeps hash collisions exactly as the sequential test had them.
    for (; differ != 0; differ &= differ - 1) {
      const int lane = std::countr_zero(differ);
      if (c.output_hash(good.data(), lane) != c.output_hash(bad.data(), lane)) {
        r.detected = true;
        r.evals = 2 * gates * (base + lane + 1);
        return r;
      }
    }
  }
  r.evals = 2 * gates * std::max(max_vectors, 0);
  return r;
}

struct SharedStats {
  long long patterns = 0;
  long long detected = 0;
  long long untestable = 0;
};

AtpgOutcome combine(const AtpgOutcome& a, const AtpgOutcome& b) {
  return AtpgOutcome{a.patterns_found + b.patterns_found,
                     a.faults_detected + b.faults_detected,
                     a.faults_untestable + b.faults_untestable};
}

}  // namespace

std::vector<detail::FaultResult> detail::atpg_fault_results(const AtpgParams& params,
                                                            std::uint64_t seed) {
  Circuit c = Circuit::generate(params.gates, params.primary_inputs, seed);
  std::vector<FaultResult> out;
  out.reserve(static_cast<std::size_t>(params.gates) * 2);
  for (int g = 0; g < params.gates; ++g) {
    for (int stuck = 0; stuck < 2; ++stuck) {
      out.push_back(test_fault(c, g, stuck != 0, params.max_vectors_per_fault, seed));
    }
  }
  return out;
}

AtpgOutcome atpg_reference(const AtpgParams& params, std::uint64_t seed) {
  AtpgOutcome out;
  for (const FaultResult& r : detail::atpg_fault_results(params, seed)) {
    if (r.detected) {
      ++out.patterns_found;
      ++out.faults_detected;
    } else {
      ++out.faults_untestable;
    }
  }
  return out;
}

std::uint64_t atpg_checksum(const AtpgOutcome& o) {
  std::uint64_t h = kHashSeed;
  h = hash_mix(h, static_cast<std::uint64_t>(o.patterns_found));
  h = hash_mix(h, static_cast<std::uint64_t>(o.faults_detected));
  h = hash_mix(h, static_cast<std::uint64_t>(o.faults_untestable));
  return h;
}

AppResult run_atpg(const AppConfig& cfg, const AtpgParams& params) {
  Harness h(cfg);
  Circuit circuit = Circuit::generate(params.gates, params.primary_inputs, cfg.seed);
  auto stats = orca::create_remote<SharedStats>(h.rt, 0, {});

  const int P = cfg.total_procs();
  AppResult result;
  std::uint64_t seed = cfg.seed;
  const AtpgParams prm = params;
  AtpgOutcome root_total;

  result = h.finish([&, seed, prm](orca::Proc& p) -> sim::Task<void> {
    // Static partition: fault f handled by process f mod P (faults are
    // 2*gates: (gate, stuck-at)).
    AtpgOutcome local;
    const int num_faults = prm.gates * 2;
    for (int f = p.rank; f < num_faults; f += P) {
      const int gate = f / 2;
      const bool stuck = (f % 2) != 0;
      FaultResult r = test_fault(circuit, gate, stuck, prm.max_vectors_per_fault, seed);
      co_await p.compute(r.evals * prm.ns_per_gate_eval);
      if (r.detected) {
        ++local.patterns_found;
        ++local.faults_detected;
        if (!cfg.optimized) {
          // Original: one RPC per generated pattern to the shared
          // statistics object.
          co_await stats.invoke_void(p, 16, 8, [](SharedStats& s) {
            ++s.patterns;
            ++s.detected;
          });
        }
      } else {
        ++local.faults_untestable;
        if (!cfg.optimized) {
          co_await stats.invoke_void(p, 16, 8, [](SharedStats& s) { ++s.untestable; });
        }
      }
    }
    if (cfg.optimized) {
      // Optimized: a single hierarchical reduction at the end.
      AtpgOutcome total = co_await wide::cluster_reduce<AtpgOutcome>(
          h.rt, p, 500, local, 24, [](AtpgOutcome&& a, const AtpgOutcome& b) {
            return combine(a, b);
          });
      if (p.rank == 0) root_total = total;
    }
  });

  AtpgOutcome out;
  if (cfg.optimized) {
    out = root_total;
  } else {
    const SharedStats& s = stats.state();
    out = AtpgOutcome{s.patterns, s.detected, s.untestable};
  }
  result.checksum = atpg_checksum(out);
  result.metrics["patterns"] = static_cast<double>(out.patterns_found);
  result.metrics["untestable"] = static_cast<double>(out.faults_untestable);
  return result;
}

}  // namespace alb::apps
