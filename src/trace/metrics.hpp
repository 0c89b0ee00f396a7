#pragma once
// Metrics registry: named counters, gauges and histograms.
//
// Contracts:
//   * Determinism — registries store instruments in name-ordered maps
//     and snapshots in name-ordered arrays, both iterated in that order,
//     so two identical runs produce byte-identical CSV/JSON dumps
//     regardless of registration order or worker placement. Values
//     are derived from simulated state only (never wall time).
//   * Thread-safety — a Metrics registry belongs to one simulation
//     (one Harness, one thread). Campaigns give every job its own
//     registry and merge the resulting snapshots; the registry itself
//     is not synchronized.
//   * Overhead — counter()/gauge()/histogram() do one map lookup and
//     are meant for setup time; hot paths cache the returned pointer
//     (stable for the registry's lifetime) and pay one add/increment.
//
// Naming convention: `<scope>/<subsystem>.<metric>` with scope one of
// sim | net | orca | app | campaign (see docs/OBSERVABILITY.md for the
// full catalogue and units). Counters and histogram samples are
// integral (counts, bytes, nanoseconds); gauges are doubles (ratios,
// derived values).

#include <algorithm>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace alb::trace {

/// Power-of-two-bucketed histogram of non-negative integer samples
/// (bytes, nanoseconds). Bucket i counts samples whose bit width is i,
/// i.e. values in [2^(i-1), 2^i); bucket 0 counts zeros. Exact count,
/// sum, min and max ride along, so means are exact and percentiles are
/// bucket-resolution approximations (reported as the bucket's upper
/// bound).
struct Histogram {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void add(std::uint64_t v);
  /// Element-wise accumulation (campaign aggregation across runs).
  void merge(const Histogram& other);

  double mean() const { return count ? static_cast<double>(sum) / count : 0.0; }
  /// Approximate p-th percentile (p in [0,100]), as the upper bound of
  /// the bucket containing that rank. Exact for min/max extremes.
  std::uint64_t percentile(double p) const;

  bool operator==(const Histogram&) const = default;
};

/// A full, order-stable dump of a registry (or a merge of several).
/// This is the value type carried in apps::AppResult and aggregated by
/// campaigns; it is plain data and freely copyable.
///
/// Storage is flat: counters, gauges and histograms are three name-sorted
/// arrays whose names share one buffer, so a snapshot is at most four
/// heap blocks whatever its instrument count. Sweeps keep one per run.
class MetricsSnapshot {
 public:
  /// Setters create the named instrument (in name order) or overwrite it.
  void set_counter(std::string_view name, std::uint64_t v) { *slot(counters_, name) = v; }
  void set_gauge(std::string_view name, double v) { *slot(gauges_, name) = v; }
  void set_histogram(std::string_view name, const Histogram& h) { *slot(histograms_, name) = h; }
  /// Adders start a new instrument at zero.
  void add_counter(std::string_view name, std::uint64_t v) { *slot(counters_, name) += v; }
  void add_gauge(std::string_view name, double v) { *slot(gauges_, name) += v; }

  /// Lookups by exact name; nullptr when absent.
  const std::uint64_t* counter(std::string_view name) const { return find(counters_, name); }
  const double* gauge(std::string_view name) const { return find(gauges_, name); }
  const Histogram* histogram(std::string_view name) const { return find(histograms_, name); }

  /// Visit every instrument of a kind in name order as f(name, value).
  template <typename F>
  void for_each_counter(F&& f) const { visit(counters_, f); }
  template <typename F>
  void for_each_gauge(F&& f) const { visit(gauges_, f); }
  template <typename F>
  void for_each_histogram(F&& f) const { visit(histograms_, f); }

  /// Accumulates `other` into this snapshot: counters and gauges add,
  /// histograms merge. Used by campaign::aggregate_metrics.
  void merge(const MetricsSnapshot& other);

  /// Counter-or-gauge lookup by exact name; 0 when absent.
  double value(std::string_view name) const;

  bool empty() const { return counters_.empty() && gauges_.empty() && histograms_.empty(); }

  /// Same instruments with the same names and values.
  bool operator==(const MetricsSnapshot& other) const;

  /// `name,kind,value[,count,mean,p50,p99,max]` rows, header included,
  /// name-ordered — byte-stable for determinism diffs.
  void write_csv(std::ostream& os) const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& os) const;

 private:
  friend class Metrics;  // sizes a snapshot's storage exactly

  /// A name's bytes in names_.
  struct Name {
    std::uint32_t offset;
    std::uint32_t size;
  };
  template <typename T>
  struct Slot {
    Name name;
    T value;
  };
  template <typename T>
  using Slots = std::vector<Slot<T>>;

  std::string_view name(Name n) const { return {names_.data() + n.offset, n.size}; }
  /// Index of the first slot whose name is not below `n`.
  template <typename T>
  std::size_t lower_bound(const Slots<T>& slots, std::string_view n) const {
    const auto it = std::partition_point(slots.begin(), slots.end(),
                                         [&](const Slot<T>& s) { return name(s.name) < n; });
    return static_cast<std::size_t>(it - slots.begin());
  }
  template <typename T>
  const T* find(const Slots<T>& slots, std::string_view n) const {
    const std::size_t i = lower_bound(slots, n);
    return i < slots.size() && name(slots[i].name) == n ? &slots[i].value : nullptr;
  }
  /// The named slot's value, inserted value-initialized when absent.
  template <typename T>
  T* slot(Slots<T>& slots, std::string_view n) {
    const std::size_t i = lower_bound(slots, n);
    if (i < slots.size() && name(slots[i].name) == n) return &slots[i].value;
    const Name added{static_cast<std::uint32_t>(names_.size()),
                     static_cast<std::uint32_t>(n.size())};
    names_.append(n);
    const auto at = slots.begin() + static_cast<std::ptrdiff_t>(i);
    return &slots.insert(at, Slot<T>{added, T{}})->value;
  }
  template <typename T, typename F>
  void visit(const Slots<T>& slots, F& f) const {
    for (const Slot<T>& s : slots) f(name(s.name), s.value);
  }

  std::string names_;
  Slots<std::uint64_t> counters_;
  Slots<double> gauges_;
  Slots<Histogram> histograms_;
};

/// The registry. Instruments are created on first use and live as long
/// as the registry; returned pointers are stable (node-based storage),
/// so hot paths fetch them once at setup and never search again.
class Metrics {
 public:
  /// Monotonic integral counter. The pointer is the instrument: hot
  /// paths do `*c += n` directly.
  std::uint64_t* counter(const std::string& name) { return &counters_[name]; }
  /// Last-writer-wins double value.
  double* gauge(const std::string& name) { return &gauges_[name]; }
  /// Log2-bucketed distribution.
  Histogram* histogram(const std::string& name) { return &hists_[name]; }

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace alb::trace
