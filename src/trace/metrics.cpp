#include "trace/metrics.hpp"

#include <bit>
#include <ostream>

namespace alb::trace {

void Histogram::add(std::uint64_t v) {
  if (count == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  ++buckets[static_cast<std::size_t>(std::bit_width(v))];
}

std::uint64_t Histogram::percentile(double p) const {
  if (count == 0) return 0;
  if (p <= 0) return min;
  if (p >= 100) return max;
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (static_cast<double>(seen) >= rank) {
      // Upper bound of bucket i: values with bit width i are < 2^i.
      if (i == 0) return 0;
      const std::uint64_t ub = (i >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << i) - 1);
      return ub < max ? ub : max;
    }
  }
  return max;
}

double MetricsSnapshot::value(std::string_view name) const {
  if (const std::uint64_t* c = counter(name)) return static_cast<double>(*c);
  if (const double* g = gauge(name)) return *g;
  return 0.0;
}

bool MetricsSnapshot::operator==(const MetricsSnapshot& other) const {
  const auto same = [&](const auto& mine, const auto& theirs) {
    if (mine.size() != theirs.size()) return false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (name(mine[i].name) != other.name(theirs[i].name) || !(mine[i].value == theirs[i].value)) {
        return false;
      }
    }
    return true;
  };
  return same(counters_, other.counters_) && same(gauges_, other.gauges_) &&
         same(histograms_, other.histograms_);
}

void MetricsSnapshot::write_csv(std::ostream& os) const {
  os << "name,kind,value,count,mean,p50,p99,max\n";
  for_each_counter(
      [&](std::string_view n, std::uint64_t v) { os << n << ",counter," << v << ",,,,,\n"; });
  for_each_gauge([&](std::string_view n, double v) { os << n << ",gauge," << v << ",,,,,\n"; });
  for_each_histogram([&](std::string_view n, const Histogram& h) {
    os << n << ",histogram," << h.sum << ',' << h.count << ',' << h.mean() << ','
       << h.percentile(50) << ',' << h.percentile(99) << ',' << (h.count ? h.max : 0) << "\n";
  });
}

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Writes `"name":<value>` members separated by commas.
struct JsonMembers {
  std::ostream& os;
  bool first = true;
  std::ostream& next(std::string_view name) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    return os << ':';
  }
};

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  JsonMembers counters{os};
  for_each_counter([&](std::string_view n, std::uint64_t v) { counters.next(n) << v; });
  os << "},\"gauges\":{";
  JsonMembers gauges{os};
  for_each_gauge([&](std::string_view n, double v) { gauges.next(n) << v; });
  os << "},\"histograms\":{";
  JsonMembers hists{os};
  for_each_histogram([&](std::string_view n, const Histogram& h) {
    hists.next(n) << "{\"count\":" << h.count << ",\"sum\":" << h.sum
                  << ",\"min\":" << (h.count ? h.min : 0) << ",\"max\":" << (h.count ? h.max : 0)
                  << ",\"mean\":" << h.mean() << ",\"p50\":" << h.percentile(50)
                  << ",\"p99\":" << h.percentile(99) << '}';
  });
  os << "}}";
}

}  // namespace alb::trace
