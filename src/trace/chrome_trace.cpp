#include "trace/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace alb::trace {

namespace {

/// Formats simulated nanoseconds as microseconds with fixed precision.
/// snprintf with %.3f is locale-independent for these values and
/// deterministic — the same input always renders the same bytes.
void write_ts(std::ostream& os, sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", static_cast<std::int64_t>(ns / 1000),
                static_cast<int>(ns % 1000));
  os << buf;
}

void write_event(std::ostream& os, const TraceEvent& e) {
  const char* ph = "i";
  switch (e.phase) {
    case EventPhase::Instant: ph = "i"; break;
    case EventPhase::Begin: ph = "b"; break;
    case EventPhase::End: ph = "e"; break;
  }
  os << "{\"name\":\"" << to_string(e.name) << "\",\"cat\":\"" << to_string(category_of(e.name))
     << "\",\"ph\":\"" << ph << "\",\"ts\":";
  write_ts(os, e.time);
  os << ",\"pid\":0,\"tid\":" << e.actor;
  if (e.phase == EventPhase::Instant) {
    os << ",\"s\":\"t\"";
  } else {
    os << ",\"id\":" << e.id;
  }
  os << ",\"args\":{\"id\":" << e.id << ",\"arg\":" << e.arg << "}}";
}

}  // namespace

void write_json_escaped(std::ostream& os, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (c < 0x20) {
          // Remaining control bytes: \u00XX. Bytes ≥ 0x80 are passed
          // through so UTF-8 sequences survive unmangled.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << static_cast<char>(c);
        }
    }
  }
}

void write_chrome_trace(const Trace& trace, std::ostream& os,
                        const std::vector<HighlightSpan>& highlight) {
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"recorded\":" << trace.recorded
     << ",\"dropped\":" << trace.dropped << ",\"capacity\":" << trace.capacity
     << "},\"traceEvents\":[\n";
  // Process/thread naming metadata so viewers label rows usefully.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"albatross sim\"}}";
  if (!highlight.empty()) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"critical path\"}}";
    for (const HighlightSpan& h : highlight) {
      os << ",\n{\"name\":\"";
      write_json_escaped(os, h.label);
      os << "\",\"cat\":\"causal\",\"ph\":\"X\",\"ts\":";
      write_ts(os, h.begin);
      os << ",\"dur\":";
      write_ts(os, h.end - h.begin);
      os << ",\"pid\":1,\"tid\":0,\"args\":{}}";
    }
  }
  for (const TraceEvent& e : trace.events) {
    os << ",\n";
    write_event(os, e);
  }
  os << "\n]}\n";
}

std::string chrome_trace_string(const Trace& trace, const std::vector<HighlightSpan>& highlight) {
  std::ostringstream ss;
  write_chrome_trace(trace, ss, highlight);
  return ss.str();
}

}  // namespace alb::trace
