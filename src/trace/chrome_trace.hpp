#pragma once
// Chrome trace_event JSON exporter.
//
// Serializes a harvested Trace into the Trace Event Format understood
// by `chrome://tracing` and by Perfetto's legacy-JSON importer
// (ui.perfetto.dev → "Open trace file"). Mapping:
//
//   * Instant          → ph "i" (thread-scoped), tid = actor
//   * Begin/End span   → ph "b"/"e" async pair keyed by (cat, id) —
//     async spans because simulated coroutines interleave freely, so
//     span pairs from one node need no stack nesting discipline
//   * pid              → 0 ("albatross sim"); tid = actor (node id),
//     with gateway nodes appearing as their own threads
//   * ts               → simulated microseconds (fractional; the sim's
//     native unit is nanoseconds)
//   * args             → {"id": ..., "arg": ...} raw event words
//
// Event names come from the closed trace::Ev vocabulary and need no
// escaping; track labels are JSON-escaped (quotes, backslashes, control
// bytes as \u00XX), and bytes ≥ 0x80 pass through, so UTF-8 labels stay
// UTF-8. A trace with zero events — or whose events were all
// dropped by ring wraparound — still serializes to valid JSON (the
// metadata record is unconditional and the event array may be empty).
//
// Determinism: output is a pure function of the Trace — integer
// timestamps are formatted with fixed precision, metadata is emitted in
// a fixed order — so byte-comparing two exports is a valid determinism
// check (tests/trace/trace_determinism_test.cpp does exactly that).

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace alb::trace {

/// One highlighted interval on the extra "critical path" track (pid 1).
/// Rendered as a complete ("X") event so the path reads as a contiguous
/// ribbon above the per-node rows. `label` is typically a blame class
/// (see trace/causal) and is JSON-escaped on output.
struct HighlightSpan {
  std::string label;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

/// Writes the full Chrome trace JSON object to `os`. When `highlight`
/// is non-empty an extra process (pid 1, "critical path") carries the
/// spans as complete events.
void write_chrome_trace(const Trace& trace, std::ostream& os,
                        const std::vector<HighlightSpan>& highlight = {});

/// Convenience: the same JSON as a string (used by the byte-identity
/// determinism tests).
std::string chrome_trace_string(const Trace& trace,
                                const std::vector<HighlightSpan>& highlight = {});

/// JSON string escaping as applied to track labels (exposed for tests).
void write_json_escaped(std::ostream& os, std::string_view s);

}  // namespace alb::trace
