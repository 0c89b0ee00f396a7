#pragma once
// libalb_trace — deterministic flight recorder.
//
// A Recorder is a fixed-capacity ring buffer of typed trace events
// (spans and instants) stamped with *simulated* time, never wall time.
// Because every simulation in this codebase is single-threaded and its
// event order is total (see sim/event_queue.hpp), the recorded stream —
// and any serialization of it — is bit-identical across repeated runs,
// across `--jobs N` campaign sharding, and across machines. That
// contract is pinned by tests/trace/trace_determinism_test.cpp.
//
// Contracts:
//   * Determinism — events carry (sim-time, recorder-local order) only;
//     no wall clocks, no pointers, no iteration-order-dependent state.
//   * Thread-safety — one Recorder belongs to one simulation thread
//     (campaign workers each own their job's recorder); it is not
//     synchronized and must not be shared.
//   * When-off overhead — instrumented code guards every record with a
//     `Recorder*` null check (`if (rec) rec->...`): tracing disabled
//     costs one predictable branch per site and touches no memory.
//     Harness-level microbenches (bench_engine) run with no Session
//     attached and see zero additional work.
//   * Wraparound — when full, the ring overwrites the *oldest* event
//     and counts it in dropped(); the newest window always survives
//     (flight-recorder semantics).
//
// Span events pair a Begin and an End with the same (name, id); ids
// come from the event's natural identity (message id, broadcast
// sequence number, RPC call id) or from next_span_id() when there is
// none. Exporters (chrome_trace.hpp) map them to Chrome trace_event
// async spans, so overlapping spans from interleaved coroutines need no
// nesting discipline.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace alb::trace {

/// Layer that produced an event; becomes the Chrome trace category.
enum class Category : std::uint8_t { Sim, Net, Orca, App };

constexpr const char* to_string(Category c) {
  switch (c) {
    case Category::Sim: return "sim";
    case Category::Net: return "net";
    case Category::Orca: return "orca";
    case Category::App: return "app";
  }
  return "?";
}

enum class EventPhase : std::uint8_t { Instant, Begin, End };

/// One recorded event. `name` must be a string literal (or otherwise
/// outlive the recorder) — the recorder stores the pointer, not a copy.
struct TraceEvent {
  sim::SimTime time = 0;   ///< simulated nanoseconds
  std::uint64_t id = 0;    ///< span id (Begin/End) or primary argument
  std::uint64_t arg = 0;   ///< secondary argument (bytes, seq, ...)
  const char* name = "";   ///< static event name
  std::int32_t actor = -1; ///< node id the event happened at; -1 = none
  Category cat = Category::Sim;
  EventPhase phase = EventPhase::Instant;
  /// Protocol context (the endpoint tag for network events, clamped to
  /// 16 bits). Lives in what used to be struct padding, so adding it
  /// did not grow the event.
  std::int16_t aux = 0;
};
static_assert(sizeof(TraceEvent) == 40, "aux must live in padding, not grow the event");

/// The harvested recording: events oldest → newest plus drop counters.
/// Plain data; shared by AppResult via shared_ptr so results stay cheap
/// to copy.
struct Trace {
  std::vector<TraceEvent> events;
  std::uint64_t recorded = 0;  ///< total record calls (kept + dropped)
  std::uint64_t dropped = 0;   ///< overwritten by wraparound
  std::size_t capacity = 0;
};

/// Flight-recorder configuration, carried in apps::AppConfig.
struct Config {
  /// Master switch. Off (the default) means no Recorder is created and
  /// every instrumentation site reduces to a null-pointer check.
  bool enabled = false;
  /// Ring capacity in events (40 bytes each). The default keeps the
  /// newest ~1M events, enough for a full bench-size app run.
  std::size_t capacity = std::size_t{1} << 20;
  /// Also record one Sim-category instant per dispatched engine event
  /// (high volume; off by default even when tracing is enabled).
  bool engine_events = false;
};

class Recorder {
 public:
  /// `first_span_id` partitions the synthetic span-id space when several
  /// recorder shards feed one merged trace (Session::shard_by_owner):
  /// shard o starts at (o+1) << 48, so ids never collide across shards.
  explicit Recorder(const Config& cfg, std::uint64_t first_span_id = 1)
      : capacity_(cfg.capacity ? cfg.capacity : 1),
        next_span_id_(first_span_id),
        engine_events_(cfg.engine_events) {
    ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool engine_events() const { return engine_events_; }

  void instant(Category cat, const char* name, std::int32_t actor, std::uint64_t id = 0,
               std::uint64_t arg = 0, std::int16_t aux = 0) {
    push({now_, id, arg, name, actor, cat, EventPhase::Instant, aux});
  }
  void begin(Category cat, const char* name, std::int32_t actor, std::uint64_t id,
             std::uint64_t arg = 0, std::int16_t aux = 0) {
    push({now_, id, arg, name, actor, cat, EventPhase::Begin, aux});
  }
  void end(Category cat, const char* name, std::int32_t actor, std::uint64_t id,
           std::uint64_t arg = 0, std::int16_t aux = 0) {
    push({now_, id, arg, name, actor, cat, EventPhase::End, aux});
  }

  /// Clamp an endpoint tag into the 16-bit aux slot. Runtime control
  /// tags are small negatives (orca/tags.hpp); app tags start at 0.
  static std::int16_t clamp_tag(int tag) {
    if (tag > 32767) return 32767;
    if (tag < -32768) return -32768;
    return static_cast<std::int16_t>(tag);
  }

  /// Fresh id for spans with no natural identity. Deterministic: a
  /// plain per-recorder counter.
  std::uint64_t next_span_id() { return next_span_id_++; }

  /// The engine advances this on every dispatch so records don't need
  /// an Engine reference (and non-engine tests can set it directly).
  void set_time(sim::SimTime t) { now_ = t; }
  sim::SimTime time() const { return now_; }

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - ring_.size(); }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Copies the ring out in chronological (record) order.
  Trace harvest() const {
    Trace t;
    t.recorded = recorded_;
    t.dropped = dropped();
    t.capacity = capacity_;
    t.events.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      t.events.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return t;
  }

 private:
  void push(TraceEvent e) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % capacity_;
    }
  }

  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once wrapped
  std::uint64_t recorded_ = 0;
  std::uint64_t next_span_id_ = 1;
  sim::SimTime now_ = 0;
  bool engine_events_;
};

/// One simulation's observability context: the (optional) flight
/// recorder plus the always-available metrics registry. A Session is
/// owned by the harness running the simulation (apps::Harness) and
/// attached to the engine, from which every layer reaches it. Same
/// thread-affinity rules as its parts: one Session per simulation, not
/// shared across threads.
class Session {
 public:
  Session() : Session(Config{}) {}
  explicit Session(const Config& cfg) : config_(cfg) {
    if (cfg.enabled) rec_ = std::make_unique<Recorder>(cfg);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Null when tracing is disabled — callers cache this pointer and
  /// guard each record with it. Null after shard_by_owner(): a sharded
  /// session is reached through recorder_shard() / Engine::tracer().
  Recorder* recorder() { return rec_.get(); }
  Metrics& metrics() { return metrics_; }
  const Config& config() const { return config_; }

  /// Splits the session into one recorder shard per owner (cluster).
  /// Each record lands in the *dispatching owner's* shard, in that
  /// owner's canonical dispatch order. The sharding fixes the exported
  /// trace format: each shard owns its own span-id range (see Recorder),
  /// keeps the newest capacity / owners events of its owner (the ring
  /// capacity is divided evenly across shards), and harvest_merged()
  /// fixes the merge order. No-op when tracing is disabled.
  void shard_by_owner(int owners) {
    if (!config_.enabled || owners <= 0) return;
    rec_.reset();
    Config per = config_;
    per.capacity = config_.capacity / static_cast<std::size_t>(owners);
    if (per.capacity == 0) per.capacity = 1;
    shards_.clear();
    shards_.reserve(static_cast<std::size_t>(owners));
    for (int o = 0; o < owners; ++o) {
      shards_.push_back(std::make_unique<Recorder>(
          per, (static_cast<std::uint64_t>(o) + 1) << 48));
    }
  }

  bool sharded() const { return !shards_.empty(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Owner `o`'s recorder shard (null when tracing is disabled).
  Recorder* recorder_shard(int o) {
    return shards_.empty() ? rec_.get() : shards_[static_cast<std::size_t>(o)].get();
  }

  /// Harvests the whole session chronologically: the single ring, or —
  /// when sharded — a deterministic k-way merge of the per-owner shards
  /// keyed by (time, shard index). Each shard is already time-sorted, so
  /// the merged stream is a pure function of the simulation.
  Trace harvest_merged() const {
    if (shards_.empty()) {
      return rec_ ? rec_->harvest() : Trace{};
    }
    Trace out;
    std::vector<Trace> parts;
    parts.reserve(shards_.size());
    std::size_t total = 0;
    for (const auto& s : shards_) {
      parts.push_back(s->harvest());
      out.recorded += parts.back().recorded;
      out.dropped += parts.back().dropped;
      out.capacity += parts.back().capacity;
      total += parts.back().events.size();
    }
    out.events.reserve(total);
    std::vector<std::size_t> cursor(parts.size(), 0);
    while (out.events.size() < total) {
      std::size_t best = parts.size();
      for (std::size_t s = 0; s < parts.size(); ++s) {
        if (cursor[s] >= parts[s].events.size()) continue;
        if (best == parts.size() ||
            parts[s].events[cursor[s]].time < parts[best].events[cursor[best]].time) {
          best = s;
        }
      }
      out.events.push_back(parts[best].events[cursor[best]++]);
    }
    return out;
  }

 private:
  Config config_;
  std::unique_ptr<Recorder> rec_;
  std::vector<std::unique_ptr<Recorder>> shards_;  // per owner, when sharded
  Metrics metrics_;
};

}  // namespace alb::trace
