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
//     The engine microbenches (bench_engine) run with no recorder
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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

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

/// Every event name the recorder knows: one closed vocabulary. A new
/// event gets an enumerator here and a row in kEvents. The message
/// journey events, SendLocal through Deliver, form one contiguous block
/// (causal::build_dag chains them per message id).
enum class Ev : std::uint8_t {
  // net: message journeys, then the WAN queue-wait metadata.
  SendLocal, SendLan, BcastLan, Wan, HopGwIn, HopWan, HopGwOut, FaultDrop, FaultFlapHold,
  CombineHold, Deliver, WanQueue,
  // orca.
  Rpc, RpcRetry, RpcTimeout, RpcDup, RpcServe,
  SeqGet, SeqIssue, SeqRegrant, SeqTimeout, SeqToken, SeqArmed, SeqMigrate,
  Bcast, BcastUnordered, BcastApply, BarrierArrive, BarrierRelease, ProcStart, ProcFinish,
  AdaptSeqArm, AdaptCombineOn, AdaptTreeOn, AdaptQueueSplit,
  // app, then sim.
  AppCompute, TaskSpawn, TaskFinish, EngineEvent,
  EngineResume,  ///< keep last: kNumEvs counts up to it
};

inline constexpr std::size_t kNumEvs = static_cast<std::size_t>(Ev::EngineResume) + 1;

/// One row of the vocabulary: the exported name and its layer.
struct EvInfo {
  Ev ev;
  const char* name;
  Category cat;
};

inline constexpr std::array<EvInfo, kNumEvs> kEvents{{
    {Ev::SendLocal, "net.send.local", Category::Net},
    {Ev::SendLan, "net.send.lan", Category::Net},
    {Ev::BcastLan, "net.bcast.lan", Category::Net},
    {Ev::Wan, "net.wan", Category::Net},
    {Ev::HopGwIn, "net.hop.gw_in", Category::Net},
    {Ev::HopWan, "net.hop.wan", Category::Net},
    {Ev::HopGwOut, "net.hop.gw_out", Category::Net},
    {Ev::FaultDrop, "net.fault.drop", Category::Net},
    {Ev::FaultFlapHold, "net.fault.flap_hold", Category::Net},
    {Ev::CombineHold, "net.combine.hold", Category::Net},
    {Ev::Deliver, "net.deliver", Category::Net},
    {Ev::WanQueue, "net.wan.queue", Category::Net},
    {Ev::Rpc, "orca.rpc", Category::Orca},
    {Ev::RpcRetry, "orca.rpc.retry", Category::Orca},
    {Ev::RpcTimeout, "orca.rpc.timeout", Category::Orca},
    {Ev::RpcDup, "orca.rpc.dup", Category::Orca},
    {Ev::RpcServe, "orca.rpc.serve", Category::Orca},
    {Ev::SeqGet, "orca.seq.get", Category::Orca},
    {Ev::SeqIssue, "orca.seq.issue", Category::Orca},
    {Ev::SeqRegrant, "orca.seq.regrant", Category::Orca},
    {Ev::SeqTimeout, "orca.seq.timeout", Category::Orca},
    {Ev::SeqToken, "orca.seq.token", Category::Orca},
    {Ev::SeqArmed, "orca.seq.armed", Category::Orca},
    {Ev::SeqMigrate, "orca.seq.migrate", Category::Orca},
    {Ev::Bcast, "orca.bcast", Category::Orca},
    {Ev::BcastUnordered, "orca.bcast.unordered", Category::Orca},
    {Ev::BcastApply, "orca.bcast.apply", Category::Orca},
    {Ev::BarrierArrive, "orca.barrier.arrive", Category::Orca},
    {Ev::BarrierRelease, "orca.barrier.release", Category::Orca},
    {Ev::ProcStart, "orca.proc.start", Category::Orca},
    {Ev::ProcFinish, "orca.proc.finish", Category::Orca},
    {Ev::AdaptSeqArm, "orca.adapt.seq.arm", Category::Orca},
    {Ev::AdaptCombineOn, "orca.adapt.combine.on", Category::Orca},
    {Ev::AdaptTreeOn, "orca.adapt.tree.on", Category::Orca},
    {Ev::AdaptQueueSplit, "orca.adapt.queue.split", Category::Orca},
    {Ev::AppCompute, "app.compute", Category::App},
    {Ev::TaskSpawn, "task.spawn", Category::Sim},
    {Ev::TaskFinish, "task.finish", Category::Sim},
    {Ev::EngineEvent, "engine.event", Category::Sim},
    {Ev::EngineResume, "engine.resume", Category::Sim},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kNumEvs; ++i) {
        if (kEvents[i].ev != static_cast<Ev>(i)) return false;
      }
      return true;
    }(),
    "kEvents needs one row per Ev, in enum order");

constexpr const char* to_string(Ev e) { return kEvents[static_cast<std::size_t>(e)].name; }
constexpr Category category_of(Ev e) { return kEvents[static_cast<std::size_t>(e)].cat; }

enum class EventPhase : std::uint8_t { Instant, Begin, End };

/// One recorded event.
struct TraceEvent {
  sim::SimTime time = 0;   ///< simulated nanoseconds
  std::uint64_t id = 0;    ///< span id (Begin/End) or primary argument
  std::uint64_t arg = 0;   ///< secondary argument (bytes, seq, ...)
  std::int32_t actor = -1; ///< node id the event happened at; -1 = none
  Ev name{};               ///< what happened; kEvents gives its text and layer
  EventPhase phase = EventPhase::Instant;
  /// Protocol context (the endpoint tag for network events, clamped to
  /// 16 bits).
  std::int16_t aux = 0;
};
static_assert(sizeof(TraceEvent) == 32, "the event packs into four words");

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
  /// Ring capacity in events (32 bytes each). The default keeps the
  /// newest 1,048,576 events (32 MiB). That is not a whole run at paper
  /// geometry: ACP at 8x32 (seed 42) records 4.12M events, so the ring
  /// keeps the last quarter and the causal analysis reports the lost
  /// prefix as startup. Whole-run analysis needs a larger capacity.
  std::size_t capacity = std::size_t{1} << 20;
  /// Also record one Sim-category instant per dispatched engine event
  /// (high volume; off by default even when tracing is enabled).
  bool engine_events = false;
};

class Recorder {
 public:
  explicit Recorder(const Config& cfg)
      : capacity_(cfg.capacity ? cfg.capacity : 1), engine_events_(cfg.engine_events) {
    // One allocation up to the default capacity: growing a run-sized
    // ring by doubling leaves its freed buffers in the heap, which
    // raises the peak RSS of a process that runs many traced jobs.
    // Pages are only resident once written.
    const std::size_t first = Config{}.capacity;
    ring_.reserve(capacity_ < first ? capacity_ : first);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool engine_events() const { return engine_events_; }

  void instant(Ev name, std::int32_t actor, std::uint64_t id = 0, std::uint64_t arg = 0,
               std::int16_t aux = 0) {
    push({now_, id, arg, actor, name, EventPhase::Instant, aux});
  }
  void begin(Ev name, std::int32_t actor, std::uint64_t id, std::uint64_t arg = 0,
             std::int16_t aux = 0) {
    push({now_, id, arg, actor, name, EventPhase::Begin, aux});
  }
  void end(Ev name, std::int32_t actor, std::uint64_t id, std::uint64_t arg = 0,
           std::int16_t aux = 0) {
    push({now_, id, arg, actor, name, EventPhase::End, aux});
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

  /// Hands the recording over in chronological (record) order and
  /// leaves the recorder empty. The ring is unwrapped in place, rotated
  /// so its oldest slot (head_) comes first, and its buffer moves into
  /// the Trace: harvesting never holds a second copy of the ring.
  Trace harvest() && {
    Trace t;
    t.recorded = recorded_;
    t.dropped = dropped();
    t.capacity = capacity_;
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
    t.events = std::exchange(ring_, {});
    head_ = 0;
    recorded_ = 0;
    return t;
  }

 private:
  void push(TraceEvent e) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      if (++head_ == capacity_) head_ = 0;
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

}  // namespace alb::trace
