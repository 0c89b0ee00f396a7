#pragma once
// Deterministic pending-event set.
//
// Events are totally ordered by (time, lamport, key_owner). The
// (lamport, key_owner) pair is a *canonical key* assigned by the engine:
// `key_owner` is the owner (cluster) that scheduled the event and
// `lamport` comes from that owner's Lamport counter, which is
// max-updated from every event the owner dispatches. The resulting
// order is a pure function of the simulation itself; the trace_hash
// goldens pin it.
//
// Because the order is total, the extraction sequence is independent of
// the container's internal shape — which frees the implementation to
// optimize storage around how simulations actually schedule:
//
//   * pending times repeat heavily (same-time wakeups, link busy-until
//     clustering), so the priority heap holds one 8-byte entry per
//     DISTINCT time, not per event — most pushes and pops never sift;
//   * all events at one time form an intrusive list through a recycled
//     node pool (chunked, so node addresses are stable and pool growth
//     never moves live events), kept sorted by (lamport, key_owner).
//     Scheduling runs mostly in key order already, so the common case
//     is an O(1) append at the tail;
//   * the drained current list: when the first event of the earliest
//     time pops, that time's whole list leaves the time->list index and
//     the heap at once and becomes the current list. The following pops
//     at that time unlink its head with no hash lookup, and a push at
//     the current time (a same-time wakeup or zero-delay send) joins it
//     in key order. Every indexed time is later than the current one;
//   * the heap's sift-down picks the least of eight children by a
//     min/mask tournament, with no data-dependent branch, over storage
//     padded with never-times so every scanned group is full;
//   * nodes, list heads, the time->list index and the heap are all
//     recycled (the heap reserves as the index grows) — a steady-state
//     push/pop cycle performs no heap allocation;
//   * an event body is either a callable (UniqueFunction, itself
//     small-buffer optimized) or a bare coroutine handle: the coroutine
//     fast path used by Engine::schedule_resume skips closure storage.

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "sim/time_map.hpp"
#include "sim/unique_function.hpp"

namespace alb::sim {

/// Identifies a logical owner of simulation state (a cluster in the
/// network stack). Owners are dense: 0 .. owners-1. The engine reserves
/// one extra pseudo-owner id (== owners) for setup-time scheduling done
/// outside any dispatch.
using OwnerId = std::int32_t;

/// Canonical same-time tie-break key. Strict weak order: lamport first,
/// owner second; the engine guarantees (lamport, owner) pairs are unique
/// across a run.
struct EventKey {
  std::uint64_t lamport = 0;
  std::int32_t owner = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.lamport != b.lamport) return a.lamport < b.lamport;
    return a.owner < b.owner;
  }
};

class EventQueue {
 public:
  /// A popped event: exactly one of {resume, fn} is set.
  struct Event {
    SimTime time;
    EventKey key;
    std::int32_t exec_owner = 0;  ///< owner whose context runs the body
    std::coroutine_handle<> resume{};
    UniqueFunction fn;

    /// Runs the event body (coroutine fast path or callable).
    void run() {
      if (resume) {
        resume.resume();
      } else {
        fn();
      }
    }
  };

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event; undefined when empty.
  SimTime next_time() const { return cur_.head != kNil ? cur_.key : heap_[0]; }

  /// Schedules `fn` at absolute time `t` under canonical key `key`,
  /// to run in `exec_owner`'s context. `t` must not precede the last
  /// popped event's time (the engine never schedules into the simulated
  /// past).
  void push(SimTime t, EventKey key, std::int32_t exec_owner, UniqueFunction&& fn);

  /// Coroutine fast path: schedules a bare handle resumption at `t`.
  void push_resume(SimTime t, EventKey key, std::int32_t exec_owner,
                   std::coroutine_handle<> h);

  /// Removes and returns the earliest event.
  Event pop();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One pending event body; `next` chains same-time events in
  /// ascending key order.
  struct Node {
    EventKey key;
    std::int32_t exec_owner = 0;
    std::uint32_t next = kNil;
    std::coroutine_handle<> resume{};
    UniqueFunction fn;
  };
  // Chunked node pool: stable addresses (growth never moves live
  // events), recycled through a free list.
  static constexpr std::uint32_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  Node& node(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  std::uint32_t acquire_node();
  void enqueue(SimTime t, std::uint32_t n);
  /// Links node `n` into the non-empty list of `cell` in key order.
  void insert_sorted(TimeMap::Cell& cell, std::uint32_t n);
  void heap_push(SimTime t);
  void heap_pop();

  // 8-ary implicit heap of bare times, one entry per distinct indexed
  // time (times in the heap are unique — each one's sorted list lives in
  // its TimeMap cell). Eight 8-byte keys per cache line, so a sift-down
  // level's child scan costs roughly one line. heap_ holds heap_n_ live
  // entries followed by at least kArity kNever pads.
  static constexpr std::size_t kArity = 8;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  std::vector<SimTime> heap_ = std::vector<SimTime>(kArity, kNever);
  std::size_t heap_n_ = 0;
  TimeMap lists_;  // time -> {head, tail} of its pending key-sorted list
  // The drained current list, keyed by the current time; head == kNil
  // when it is empty.
  TimeMap::Cell cur_{TimeMap::kEmptyKey, kNil, kNil};
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> free_nodes_;
  std::uint32_t nodes_in_use_ = 0;  // high-water count of constructed nodes
  std::size_t size_ = 0;
};

}  // namespace alb::sim
