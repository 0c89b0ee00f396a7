#pragma once
// The discrete-event engine.
//
// Deterministic: events fire in canonical (time, lamport, owner) order,
// and a running trace hash lets tests assert bit-reproducibility.
// Simulated processes are coroutines (sim::Task) spawned onto the engine;
// they block on awaitables (delay(), Future, Channel, Barrier, network
// receive) that schedule their resumption through the event queue.
//
// Work is keyed by *owner* — in a networked simulation, one owner per
// cluster (Engine::set_owners). The owner does not change how events
// run (there is one queue and one loop), but it fixes their canonical
// tie-break keys and the owner-decomposed trace hash, and with them
// every golden value.
//
// Contracts (relied on throughout the stack):
//   * Determinism — given the same initial schedule, every run dispatches
//     the same events at the same simulated times in the same canonical
//     order; trace_hash() fingerprints that stream (as an owner-
//     decomposed FNV fold) and golden tests pin it. Nothing in the
//     engine reads wall time or any other ambient state.
//   * Thread-safety — none. An Engine belongs to one run on one thread;
//     campaigns parallelize by giving each job its own Engine.
//   * Observability — attach_trace() connects an optional trace::Session
//     (flight recorder + metrics registry, see src/trace/trace.hpp).
//     With no session attached the engine does no tracing work beyond
//     one null-pointer test per dispatched event, which is how the
//     bench_engine microbenches run; instrumented layers call tracer()
//     per record site and guard each record the same way.
//     Instrumentation may only *push* events into the recorder — it
//     must never schedule events or spawn tasks, so a traced run
//     dispatches the identical canonical stream as an untraced one
//     (trace_hash goldens) and post-hoc analysis such as
//     src/trace/causal/ sees real timings, not probe effects.

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace alb::sim {

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Sets the number of logical owners (clusters); values below 1 mean
  /// 1. Canonical event keys are per owner, so this fixes the key space
  /// and must match the topology. Must be called before anything is
  /// scheduled or spawned; resets all per-owner state.
  void set_owners(int owners);
  int owners() const { return owners_; }

  /// The owner whose event is currently dispatching, or the setup
  /// pseudo-owner (== owners()) outside any dispatch.
  OwnerId current_owner() const { return cur_owner_ >= 0 ? cur_owner_ : owners_; }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (must be >= now())
  /// in the current owner's context.
  void schedule_at(SimTime t, UniqueFunction fn);
  /// Schedules `fn` after `delay` nanoseconds (negative delays clamp to 0).
  void schedule_after(SimTime delay, UniqueFunction fn);

  /// Schedules `fn` at absolute time `t` in owner `dest`'s context: the
  /// event keys under the current owner and runs as `dest`. This is the
  /// engine's one cross-owner edge (the network's WAN crossing).
  void schedule_on(OwnerId dest, SimTime t, UniqueFunction fn);

  /// Coroutine fast path: schedules `h.resume()` at absolute time `t`
  /// without wrapping the handle in a callable. Used by delay(), Future,
  /// Channel and the Task continuation bridge — the steady-state resume
  /// path allocates nothing. Always owner-local: a coroutine is resumed
  /// by state confined to its own owner.
  void schedule_resume(SimTime t, std::coroutine_handle<> h);
  /// Same, `delay` nanoseconds from now (negative delays clamp to 0).
  void schedule_resume_after(SimTime delay, std::coroutine_handle<> h);

  /// Starts a detached root process in the current owner's context. The
  /// coroutine body begins executing at the current simulated time,
  /// through the event queue (so spawns performed during setup all
  /// begin at t=0, in spawn order).
  void spawn(Task<void> task);

  /// Starts a detached root process in owner `dest`'s context. During a
  /// run this must be owner-local (handlers spawn onto their own
  /// owner); cross-owner spawns are a setup-time operation.
  void spawn_on(OwnerId dest, Task<void> task);

  /// Runs until the event queue is empty or stop() is called. Returns
  /// the number of events processed by this call.
  std::uint64_t run();

  /// Runs events with time <= t; afterwards now() == t if the queue
  /// emptied or the next event is later. Returns false if stopped.
  bool run_until(SimTime t);

  /// Makes run()/run_until() return after the in-flight event completes.
  void stop() { stopped_ = true; }

  /// co_await engine.delay(d): resume after d simulated nanoseconds.
  auto delay(SimTime d) {
    struct Awaiter {
      Engine* eng;
      SimTime d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { eng->schedule_resume_after(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// co_await engine.yield(): requeue at the current time (runs after all
  /// events already scheduled for now()).
  auto yield() { return delay(0); }

  std::uint64_t events_processed() const { return events_; }
  std::size_t pending_events() const { return queue_.size(); }

  std::uint64_t tasks_spawned() const { return tasks_spawned_; }
  std::uint64_t tasks_finished() const { return tasks_finished_; }
  /// Spawned root processes that have not finished yet. Zero after run()
  /// completes on a deadlock-free simulation.
  std::uint64_t tasks_pending() const { return tasks_spawned() - tasks_finished(); }

  /// FNV-1a fold over the per-owner hashes of the canonical
  /// (time, lamport, owner) dispatch stream — a cheap but sensitive
  /// probe for determinism tests. Each owner's events hash into that
  /// owner's accumulator in canonical order, and the accumulators fold
  /// in owner order; the trace_hash goldens pin this decomposition.
  std::uint64_t trace_hash() const;

  // --- observability -------------------------------------------------
  /// Attaches (or detaches, with nullptr) a trace session. Not owned;
  /// the session must outlive every subsequent dispatch.
  void attach_trace(trace::Session* s);
  trace::Session* trace_session() const { return session_; }
  /// The run's flight recorder, or nullptr when tracing is off — record
  /// sites guard with exactly this pointer.
  trace::Recorder* tracer() const { return tracer_; }

 private:
  friend struct DetachedTask;

  EventKey next_key(OwnerId scheduler) {
    return EventKey{++lamport_[static_cast<std::size_t>(scheduler)], scheduler};
  }
  /// The owner charged with executing plain (non-schedule_on)
  /// scheduling from the current context: the dispatching owner, or
  /// owner 0 for setup-time scheduling.
  OwnerId exec_owner_here() const { return cur_owner_ >= 0 ? cur_owner_ : 0; }
  void note_task_finished();
  void dispatch(EventQueue::Event e);

  EventQueue queue_;
  std::vector<std::uint64_t> lamport_;  // per owner, + setup pseudo-owner
  std::vector<std::uint64_t> hash_;     // per-owner FNV accumulators
  // Each task.spawn/task.finish trace record carries its running count.
  std::uint64_t tasks_spawned_ = 0;
  std::uint64_t tasks_finished_ = 0;
  int owners_ = 1;
  OwnerId cur_owner_ = -1;  ///< dispatching owner; -1 outside dispatch
  SimTime now_ = 0;
  std::uint64_t events_ = 0;
  bool stopped_ = false;
  trace::Session* session_ = nullptr;
  trace::Recorder* tracer_ = nullptr;
};

/// Publishes the engine's run counters into `m` under the `sim/` scope
/// (assignment, not accumulation — call once per finished run).
void publish_metrics(const Engine& eng, trace::Metrics& m);

}  // namespace alb::sim
