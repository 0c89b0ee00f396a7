#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace alb::sim {

/// Friend shim so the detached-wrapper coroutine (an implementation
/// detail below) can report completion without widening Engine's API.
struct DetachedTask {
  static void finish(Engine* eng) { eng->note_task_finished(); }
};

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

/// Detached wrapper coroutine: keeps the spawned Task's frame alive for
/// its whole run, reports completion to the engine, and self-destructs
/// (final_suspend = suspend_never).
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    // Eager start: run_detached is invoked from inside a queued event, so
    // the body begins at exactly the scheduled simulated time.
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      // A detached simulated process must not leak exceptions: there is
      // nobody to deliver them to, and continuing would corrupt the run.
      std::fputs("albatross: unhandled exception escaped a detached process\n", stderr);
      std::abort();
    }
  };
};

Detached run_detached(Engine* eng, Task<void> task) {
  struct DoneGuard {
    Engine* eng;
    ~DoneGuard() { DetachedTask::finish(eng); }
  } guard{eng};
  co_await std::move(task);
}

// The engine dispatching on this thread (campaign workers each run
// their own).
thread_local Engine* g_current_engine = nullptr;

}  // namespace

Engine* current_engine() { return g_current_engine; }

void schedule_resume_now(std::coroutine_handle<> h) {
  assert(g_current_engine && "coroutine resumed outside engine dispatch");
  g_current_engine->schedule_resume_after(0, h);
}

Engine::Engine() { set_owners(1); }

void Engine::set_owners(int owners) {
  assert(pending_events() == 0 && tasks_spawned() == 0 &&
         "set_owners() must precede all scheduling and spawning");
  owners_ = std::max(1, owners);
  lamport_.assign(static_cast<std::size_t>(owners_) + 1, 0);
  hash_.assign(static_cast<std::size_t>(owners_), kFnvBasis);
  now_ = 0;
  events_ = 0;
  stopped_ = false;
}

void Engine::schedule_at(SimTime t, UniqueFunction fn) {
  assert(t >= now_ && "cannot schedule an event in the simulated past");
  queue_.push(t, next_key(current_owner()), exec_owner_here(), std::move(fn));
}

void Engine::schedule_after(SimTime delay, UniqueFunction fn) {
  if (delay < 0) delay = 0;
  queue_.push(now_ + delay, next_key(current_owner()), exec_owner_here(), std::move(fn));
}

void Engine::schedule_on(OwnerId dest, SimTime t, UniqueFunction fn) {
  assert(dest >= 0 && dest < static_cast<OwnerId>(owners_));
  assert(t >= now_ && "cannot schedule an event in the simulated past");
  queue_.push(t, next_key(current_owner()), dest, std::move(fn));
}

void Engine::schedule_resume(SimTime t, std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule an event in the simulated past");
  queue_.push_resume(t, next_key(current_owner()), exec_owner_here(), h);
}

void Engine::schedule_resume_after(SimTime delay, std::coroutine_handle<> h) {
  if (delay < 0) delay = 0;
  queue_.push_resume(now_ + delay, next_key(current_owner()), exec_owner_here(), h);
}

void Engine::spawn(Task<void> task) { spawn_on(exec_owner_here(), std::move(task)); }

void Engine::spawn_on(OwnerId dest, Task<void> task) {
  assert(dest >= 0 && dest < static_cast<OwnerId>(owners_));
  // During a run, spawns are owner-local (handlers spawn onto their own
  // owner); cross-owner placement is a setup-time operation.
  assert(cur_owner_ < 0 || dest == cur_owner_);
  ++tasks_spawned_;
  if (tracer_) tracer_->instant(trace::Category::Sim, "task.spawn", -1, tasks_spawned_);
  // The Task is move-only; UniqueFunction supports move-only captures.
  // Starting the wrapper here (inside the queued event) makes the body's
  // first instructions run at the scheduled time, not at spawn time.
  auto start = [this, t = std::move(task)]() mutable {
    run_detached(this, std::move(t));
  };
  static_assert(UniqueFunction::stores_inline<decltype(start)>,
                "the spawn starter must fit the event queue's inline storage");
  queue_.push(now_, next_key(current_owner()), dest, std::move(start));
}

void Engine::note_task_finished() {
  ++tasks_finished_;
  if (tracer_) tracer_->instant(trace::Category::Sim, "task.finish", -1, tasks_finished_);
}

void Engine::attach_trace(trace::Session* s) {
  session_ = s;
  tracer_ = s ? s->recorder() : nullptr;
}

void Engine::dispatch(EventQueue::Event e) {
  cur_owner_ = e.exec_owner;
  now_ = e.time;
  // Lamport max-update: everything this dispatch schedules must key
  // strictly after the event itself, whichever owner scheduled it.
  std::uint64_t& lam = lamport_[static_cast<std::size_t>(e.exec_owner)];
  if (e.key.lamport > lam) lam = e.key.lamport;
  if (trace::Recorder* rec = tracer_) {
    rec->set_time(now_);
    if (rec->engine_events()) {
      rec->instant(trace::Category::Sim, e.resume ? "engine.resume" : "engine.event", -1,
                   e.key.lamport);
    }
  }
  // FNV-1a over the canonical (time, lamport, owner) triple, into the
  // executing owner's accumulator (folded in owner order by trace_hash()).
  std::uint64_t& h = hash_[static_cast<std::size_t>(e.exec_owner)];
  fnv_mix(h, static_cast<std::uint64_t>(e.time));
  fnv_mix(h, e.key.lamport);
  fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.key.owner)));
  ++events_;
  e.run();
}

std::uint64_t Engine::run() {
  stopped_ = false;
  g_current_engine = this;
  const std::uint64_t before = events_;
  while (!queue_.empty() && !stopped_) dispatch(queue_.pop());
  cur_owner_ = -1;
  return events_ - before;
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  g_current_engine = this;
  while (!queue_.empty() && queue_.next_time() <= t) {
    dispatch(queue_.pop());
    if (stopped_) {
      cur_owner_ = -1;
      return false;
    }
  }
  cur_owner_ = -1;
  if (now_ < t) now_ = t;
  return true;
}

std::uint64_t Engine::trace_hash() const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t oh : hash_) fnv_mix(h, oh);
  return h;
}

void publish_metrics(const Engine& eng, trace::Metrics& m) {
  *m.counter("sim/events") = eng.events_processed();
  *m.counter("sim/tasks.spawned") = eng.tasks_spawned();
  *m.counter("sim/tasks.finished") = eng.tasks_finished();
  *m.counter("sim/time_ns") = static_cast<std::uint64_t>(eng.now());
}

}  // namespace alb::sim
