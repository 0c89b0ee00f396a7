#pragma once
// One-shot future/promise for simulated processes.
//
// A Future<T> is a shared handle to a write-once slot. Any number of
// coroutines may co_await it; they resume (through the event queue, at
// the current simulated time) once a value or error is set. Used for RPC
// replies, split-phase operations, and join-style synchronization.

#include <cassert>
#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"

namespace alb::sim {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(Engine& e) : eng(&e) {}
  Engine* eng;
  std::optional<T> value;
  std::exception_ptr error;
  std::vector<std::coroutine_handle<>> waiters;

  bool ready() const { return value.has_value() || error != nullptr; }

  void wake_all() {
    // Resume through the event queue: deterministic order, no reentrancy
    // into whatever coroutine called set_value(). Uses the engine's
    // coroutine fast path — no closure, no allocation.
    for (auto h : waiters) {
      eng->schedule_resume_after(0, h);
    }
    waiters.clear();
  }
};

struct VoidMarker {};

}  // namespace detail

template <typename T = void>
class Future {
  // void is represented internally as a marker value.
  using Stored = std::conditional_t<std::is_void_v<T>, detail::VoidMarker, T>;

 public:
  explicit Future(Engine& eng) : state_(std::make_shared<detail::FutureState<Stored>>(eng)) {}

  bool ready() const { return state_->ready(); }

  template <typename U = Stored>
  void set_value(U&& v = Stored{}) {
    assert(!state_->ready() && "future already satisfied");
    state_->value.emplace(std::forward<U>(v));
    state_->wake_all();
  }

  void set_error(std::exception_ptr e) {
    assert(!state_->ready() && "future already satisfied");
    state_->error = e;
    state_->wake_all();
  }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::shared_ptr<detail::FutureState<Stored>> st;
      bool await_ready() const noexcept { return st->ready(); }
      void await_suspend(std::coroutine_handle<> h) { st->waiters.push_back(h); }
      T await_resume() const {
        if (st->error) std::rethrow_exception(st->error);
        if constexpr (!std::is_void_v<T>) return *st->value;
      }
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<detail::FutureState<Stored>> state_;
};

}  // namespace alb::sim
