#pragma once
// Unbounded FIFO channel between simulated processes.
//
// send() never blocks (the network model provides backpressure where it
// matters); receive() is an awaitable that suspends until an item is
// available. Items are handed to waiters in FIFO order: when a sender
// finds waiting receivers, it deposits the item directly into the oldest
// waiter's slot, so no later receive() call can overtake it.

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace alb::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(&eng) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void send(T item) {
    if (!waiters_.empty()) {
      ReceiveAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(item));
      eng_->schedule_resume_after(0, w->handle);
    } else {
      items_.push_back(std::move(item));
    }
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  auto receive() { return ReceiveAwaiter{this}; }

  /// Poisons the channel: every parked receiver (and every later
  /// receive(), including on queued items) completes by rethrowing `e`.
  /// Used to unwind processes cooperatively when a run hard-fails —
  /// a blocked receive must not become a leaked coroutine frame.
  void fail_all(std::exception_ptr e) {
    assert(e && "fail_all needs an exception");
    error_ = e;
    while (!waiters_.empty()) {
      ReceiveAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->error = e;
      eng_->schedule_resume_after(0, w->handle);
    }
  }

 private:
  struct ReceiveAwaiter {
    Channel* ch;
    std::optional<T> slot{};
    std::exception_ptr error{};
    std::coroutine_handle<> handle{};

    bool await_ready() {
      if (ch->error_) {
        error = ch->error_;
        return true;
      }
      // Only take an item directly if no earlier receiver is queued.
      if (!ch->items_.empty() && ch->waiters_.empty()) {
        slot.emplace(std::move(ch->items_.front()));
        ch->items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch->waiters_.push_back(this);
    }
    T await_resume() {
      if (error) std::rethrow_exception(error);
      assert(slot.has_value());
      return std::move(*slot);
    }
  };

  Engine* eng_;
  Fifo<T> items_;
  Fifo<ReceiveAwaiter*> waiters_;
  std::exception_ptr error_{};
};

}  // namespace alb::sim
