#pragma once
// Per-node message delivery endpoint.
//
// Arriving messages are either handed to a registered handler (used by
// the Orca runtime to dispatch RPC requests and broadcast deliveries the
// moment they arrive) or queued in a per-tag mailbox for processes that
// co_await receive(tag).
//
// A handler sees the message by const reference, for the duration of the
// call only. For a hardware broadcast that reference is the fan-out
// record every receiver shares (net/network.hpp): the network rewrites
// its `dst` for the next receiver and recycles it after the last, so a
// handler must not keep the reference or a pointer into the Message —
// it copies what it needs (payload_as<T> fields, or the payload
// shared_ptr itself) before returning. A unicast is handed over the
// same way; only mailbox delivery takes the message by value.
//
// The runtime's reserved protocol tags (-kReservedTags..-1, see
// orca/tags.hpp) carry almost every delivery, so their handlers sit in a
// fixed array indexed by -tag-1; application tags (>= 0) keep a map.

#include <array>
#include <functional>
#include <map>
#include <memory>

#include "net/message.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace alb::net {

class Endpoint {
 public:
  /// Runs at arrival time; the reference is valid only during the call.
  using Handler = std::function<void(const Message&)>;

  /// Tags -kReservedTags..-1 dispatch through the fixed handler array.
  static constexpr int kReservedTags = 16;

  explicit Endpoint(sim::Engine& eng) : eng_(&eng) {}
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Registers a handler invoked at arrival time for messages with `tag`.
  /// A handler takes precedence over mailbox queueing.
  void set_handler(int tag, Handler handler) {
    if (Handler* slot = reserved_slot(tag)) {
      *slot = std::move(handler);
    } else {
      handlers_[tag] = std::move(handler);
    }
  }
  /// Returns `tag` to mailbox delivery.
  void clear_handler(int tag) {
    if (Handler* slot = reserved_slot(tag)) {
      *slot = nullptr;
    } else {
      handlers_.erase(tag);
    }
  }

  /// Awaitable receive from the mailbox for `tag` (FIFO).
  auto receive(int tag) { return mailbox(tag).receive(); }

  /// Number of queued (undelivered-to-process) messages for `tag`.
  std::size_t pending(int tag) {
    auto it = mailboxes_.find(tag);
    return it == mailboxes_.end() ? 0 : it->second->size();
  }

  /// Called by the network at a unicast's arrival time: the handler
  /// sees `m`, or the mailbox takes it over.
  void deliver(Message&& m) {
    if (Handler* h = handler(m.tag)) {
      (*h)(m);
    } else {
      mailbox(m.tag).send(std::move(m));
    }
  }
  /// Called by the network at a broadcast receiver's arrival time: `m`
  /// is shared by the whole fan-out, so the mailbox gets a copy.
  void deliver(const Message& m) {
    if (Handler* h = handler(m.tag)) {
      (*h)(m);
    } else {
      mailbox(m.tag).send(m);
    }
  }

  /// Poisons every mailbox (current and future): blocked and subsequent
  /// receive() calls rethrow `e`. Part of the hard-failure fan-out —
  /// see src/net/fault.hpp.
  void fail_pending(std::exception_ptr e) {
    fail_ = e;
    for (auto& [tag, ch] : mailboxes_) ch->fail_all(e);
  }

 private:
  /// The handler registered for `tag`, or nullptr.
  Handler* handler(int tag) {
    if (Handler* slot = reserved_slot(tag)) return *slot ? slot : nullptr;
    auto it = handlers_.find(tag);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  Handler* reserved_slot(int tag) {
    return tag < 0 && tag >= -kReservedTags ? &reserved_[static_cast<std::size_t>(-tag - 1)]
                                            : nullptr;
  }

  sim::Channel<Message>& mailbox(int tag) {
    auto it = mailboxes_.find(tag);
    if (it == mailboxes_.end()) {
      it = mailboxes_.emplace(tag, std::make_unique<sim::Channel<Message>>(*eng_)).first;
      if (fail_) it->second->fail_all(fail_);
    }
    return *it->second;
  }

  sim::Engine* eng_;
  std::array<Handler, kReservedTags> reserved_;  // index -tag-1
  std::map<int, Handler> handlers_;              // every other tag
  std::map<int, std::unique_ptr<sim::Channel<Message>>> mailboxes_;
  std::exception_ptr fail_{};
};

}  // namespace alb::net
