#pragma once
// The Orca recovery protocol's parts shared by its two request/reply
// protocols, RPC (runtime.cpp) and get-sequence (sequencer.cpp).
//
// Under a fault plan that can drop traffic, a caller resends one request
// id with a backed-off timeout per attempt until a reply lands or the
// retry budget is spent (net::FaultInjector::after_timeout decides), and
// a server answers a retried id from its ServedTable instead of serving
// it twice: at-most-once execution (Birrell & Nelson, "Implementing
// Remote Procedure Calls", 1984). Without recovery no timer is armed and
// no request is recorded. docs/RESILIENCE.md specifies the protocol.

#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <utility>

#include "net/fault.hpp"
#include "sim/future.hpp"

namespace alb::orca {

/// What a request's caller resumes with: the reply, or a timeout fired
/// by arm_timeout().
template <class T>
struct Attempt {
  T reply{};
  bool timed_out = false;
};

/// Entry guard: once `cluster` has observed the hard failure, a new
/// request rethrows it at once instead of joining a dead protocol.
inline void guard_failed(const net::FaultInjector* faults, net::ClusterId cluster) {
  if (faults != nullptr && faults->failed(cluster)) {
    std::rethrow_exception(faults->failure_eptr(cluster));
  }
}

/// Arms one attempt's timeout: `timeout` from now the caller resumes
/// timed out, unless its reply landed first.
template <class T>
void arm_timeout(sim::Engine& eng, const sim::Future<Attempt<T>>& fut, sim::SimTime timeout) {
  auto timer = [f = fut]() mutable {
    if (!f.ready()) f.set_value(Attempt<T>{T{}, true});
  };
  static_assert(sim::UniqueFunction::stores_inline<decltype(timer)>,
                "a request timeout timer must fit the event queue's inline storage");
  eng.schedule_after(timeout, std::move(timer));
}

/// A server's at-most-once record: every request id it accepted, with
/// the reply once it has one. Filled only under recovery.
template <class Reply>
class ServedTable {
 public:
  /// The entry of an id accepted before, empty while its first service
  /// is still running; null for an id never seen.
  const std::optional<Reply>* find(std::uint64_t id) const {
    auto it = served_.find(id);
    return it == served_.end() ? nullptr : &it->second;
  }
  /// Records `id` as accepted, its reply still to come.
  void accept(std::uint64_t id) { served_.try_emplace(id); }
  /// Records `id`'s reply.
  void record(std::uint64_t id, Reply reply) { served_[id] = std::move(reply); }

 private:
  std::map<std::uint64_t, std::optional<Reply>> served_;
};

}  // namespace alb::orca
