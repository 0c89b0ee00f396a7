// Endpoint dispatch: the runtime's reserved tags (-kReservedTags..-1)
// go through the fixed handler array, every other tag through the map,
// and a tag without a handler queues in its mailbox.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/endpoint.hpp"
#include "sim/task.hpp"

namespace alb::net {
namespace {

Message tagged(int tag, std::size_t bytes = 8) {
  Message m;
  m.tag = tag;
  m.bytes = bytes;
  return m;
}

TEST(Endpoint, ReservedTagHandlerIsCalled) {
  sim::Engine eng;
  Endpoint ep(eng);
  std::vector<std::size_t> seen;
  ep.set_handler(-3, [&](const Message& m) { seen.push_back(m.bytes); });
  ep.deliver(tagged(-3, 40));
  ep.deliver(tagged(-Endpoint::kReservedTags, 7));  // no handler: mailbox
  EXPECT_EQ(seen, (std::vector<std::size_t>{40}));
  EXPECT_EQ(ep.pending(-3), 0u);
  EXPECT_EQ(ep.pending(-Endpoint::kReservedTags), 1u);
}

TEST(Endpoint, ApplicationTagHandlerIsCalled) {
  sim::Engine eng;
  Endpoint ep(eng);
  int calls = 0;
  ep.set_handler(9001, [&](const Message& m) {
    EXPECT_EQ(m.tag, 9001);
    ++calls;
  });
  ep.deliver(tagged(9001));
  ep.deliver(tagged(9001));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(ep.pending(9001), 0u);
}

TEST(Endpoint, UnregisteredReservedTagQueuesInMailbox) {
  sim::Engine eng;
  Endpoint ep(eng);
  ep.set_handler(-1, [](const Message&) { FAIL() << "wrong reserved slot"; });
  ep.deliver(tagged(-2, 11));
  ep.deliver(tagged(-2, 12));
  EXPECT_EQ(ep.pending(-2), 2u);
  std::vector<std::size_t> got;
  eng.spawn([](Endpoint& e, std::vector<std::size_t>& out) -> sim::Task<void> {
    out.push_back((co_await e.receive(-2)).bytes);
    out.push_back((co_await e.receive(-2)).bytes);
  }(ep, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::size_t>{11, 12}));
}

TEST(Endpoint, ClearHandlerReturnsReservedTagToMailbox) {
  sim::Engine eng;
  Endpoint ep(eng);
  int calls = 0;
  ep.set_handler(-4, [&](const Message&) { ++calls; });
  ep.deliver(tagged(-4));
  ep.clear_handler(-4);
  ep.deliver(tagged(-4));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ep.pending(-4), 1u);
}

TEST(Endpoint, FailPendingPoisonsMailboxes) {
  sim::Engine eng;
  Endpoint ep(eng);
  ep.deliver(tagged(-5));  // queued before the failure
  ep.fail_pending(std::make_exception_ptr(std::runtime_error("cluster failed")));
  int thrown = 0;
  eng.spawn([](Endpoint& e, int& out) -> sim::Task<void> {
    for (int tag : {-5, -6, 7}) {  // existing reserved, fresh reserved, fresh app
      try {
        (void)co_await e.receive(tag);
      } catch (const std::runtime_error&) {
        ++out;
      }
    }
  }(ep, thrown));
  eng.run();
  EXPECT_EQ(thrown, 3);
}

}  // namespace
}  // namespace alb::net
