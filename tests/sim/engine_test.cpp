// Engine and event-queue unit tests: ordering, determinism, stop/run_until.

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace alb::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, EventKey{1, 0}, 0, [&] { order.push_back(3); });
  q.push(10, EventKey{2, 0}, 0, [&] { order.push_back(1); });
  q.push(20, EventKey{3, 0}, 0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeOrdersByKey) {
  // Same-time events pop in canonical (lamport, owner) key order, not in
  // insertion order — push a permuted key sequence and expect key order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t lamport = static_cast<std::uint64_t>((i * 37) % 100);
    q.push(42, EventKey{lamport, 0}, 0,
           [&order, lamport] { order.push_back(static_cast<int>(lamport)); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SameTimeSameLamportOrdersByOwner) {
  EventQueue q;
  std::vector<int> order;
  for (int owner : {3, 0, 2, 1}) {
    q.push(7, EventKey{5, owner}, owner, [&order, owner] { order.push_back(owner); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.push(50, EventKey{1, 0}, 0, [] {});
  q.push(5, EventKey{2, 0}, 0, [] {});
  EXPECT_EQ(q.next_time(), 5);
  q.pop();
  EXPECT_EQ(q.next_time(), 50);
}

TEST(Engine, AdvancesTime) {
  Engine eng;
  SimTime seen = -1;
  eng.schedule_after(microseconds(5), [&] { seen = eng.now(); });
  eng.run();
  EXPECT_EQ(seen, 5000);
  EXPECT_EQ(eng.now(), 5000);
}

TEST(Engine, NestedSchedulingRunsToCompletion) {
  Engine eng;
  int depth = 0;
  UniqueFunction recurse;
  std::function<void()> step = [&] {
    if (++depth < 10) eng.schedule_after(100, [&] { step(); });
  };
  eng.schedule_after(0, [&] { step(); });
  eng.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(eng.now(), 900);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(100, [&] { ++fired; });
  eng.schedule_at(200, [&] { ++fired; });
  eng.schedule_at(300, [&] { ++fired; });
  EXPECT_TRUE(eng.run_until(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 200);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine eng;
  EXPECT_TRUE(eng.run_until(12345));
  EXPECT_EQ(eng.now(), 12345);
}

TEST(Engine, StopHaltsProcessing) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(1, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(2, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending_events(), 1u);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  SimTime when = -1;
  eng.schedule_at(500, [&] {
    eng.schedule_after(-100, [&] { when = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(when, 500);
}

TEST(Engine, TraceHashIsDeterministic) {
  auto run_once = [] {
    Engine eng;
    for (int i = 0; i < 50; ++i) {
      eng.schedule_after(i * 7 % 13, [] {});
    }
    eng.run();
    return eng.trace_hash();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, TraceHashDistinguishesSchedules) {
  Engine a;
  a.schedule_at(10, [] {});
  a.run();
  Engine b;
  b.schedule_at(11, [] {});
  b.run();
  EXPECT_NE(a.trace_hash(), b.trace_hash());
}

TEST(Engine, CountsEvents) {
  Engine eng;
  for (int i = 0; i < 17; ++i) eng.schedule_after(i, [] {});
  EXPECT_EQ(eng.run(), 17u);
  EXPECT_EQ(eng.events_processed(), 17u);
}

// The trace-hash fold against FNV-1a written as the plain eight-byte
// loop, on the edge values and on values with every count of leading
// zero bytes, chained so a wrong multiplier anywhere shows.
TEST(Engine, FnvMixMatchesByteLoop) {
  auto byte_loop = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
    return h;
  };
  std::vector<std::uint64_t> values = {0, 1, 0xff, 0x100, 1ull << 56, ~0ull};
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    values.push_back(rng.next_u64() >> (8 * (i % 8)));
  }
  std::uint64_t want = detail::kFnvBasis;
  std::uint64_t got = detail::kFnvBasis;
  for (std::uint64_t v : values) {
    want = byte_loop(want, v);
    detail::fnv_mix(got, v);
    ASSERT_EQ(got, want) << std::hex << v;
  }
}

}  // namespace
}  // namespace alb::sim
