#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace alb::sim {
namespace {

/// A heap child competing in heap_pop's tournament: its time and its
/// index among its siblings.
struct Entrant {
  SimTime time;
  std::size_t index;
};

/// The earlier of two entrants, picked with a min and a mask instead of
/// a branch: which child wins is data the predictor cannot learn.
Entrant lesser(Entrant a, Entrant b) {
  const std::size_t take_b = std::size_t{0} - static_cast<std::size_t>(b.time < a.time);
  return {std::min(a.time, b.time), a.index ^ ((a.index ^ b.index) & take_b)};
}

}  // namespace

std::uint32_t EventQueue::acquire_node() {
  if (!free_nodes_.empty()) {
    const std::uint32_t n = free_nodes_.back();
    free_nodes_.pop_back();
    return n;
  }
  if (nodes_in_use_ == (chunks_.size() << kChunkShift)) {
    chunks_.push_back(std::make_unique<Node[]>(std::size_t{1} << kChunkShift));
  }
  return nodes_in_use_++;
}

void EventQueue::insert_sorted(TimeMap::Cell& cell, std::uint32_t n) {
  // Owners mostly schedule in ascending Lamport order, so appending at
  // the tail is the common case; interleaved owners with diverging
  // Lamport clocks cause the mid-list inserts.
  Node& nd = node(n);
  if (node(cell.tail).key < nd.key) {
    node(cell.tail).next = n;
    cell.tail = n;
  } else if (nd.key < node(cell.head).key) {
    nd.next = cell.head;
    cell.head = n;
  } else {
    std::uint32_t prev = cell.head;
    while (node(node(prev).next).key < nd.key) prev = node(prev).next;
    nd.next = node(prev).next;
    node(prev).next = n;
  }
}

void EventQueue::enqueue(SimTime t, std::uint32_t n) {
  node(n).next = kNil;
  assert((cur_.head == kNil || t >= cur_.key) && "pushed before the current time");
  if (cur_.head != kNil && t == cur_.key) {
    insert_sorted(cur_, n);
  } else if (TimeMap::Cell* c = lists_.find(t)) {
    insert_sorted(*c, n);
  } else {
    TimeMap::Cell& fresh = lists_.insert(t);
    fresh.head = n;
    fresh.tail = n;
    heap_push(t);
  }
  ++size_;
}

void EventQueue::push(SimTime t, EventKey key, std::int32_t exec_owner, UniqueFunction&& fn) {
  const std::uint32_t n = acquire_node();
  Node& nd = node(n);
  nd.key = key;
  nd.exec_owner = exec_owner;
  nd.fn = std::move(fn);
  enqueue(t, n);
}

void EventQueue::push_resume(SimTime t, EventKey key, std::int32_t exec_owner,
                             std::coroutine_handle<> h) {
  const std::uint32_t n = acquire_node();
  Node& nd = node(n);
  nd.key = key;
  nd.exec_owner = exec_owner;
  nd.resume = h;
  enqueue(t, n);
}

void EventQueue::heap_push(SimTime t) {
  // The heap holds exactly the index's times, so its storage grows with
  // the index's: it never reallocates while the index keeps its table.
  const std::size_t want = lists_.capacity() + kArity;
  if (heap_.size() < want) heap_.resize(want, kNever);
  // Sift-up with a hole: the new entry is only written once, into its
  // final position.
  std::size_t i = heap_n_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(t < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = t;
}

void EventQueue::heap_pop() {
  const SimTime vt = heap_[--heap_n_];
  heap_[heap_n_] = kNever;
  const std::size_t n = heap_n_;
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    // Least of the eight children by a pairwise tournament: the pads
    // past n are kNever and never win, and heap times are distinct, so
    // no match is a tie.
    const SimTime* c = heap_.data() + first;
    const Entrant best =
        lesser(lesser(lesser({c[0], 0}, {c[1], 1}), lesser({c[2], 2}, {c[3], 3})),
               lesser(lesser({c[4], 4}, {c[5], 5}), lesser({c[6], 6}, {c[7], 7})));
    if (!(best.time < vt)) break;
    heap_[i] = best.time;
    i = first + best.index;
  }
  heap_[i] = vt;
}

EventQueue::Event EventQueue::pop() {
  if (cur_.head == kNil) {
    // The earliest time comes due: drain its whole list from here on.
    cur_ = lists_.take(heap_[0]);
    heap_pop();
  }
  const std::uint32_t ni = cur_.head;
  Node& nd = node(ni);
  cur_.head = nd.next;
  free_nodes_.push_back(ni);
  --size_;
  // Built in the caller's storage (a prvalue return): the body is
  // relocated exactly once on its way out of the node.
  return Event{cur_.key, nd.key, nd.exec_owner, std::exchange(nd.resume, nullptr),
               std::move(nd.fn)};
}

}  // namespace alb::sim
