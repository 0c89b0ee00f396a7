#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace alb::sim {

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

void EventQueue::enqueue(SimTime t, std::uint32_t n) {
  Node& nd = node(n);
  nd.next = kNil;
  if (TimeMap::Cell* c = lists_.find(t)) {
    // Keep the list sorted by key. Owners mostly schedule in ascending
    // Lamport order, so appending at the tail is the common case;
    // interleaved owners with diverging Lamport clocks cause the
    // mid-list inserts.
    if (node(c->tail).key < nd.key) {
      node(c->tail).next = n;
      c->tail = n;
    } else if (nd.key < node(c->head).key) {
      nd.next = c->head;
      c->head = n;
    } else {
      std::uint32_t prev = c->head;
      while (node(node(prev).next).key < nd.key) prev = node(prev).next;
      nd.next = node(prev).next;
      node(prev).next = n;
    }
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
  // Sift-up with a hole: the new entry is only written once, into its
  // final position.
  std::size_t i = heap_times_.size();
  heap_times_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(t < heap_times_[parent])) break;
    heap_times_[i] = heap_times_[parent];
    i = parent;
  }
  heap_times_[i] = t;
}

void EventQueue::heap_pop() {
  const SimTime vt = heap_times_.back();
  heap_times_.pop_back();
  if (heap_times_.empty()) return;
  const std::size_t n = heap_times_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    SimTime bt = heap_times_[first];
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_times_[c] < bt) {
        bt = heap_times_[c];
        best = c;
      }
    }
    if (!(bt < vt)) break;
    heap_times_[i] = bt;
    i = best;
  }
  heap_times_[i] = vt;
}

EventQueue::Event EventQueue::pop() {
  const SimTime top_time = heap_times_.front();
  TimeMap::Cell* c = lists_.find(top_time);
  const std::uint32_t ni = c->head;
  Node& nd = node(ni);
  if (nd.next == kNil) {
    // Last event at this time: retire its list and heap entry.
    lists_.erase(top_time);
    heap_pop();
  } else {
    c->head = nd.next;
  }
  free_nodes_.push_back(ni);
  --size_;
  // Built in the caller's storage (a prvalue return): the body is
  // relocated exactly once on its way out of the node.
  return Event{top_time, nd.key, nd.exec_owner, std::exchange(nd.resume, nullptr),
               std::move(nd.fn)};
}

}  // namespace alb::sim
