#pragma once
// Open-addressing hash map: SimTime -> FIFO list {head, tail}.
//
// The event queue looks up "the pending list for time t" on every push
// past the current time, and takes each time's list out once, when it
// comes due. std::unordered_map allocates a node per insert, which would
// put a malloc back on the scheduling hot path; this flat table uses
// linear probing with backward-shift deletion, so a steady-state
// insert/erase cycle reuses the same storage. The key and both list
// cursors share one 16-byte cell (a cache line holds four), and the
// table grows at 75% load. Keys must be non-negative (the engine never
// schedules into the simulated past and simulated time starts at zero);
// -1 marks an empty cell.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace alb::sim {

class TimeMap {
 public:
  static constexpr SimTime kEmptyKey = -1;

  struct Cell {
    SimTime key = kEmptyKey;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };

  TimeMap() : cells_(kMinCap) {}

  /// Pointer to the cell for `key`, or nullptr if absent. Valid until
  /// the next insert (which may grow the table).
  Cell* find(SimTime key) {
    std::size_t i = probe_start(key);
    for (;;) {
      if (cells_[i].key == key) return &cells_[i];
      if (cells_[i].key == kEmptyKey) return nullptr;
      i = (i + 1) & mask();
    }
  }

  /// Inserts a key that must not already be present; returns its cell.
  Cell& insert(SimTime key) {
    assert(key >= 0 && "simulated times are non-negative");
    if ((size_ + 1) * 4 > cells_.size() * 3) grow();
    std::size_t i = probe_start(key);
    while (cells_[i].key != kEmptyKey) {
      assert(cells_[i].key != key && "key already present");
      i = (i + 1) & mask();
    }
    cells_[i].key = key;
    ++size_;
    return cells_[i];
  }

  /// Erases a key that must be present and returns its cell as it was.
  Cell take(SimTime key) {
    std::size_t i = probe_start(key);
    while (cells_[i].key != key) {
      assert(cells_[i].key != kEmptyKey && "taking a missing key");
      i = (i + 1) & mask();
    }
    const Cell taken = cells_[i];
    // Backward-shift deletion: pull later members of the probe chain into
    // the hole, so lookups never need tombstones and the table's probe
    // distances stay short under heavy insert/erase churn.
    std::size_t j = i;
    for (;;) {
      cells_[i].key = kEmptyKey;
      for (;;) {
        j = (j + 1) & mask();
        if (cells_[j].key == kEmptyKey) {
          --size_;
          return taken;
        }
        const std::size_t home = probe_start(cells_[j].key);
        // If j's home lies cyclically in (i, j], j still probes through
        // its home without crossing the hole — leave it and keep
        // scanning; otherwise j's chain crossed i and must be moved.
        const bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
        if (!stays) break;
      }
      cells_[i] = cells_[j];
      i = j;
    }
  }

  std::size_t size() const { return size_; }
  /// Cells allocated; size() never exceeds three quarters of it.
  std::size_t capacity() const { return cells_.size(); }

 private:
  static constexpr std::size_t kMinCap = 16;  // power of two

  std::size_t mask() const { return cells_.size() - 1; }

  std::size_t probe_start(SimTime key) const {
    // Fibonacci hashing: nearby times (the common case — a simulation's
    // pending set clusters around now()) spread across the whole table.
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32) &
           mask();
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.size() * 2, Cell{});
    size_ = 0;
    for (const Cell& c : old) {
      if (c.key != kEmptyKey) insert(c.key) = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace alb::sim
