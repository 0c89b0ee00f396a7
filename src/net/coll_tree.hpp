#pragma once
// Intercluster dissemination trees.
//
// A wide-area collective never sends flat point-to-point traffic: it
// fans out over a tree of *clusters* whose edges are WAN circuits, so
// every cluster pair on the tree is crossed exactly once and the
// intracluster half is left to the hardware broadcast (MagPIe-style
// multilevel collectives). Two shapes are modeled:
//
//   Star      — the root's gateway sends one copy per remote cluster
//               over the per-pair PVCs. Depth 1; the gateway's
//               forwarding engine serializes the copies.
//   Binomial  — classic binomial relabeling rooted at the source
//               cluster; intermediate gateways relay. Depth log2(C);
//               each gateway dispatches at most log2(C) copies.
//
// The shape is chosen from the topology's link parameters by estimating
// both completion times (choose_coll_shape): with per-pair circuits and
// a cheap forwarding overhead the star wins (DAS), while expensive
// per-copy gateway dispatch relative to the circuit's latency +
// serialization favours the binomial relay.
//
// Everything here is pure arithmetic on (shape, root, clusters):
// allocation-free child iteration for the per-hop fan-out.

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace alb::net {

enum class CollShape : std::uint8_t { Star = 0, Binomial = 1 };

/// HopPlan sentinel: the message is not a tree-dissemination leg.
inline constexpr std::uint8_t kNoCollShape = 0xff;

constexpr const char* to_string(CollShape s) {
  switch (s) {
    case CollShape::Star: return "star";
    case CollShape::Binomial: return "binomial";
  }
  return "?";
}

/// Visits the children of cluster `me` in the dissemination tree rooted
/// at `root`, in dispatch order (the order the gateway serializes its
/// forwards: largest subtree first, so the deepest relay chain starts
/// earliest).
template <typename Fn>
void for_each_coll_child(CollShape shape, ClusterId root, int clusters, ClusterId me,
                         Fn&& fn) {
  if (shape == CollShape::Star) {
    if (me != root) return;
    for (ClusterId c = 0; c < clusters; ++c) {
      if (c != root) fn(c);
    }
    return;
  }
  // Binomial, relabeled so the root is 0: node v sends to v + 2^k in
  // round k iff v < 2^k (ascending k == descending subtree size).
  const int v = (me - root + clusters) % clusters;
  for (long long step = 1; v + step < clusters; step <<= 1) {
    if (v < step) {
      fn(static_cast<ClusterId>((root + v + step) % clusters));
    }
  }
}

/// Materialized tree (tests, shape estimation, docs — the hot path uses
/// for_each_coll_child directly and never allocates).
struct CollTree {
  ClusterId root = 0;
  CollShape shape = CollShape::Star;
  /// Per cluster, its children in dispatch order.
  std::vector<std::vector<ClusterId>> children;
  /// Edges from the root to the deepest cluster (0 for a single cluster).
  int depth = 0;
};

CollTree build_coll_tree(int clusters, ClusterId root, CollShape shape);

/// Estimated completion time of a `bytes`-broadcast over the tree: each
/// gateway dispatches its copies serially at the forwarding overhead,
/// and every tree edge costs one WAN serialization (framing included)
/// plus the propagation latency. Access/delivery legs are shape-
/// independent and excluded.
sim::SimTime coll_tree_completion(const TopologyConfig& cfg, CollShape shape,
                                  std::size_t bytes);

/// The shape with the smaller estimated completion for this payload
/// size; ties prefer Star (direct per-pair circuits, the paper's "one
/// WAN crossing per cluster pair" reading).
CollShape choose_coll_shape(const TopologyConfig& cfg, std::size_t bytes);

}  // namespace alb::net
