// Dissemination-tree construction and the tree_broadcast wire contract:
// shapes, parent/child consistency, one WAN crossing per cluster pair,
// full delivery, and the completion-time shape chooser.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "net/coll_tree.hpp"
#include "net/network.hpp"
#include "net/presets.hpp"

namespace alb::net {
namespace {

/// Every cluster except the root has exactly one parent, the root none,
/// and following parents always terminates at the root (a tree).
void expect_tree(const CollTree& t, int clusters) {
  std::vector<int> parent(static_cast<std::size_t>(clusters), -1);
  for (ClusterId v = 0; v < clusters; ++v) {
    for (ClusterId c : t.children[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(parent[static_cast<std::size_t>(c)], -1)
          << "cluster " << c << " has two parents";
      parent[static_cast<std::size_t>(c)] = v;
    }
  }
  EXPECT_EQ(parent[static_cast<std::size_t>(t.root)], -1);
  for (ClusterId c = 0; c < clusters; ++c) {
    if (c == t.root) continue;
    EXPECT_NE(parent[static_cast<std::size_t>(c)], -1) << "cluster " << c << " unreached";
    // Walk to the root; must terminate within `clusters` steps.
    int cur = c;
    int steps = 0;
    while (cur != t.root && steps <= clusters) {
      cur = parent[static_cast<std::size_t>(cur)];
      ++steps;
    }
    EXPECT_EQ(cur, t.root);
  }
}

TEST(CollTree, StarShape) {
  for (int clusters : {1, 2, 4, 7}) {
    for (ClusterId root = 0; root < clusters; ++root) {
      const CollTree t = build_coll_tree(clusters, root, CollShape::Star);
      expect_tree(t, clusters);
      EXPECT_EQ(t.depth, clusters > 1 ? 1 : 0);
      EXPECT_EQ(t.children[static_cast<std::size_t>(root)].size(),
                static_cast<std::size_t>(clusters - 1));
    }
  }
}

TEST(CollTree, BinomialShape) {
  for (int clusters : {1, 2, 3, 4, 5, 8, 13}) {
    for (ClusterId root = 0; root < clusters; ++root) {
      const CollTree t = build_coll_tree(clusters, root, CollShape::Binomial);
      expect_tree(t, clusters);
      // A relabeled node's parent strips its highest set bit, so its
      // depth is its popcount; the tree's depth is the max over labels.
      int expect_depth = 0;
      for (int v = 0; v < clusters; ++v) {
        expect_depth = std::max(expect_depth, std::popcount(static_cast<unsigned>(v)));
      }
      EXPECT_EQ(t.depth, expect_depth) << "clusters=" << clusters << " root=" << root;
    }
  }
}

TEST(CollTree, BinomialDispatchOrderIsLargestSubtreeFirst) {
  // Root 0 over 8 clusters sends to 1, 2, 4 in ascending-step order;
  // the first-dispatched child owns the largest subtree ({1,3,5,7}), so
  // the deepest relay chain starts earliest.
  const CollTree t = build_coll_tree(8, 0, CollShape::Binomial);
  EXPECT_EQ(t.children[0], (std::vector<ClusterId>{1, 2, 4}));
  EXPECT_EQ(t.children[1], (std::vector<ClusterId>{3, 5}));
  EXPECT_EQ(t.children[2], (std::vector<ClusterId>{6}));
  EXPECT_EQ(t.children[3], (std::vector<ClusterId>{7}));
  EXPECT_TRUE(t.children[4].empty());
  EXPECT_TRUE(t.children[7].empty());
}

TEST(CollTree, RotatedRootRelabelsConsistently) {
  const CollTree t = build_coll_tree(4, 2, CollShape::Binomial);
  expect_tree(t, 4);
  // Relabel v = (me - 2 + 4) % 4: root 2 sends to labels 1, 2 = actual
  // clusters 3, 0; label 1 (cluster 3) relays to label 3 (cluster 1).
  EXPECT_EQ(t.children[2], (std::vector<ClusterId>{3, 0}));
  EXPECT_EQ(t.children[3], (std::vector<ClusterId>{1}));
  EXPECT_TRUE(t.children[0].empty());
}

TEST(CollTree, ChooserPrefersStarOnDasAndBinomialOnExpensiveDispatch) {
  // DAS: per-pair PVCs with a cheap 50 us forwarding overhead against a
  // ~3 ms edge cost — adding relay depth costs a full extra edge, so
  // the star's serial dispatch wins.
  EXPECT_EQ(choose_coll_shape(das_config(4, 16), 1024), CollShape::Star);
  // Deterministic: pure arithmetic on the topology config.
  EXPECT_EQ(choose_coll_shape(das_config(4, 16), 1024),
            choose_coll_shape(das_config(4, 16), 1024));
  // Make gateway dispatch dominate: with a 5 ms forwarding slot and 8
  // clusters the star's 7 serial dispatches (35 ms) lose to the
  // binomial's max 3 slots + 3 edges (~24 ms).
  TopologyConfig t = das_config(8, 4);
  t.gateway_forward_overhead = sim::milliseconds(5);
  EXPECT_EQ(choose_coll_shape(t, 1024), CollShape::Binomial);
}

TEST(CollTree, TreeBroadcastCrossesEachPairOnceAndDeliversEverywhere) {
  for (CollShape shape : {CollShape::Star, CollShape::Binomial}) {
    sim::Engine eng;
    Network net(eng, das_config(4, 3));
    int delivered = 0;
    for (int n = 0; n < 12; ++n) {
      net.endpoint(n).set_handler(5, [&delivered](const Message&) { ++delivered; });
    }
    Message m;
    m.bytes = 256;
    m.kind = MsgKind::Bcast;
    m.tag = 5;
    eng.schedule_after(0, [&net, shape, m] { net.tree_broadcast(/*src=*/0, shape, m); });
    eng.run();
    // Every remote cluster's nodes got exactly one copy (the source
    // cluster is served by lan_broadcast at the orca layer, not here).
    EXPECT_EQ(delivered, 9) << to_string(shape);
    // Tree edges: each circuit crossed at most once, C-1 = 3 crossings
    // in total.
    int used = 0;
    for (ClusterId a = 0; a < 4; ++a) {
      for (ClusterId b = 0; b < 4; ++b) {
        if (a == b) continue;
        const auto msgs = net.wan_link(a, b).messages();
        EXPECT_LE(msgs, 1u) << to_string(shape) << " circuit " << a << "->" << b;
        used += static_cast<int>(msgs);
      }
    }
    EXPECT_EQ(used, 3) << to_string(shape);
    // Wire accounting matches: 3 crossings of 256 bytes.
    EXPECT_EQ(net.stats().kind(MsgKind::Bcast).inter_msgs, 3u);
    EXPECT_EQ(net.stats().kind(MsgKind::Bcast).inter_bytes, 3u * 256u);
  }
}

TEST(CollTree, BinomialRelaysThroughIntermediateGateways) {
  sim::Engine eng;
  Network net(eng, das_config(4, 1));
  for (int n = 0; n < 4; ++n) net.endpoint(n).set_handler(1, [](const Message&) {});
  Message m;
  m.bytes = 64;
  m.tag = 1;
  eng.schedule_after(0, [&net, m] { net.tree_broadcast(/*src=*/0, CollShape::Binomial, m); });
  eng.run();
  // Binomial from cluster 0: edges 0->1, 0->2, and cluster 1 relays to
  // 3. The root's own circuit to 3 is never used.
  EXPECT_EQ(net.wan_link(0, 1).messages(), 1u);
  EXPECT_EQ(net.wan_link(0, 2).messages(), 1u);
  EXPECT_EQ(net.wan_link(1, 3).messages(), 1u);
  EXPECT_EQ(net.wan_link(0, 3).messages(), 0u);
}

TEST(CollTree, TreeBroadcastPaysOneAccessSerialization) {
  // The flat path serializes one access transfer per remote cluster;
  // the tree ships a single copy to the gateway, which replicates.
  sim::Engine eng;
  Network net(eng, das_config(4, 2));
  for (int n = 0; n < 8; ++n) net.endpoint(n).set_handler(2, [](const Message&) {});
  Message m;
  m.bytes = 1024;
  m.kind = MsgKind::Bcast;
  m.tag = 2;
  eng.schedule_after(0, [&net, m] { net.tree_broadcast(/*src=*/0, CollShape::Star, m); });
  eng.run();
  EXPECT_EQ(net.access_link(0).messages(), 1u);
  EXPECT_EQ(net.access_link(0).bytes(), 1024u);
}

}  // namespace
}  // namespace alb::net
