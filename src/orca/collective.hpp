#pragma once
// The wide-area collective layer.
//
// Orca's dissemination sites (the totally-ordered broadcast engine, the
// cluster-aware reduce/allreduce helpers in src/core/) historically sent
// one flat copy per remote cluster over the per-pair WAN circuits. This
// layer centralizes that decision behind a policy object: Flat keeps the
// historical byte-identical behavior; Tree routes the wide-area half
// over a dissemination tree of clusters (net/coll_tree.hpp) whose shape
// is chosen from the topology's link parameters per payload size, so
// every cluster pair on the tree is crossed exactly once and the
// sender's gateway no longer serializes C-1 copies.
//
// The layer carries no per-message state (a mode per cluster + a pointer
// to the network): call sites pass the source node and a prototype
// message, and the same inputs produce the same wire schedule. The adaptive policy engine (orca/adaptive.hpp)
// may ratchet one cluster's mode Flat→Tree mid-run via set_mode; each
// cluster's mode slot is written and read only in that cluster's engine
// context.

#include <cstdint>
#include <vector>

#include "net/coll_tree.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace alb::orca::coll {

enum class Mode : std::uint8_t { Flat = 0, Tree = 1 };

constexpr const char* to_string(Mode m) {
  switch (m) {
    case Mode::Flat: return "flat";
    case Mode::Tree: return "tree";
  }
  return "?";
}

/// Gateway combine threshold the harness arms by default when the tree
/// collectives are selected and the config does not set its own (the
/// paper's RA hand-optimization, promoted to a transport feature).
inline constexpr std::size_t kTreeDefaultCombineBytes = 4096;

struct Config {
  Mode mode = Mode::Flat;
};

class Engine {
 public:
  Engine(net::Network& net, Config cfg)
      : net_(&net),
        cfg_(cfg),
        modes_(static_cast<std::size_t>(net.topology().clusters()), cfg.mode) {}

  /// The configured (whole-run) mode.
  Mode mode() const { return cfg_.mode; }

  /// The mode `cluster`'s dissemination currently uses (== mode() unless
  /// the adaptive engine ratcheted it). Read in the cluster's context.
  Mode mode_of(net::ClusterId cluster) const {
    return modes_[static_cast<std::size_t>(cluster)];
  }

  /// Adaptive ratchet: called in `cluster`'s engine context only.
  void set_mode(net::ClusterId cluster, Mode m) {
    modes_[static_cast<std::size_t>(cluster)] = m;
  }

  /// The tree shape Tree mode uses for a payload of `bytes` (picked
  /// once per dissemination from the topology's link parameters).
  net::CollShape shape_for(std::size_t bytes) const {
    return net::choose_coll_shape(net_->config(), bytes);
  }

  /// Ships `m` to every *remote* cluster and re-broadcasts it there.
  /// The intracluster half (hardware broadcast in the sender's own
  /// cluster) stays with the caller — it is shape-independent. Returns
  /// the id of the first wide-area copy (0 when there is none).
  std::uint64_t disseminate(net::NodeId node, net::Message m);

 private:
  net::Network* net_;
  Config cfg_;
  // Per-cluster mode slots: distinct byte elements, each confined to
  // its cluster's context — adjacent writes do not race.
  std::vector<Mode> modes_;
};

}  // namespace alb::orca::coll
