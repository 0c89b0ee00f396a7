#pragma once
// Cluster-level message combining (the RA optimization, §4.5).
//
// For irregular, fine-grained, asynchronous point-to-point traffic, each
// cluster designates a relay process. A sender hands intercluster items
// to its relay (intracluster message); the relay accumulates items per
// destination cluster and occasionally ships one large combined message
// over the WAN; the remote relay unpacks and distributes the items
// locally. Intracluster items bypass the relay. All sends are
// asynchronous (fire-and-forget), so senders overlap computation with
// intercluster communication — this is a latency-hiding technique.
//
// Delivery is by callback: the application registers a handler invoked
// at the destination node at arrival time. Per-node sent/delivered
// counters support the application's quiescence detection.

#include <cstdint>
#include <functional>
#include <vector>

#include "orca/runtime.hpp"

namespace alb::wide {

template <typename Item>
class ClusterCombiner {
 public:
  using Deliver = std::function<void(int dst_rank, Item&&)>;

  struct Options {
    std::size_t item_bytes = 16;
    /// Relay flushes a destination buffer at this many items.
    std::size_t flush_items = 256;
    /// false = unoptimized: intercluster items bypass the cluster relay
    /// — unless the adaptive engine ratchets a cluster's relay combining
    /// on mid-run (see orca/adaptive.hpp; an explicit --combine-bytes
    /// choice suppresses that policy at the harness).
    bool enabled = true;
    /// Per-destination-NODE batching at the sender (>1 = the classic
    /// message combining the paper's baseline RA already performed [3];
    /// orthogonal to the cluster-level relay combining).
    std::size_t sender_batch_items = 1;
    /// Message tag block; the combiner claims [tag, tag+3].
    int tag = 9000;
  };

  ClusterCombiner(orca::Runtime& rt, Options opt, Deliver deliver)
      : rt_(&rt), opt_(opt), deliver_(std::move(deliver)),
        sent_(static_cast<std::size_t>(rt.nprocs()), 0),
        delivered_(static_cast<std::size_t>(rt.nprocs()), 0),
        buffers_(static_cast<std::size_t>(rt.network().topology().clusters()) *
                 static_cast<std::size_t>(rt.network().topology().clusters())) {
    const auto& topo = rt.network().topology();
    if (topo.clusters() > 1) adapt_ = rt.adaptive();
    for (int n = 0; n < topo.num_compute(); ++n) {
      // Direct item (intracluster, or unoptimized intercluster).
      rt.network().endpoint(n).set_handler(opt_.tag, [this, n](net::Message m) {
        deliver_item(n, std::move(const_cast<Item&>(net::payload_as<Item>(m))));
      });
      // Sender-to-relay hop.
      rt.network().endpoint(n).set_handler(opt_.tag + 1, [this](net::Message m) {
        const auto& h = net::payload_as<Handoff>(m);
        relay_enqueue(h.relay_cluster, h.dst_rank, std::move(const_cast<Item&>(h.item)));
      });
      // Combined intercluster message arriving at the remote relay.
      rt.network().endpoint(n).set_handler(opt_.tag + 2, [this](net::Message m) {
        const auto& batch = net::payload_as<std::vector<Addressed>>(m);
        for (const Addressed& a : batch) distribute(a);
      });
      // Sender-batched direct message: unpack at the destination.
      rt.network().endpoint(n).set_handler(opt_.tag + 3, [this, n](net::Message m) {
        const auto& batch = net::payload_as<std::vector<Item>>(m);
        for (const Item& it : batch) deliver_item(n, Item(it));
      });
    }
    if (opt_.sender_batch_items > 1) {
      const auto procs = static_cast<std::size_t>(rt.nprocs());
      sender_buffers_.resize(procs * procs);
    }
  }

  /// Asynchronous send of one item to `dst_rank`. Never blocks.
  void send(const orca::Proc& p, int dst_rank, Item item) {
    ++sent_[static_cast<std::size_t>(p.rank)];
    if (dst_rank == p.rank) {
      deliver_item(p.rank, std::move(item));
      return;
    }
    const bool remote = !p.same_cluster(dst_rank);
    if (adapt_ != nullptr) adapt_->note_combiner_item(p.cluster(), remote);
    const bool combine =
        opt_.enabled || (adapt_ != nullptr && adapt_->combine_enabled(p.cluster()));
    if (combine && remote) {
      const int relay = relay_rank(p.cluster());
      if (p.rank == relay) {
        relay_enqueue(p.cluster(), dst_rank, std::move(item));
      } else {
        rt_->send_data(p, relay, opt_.tag + 1, opt_.item_bytes,
                       net::make_payload<Handoff>(
                           Handoff{p.cluster(), dst_rank, std::move(item)}));
      }
      return;
    }
    // Direct path (intracluster, or unoptimized intercluster).
    if (opt_.sender_batch_items > 1) {
      auto& buf = sender_buffer(p.rank, dst_rank);
      buf.push_back(std::move(item));
      if (buf.size() >= opt_.sender_batch_items) flush_sender_buffer(p, dst_rank);
      return;
    }
    rt_->send_data(p, dst_rank, opt_.tag, opt_.item_bytes,
                   net::make_payload<Item>(std::move(item)));
  }

  /// Ships all partially-filled buffers (end of a phase): the caller's
  /// sender-side batches and its cluster's relay buffers.
  void flush(const orca::Proc& p) {
    if (opt_.sender_batch_items > 1) {
      for (int d = 0; d < rt_->nprocs(); ++d) flush_sender_buffer(p, d);
    }
    const net::ClusterId mine = p.cluster();
    const auto& topo = rt_->network().topology();
    for (net::ClusterId c = 0; c < topo.clusters(); ++c) {
      flush_buffer(mine, c);
    }
  }

  /// Items sent from / delivered to this process (local knowledge, used
  /// in charged quiescence reductions by the application).
  std::uint64_t sent_by(int rank) const { return sent_[static_cast<std::size_t>(rank)]; }
  std::uint64_t delivered_to(int rank) const {
    return delivered_[static_cast<std::size_t>(rank)];
  }

  /// Combined WAN shipments sent so far.
  std::uint64_t combined_messages() const { return combined_; }

 private:
  struct Handoff {
    net::ClusterId relay_cluster;
    int dst_rank;
    Item item;
  };
  struct Addressed {
    int dst_rank;
    Item item;
  };

  int relay_rank(net::ClusterId c) const {
    // The relay is the cluster's last node: on DAS the designated
    // machine should not be the cluster leader, which already hosts
    // sequencer duties.
    const auto& topo = rt_->network().topology();
    return topo.compute_node(c, topo.nodes_per_cluster() - 1);
  }

  void deliver_item(int rank, Item&& item) {
    ++delivered_[static_cast<std::size_t>(rank)];
    deliver_(rank, std::move(item));
  }

  std::vector<Addressed>& buffer(net::ClusterId from, net::ClusterId to) {
    const auto& topo = rt_->network().topology();
    return buffers_[static_cast<std::size_t>(from) * topo.clusters() + to];
  }

  void relay_enqueue(net::ClusterId from, int dst_rank, Item&& item) {
    const auto& topo = rt_->network().topology();
    const net::ClusterId to = topo.cluster_of(static_cast<net::NodeId>(dst_rank));
    auto& buf = buffer(from, to);
    buf.push_back(Addressed{dst_rank, std::move(item)});
    if (buf.size() >= opt_.flush_items) flush_buffer(from, to);
  }

  void flush_buffer(net::ClusterId from, net::ClusterId to) {
    auto& buf = buffer(from, to);
    if (buf.empty()) return;
    std::vector<Addressed> batch;
    batch.swap(buf);
    const std::size_t bytes = batch.size() * opt_.item_bytes;
    ++combined_;
    net::Message m;
    m.src = static_cast<net::NodeId>(relay_rank(from));
    m.dst = static_cast<net::NodeId>(relay_rank(to));
    m.bytes = bytes;
    m.kind = net::MsgKind::Data;
    m.tag = opt_.tag + 2;
    // The shipment carries this many application messages — the WAN
    // logical-traffic accounting reports them alongside the one wire
    // message.
    m.combined_members = static_cast<std::uint32_t>(batch.size());
    m.payload = net::make_payload<std::vector<Addressed>>(std::move(batch));
    rt_->network().send(std::move(m));
  }

  std::vector<Item>& sender_buffer(int src, int dst) {
    return sender_buffers_[static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(rt_->nprocs()) +
                           static_cast<std::size_t>(dst)];
  }

  void flush_sender_buffer(const orca::Proc& p, int dst_rank) {
    auto& buf = sender_buffer(p.rank, dst_rank);
    if (buf.empty()) return;
    std::vector<Item> batch;
    batch.swap(buf);
    const std::size_t bytes = batch.size() * opt_.item_bytes;
    const auto members = static_cast<std::uint32_t>(batch.size());
    rt_->send_data(p, dst_rank, opt_.tag + 3, bytes,
                   net::make_payload<std::vector<Item>>(std::move(batch)), members);
  }

  void distribute(const Addressed& a) {
    const auto& topo = rt_->network().topology();
    const net::ClusterId c = topo.cluster_of(static_cast<net::NodeId>(a.dst_rank));
    const int relay = relay_rank(c);
    if (a.dst_rank == relay) {
      deliver_item(a.dst_rank, Item(a.item));
      return;
    }
    net::Message m;
    m.src = static_cast<net::NodeId>(relay);
    m.dst = static_cast<net::NodeId>(a.dst_rank);
    m.bytes = opt_.item_bytes;
    m.kind = net::MsgKind::Data;
    m.tag = opt_.tag;
    m.payload = net::make_payload<Item>(Item(a.item));
    rt_->network().send(std::move(m));
  }

  orca::Runtime* rt_;
  orca::adapt::Engine* adapt_ = nullptr;  // null => Options::enabled alone decides
  Options opt_;
  Deliver deliver_;
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> delivered_;
  // Every buffer element below is only touched in the context of the
  // cluster that indexes it (senders and relays of `from` / `src`).
  std::vector<std::vector<Addressed>> buffers_;       // (from, to) cluster pairs
  std::vector<std::vector<Item>> sender_buffers_;     // (src, dst) rank pairs
  std::uint64_t combined_ = 0;
};

}  // namespace alb::wide
