#pragma once
// Network parameter presets calibrated to the paper (§2, Table 1).
//
// Target application-level figures on DAS:
//   Myrinet null RPC          40 us roundtrip     -> one-way 20 us
//   Myrinet RPC bandwidth     208 Mbit/s (26.0 MB/s)
//   Myrinet null broadcast    65 us  (= local get-seq RPC 40 us + 25 us
//                              broadcast delivery; see orca/sequencer)
//   Myrinet bcast bandwidth   248 Mbit/s (31.0 MB/s)
//   WAN (ATM) null RPC        2.7 ms roundtrip    -> one-way 1.35 ms
//   WAN bandwidth             4.53 Mbit/s (566 KB/s)
// One-way WAN path = FE access (20 us) + gateway forward (50 us)
//                  + ATM propagation (1.21 ms) + gateway forward (50 us)
//                  + FE delivery (20 us) = 1.35 ms.
//
// The ordinary-Internet reference measurement (8 ms latency, 1.8 Mbit/s)
// and the "slower network" used for the ATPG discussion (10 ms, 2 Mbit/s)
// are provided as alternate presets.

#include "net/topology.hpp"

namespace alb::net {

/// Fast Ethernet access-link parameters shared by the presets.
inline LinkParams das_access_params() {
  LinkParams p;
  p.latency = sim::microseconds(12);
  p.bandwidth_bytes_per_sec = 100e6 / 8.0;  // 100 Mbit/s
  p.per_message_overhead = sim::microseconds(8);
  return p;
}

inline LinkParams das_lan_params() {
  LinkParams p;
  p.latency = sim::microseconds(17);
  p.bandwidth_bytes_per_sec = 208e6 / 8.0;  // measured application-level
  p.per_message_overhead = sim::microseconds(3);
  return p;
}

inline LinkParams das_lan_broadcast_params() {
  LinkParams p;
  p.latency = sim::microseconds(22);
  p.bandwidth_bytes_per_sec = 248e6 / 8.0;
  p.per_message_overhead = sim::microseconds(3);
  return p;
}

/// WAN circuit with the given one-way propagation latency and bandwidth.
inline LinkParams wan_params(sim::SimTime one_way_latency, double bandwidth_bits_per_sec) {
  LinkParams p;
  p.latency = one_way_latency;
  p.bandwidth_bytes_per_sec = bandwidth_bits_per_sec / 8.0;
  p.per_message_overhead = sim::microseconds(10);  // TCP/IP stack on the gateway
  return p;
}

/// The DAS experimentation system: `clusters` clusters of
/// `nodes_per_cluster` compute nodes each, WAN as measured on the
/// Delft–Amsterdam ATM link.
inline TopologyConfig das_config(int clusters, int nodes_per_cluster) {
  TopologyConfig cfg;
  cfg.clusters = clusters;
  cfg.nodes_per_cluster = nodes_per_cluster;
  cfg.lan = das_lan_params();
  cfg.lan_broadcast = das_lan_broadcast_params();
  cfg.access = das_access_params();
  cfg.wan = wan_params(sim::microseconds(1210), 4.53e6);
  cfg.gateway_forward_overhead = sim::microseconds(50);
  return cfg;
}

/// DAS topology but with WAN figures from the paper's ordinary-Internet
/// reference measurement (quiet Sunday morning: 8 ms, 1.8 Mbit/s).
inline TopologyConfig internet_config(int clusters, int nodes_per_cluster) {
  TopologyConfig cfg = das_config(clusters, nodes_per_cluster);
  cfg.wan = wan_params(sim::microseconds(3860), 1.8e6);  // 8 ms roundtrip
  return cfg;
}

/// The "slower network" of §4.4 (10 ms latency, 2 Mbit/s), where the
/// unoptimized ATPG degrades visibly.
inline TopologyConfig slow_wan_config(int clusters, int nodes_per_cluster) {
  TopologyConfig cfg = das_config(clusters, nodes_per_cluster);
  cfg.wan = wan_params(sim::microseconds(4860), 2.0e6);  // 10 ms roundtrip
  return cfg;
}

/// The fixed one-way path cost outside the WAN circuit proper: FE access
/// + delivery + two gateway forwards + WAN stack overhead.
inline constexpr sim::SimTime kWanFixedOneWay = sim::microseconds(140);

/// The one-way circuit latency that gives an application-level WAN
/// roundtrip of `rtt` (zero when `rtt` is below the fixed path cost).
constexpr sim::SimTime wan_one_way_for_rtt(sim::SimTime rtt) {
  const sim::SimTime one_way = rtt / 2 - kWanFixedOneWay;
  return one_way < 0 ? 0 : one_way;
}

/// DAS topology with an arbitrary WAN (sensitivity sweeps): `rtt` is the
/// application-level roundtrip target, bandwidth in bits/second.
inline TopologyConfig custom_wan_config(int clusters, int nodes_per_cluster,
                                        sim::SimTime rtt, double bandwidth_bits_per_sec) {
  TopologyConfig cfg = das_config(clusters, nodes_per_cluster);
  cfg.wan = wan_params(wan_one_way_for_rtt(rtt), bandwidth_bits_per_sec);
  return cfg;
}

}  // namespace alb::net
