#pragma once
// Traffic accounting.
//
// The paper's Tables 4 and 5 report intercluster traffic (message counts
// and kilobytes, split into RPC and broadcast) before and after the
// wide-area optimizations. We track, per message kind: messages and bytes
// that stayed inside a cluster, and messages and bytes that crossed a WAN
// circuit (each WAN crossing counts once, so a broadcast reaching three
// remote clusters contributes three intercluster messages — it occupies
// three PVCs).

#include <array>
#include <cstdint>
#include <iosfwd>

#include "net/message.hpp"

namespace alb::net {

struct KindCounters {
  std::uint64_t intra_msgs = 0;
  std::uint64_t intra_bytes = 0;
  /// Wire view: messages/bytes as the WAN circuits saw them (combined
  /// flushes count once, framing included).
  std::uint64_t inter_msgs = 0;
  std::uint64_t inter_bytes = 0;
  /// Logical view: application payloads that crossed (each member of a
  /// combined flush counts, framing excluded). Equal to the wire view
  /// when neither combining nor framing is configured.
  std::uint64_t inter_logical_msgs = 0;
  std::uint64_t inter_logical_bytes = 0;
};

/// Gateway (transport-level) combining totals.
struct CombinedCounters {
  std::uint64_t flushes = 0;        // combined wire messages shipped
  std::uint64_t members = 0;        // logical messages packed into them
  std::uint64_t wire_bytes = 0;     // bytes the circuits carried for them
  std::uint64_t logical_bytes = 0;  // payload bytes inside them
};

class TrafficStats {
 public:
  static constexpr int kNumKinds = 5;

  void record_intra(MsgKind kind, std::size_t bytes) {
    auto& c = counters_[index(kind)];
    ++c.intra_msgs;
    c.intra_bytes += bytes;
  }
  /// One WAN-circuit crossing: `wire_bytes` is what the circuit
  /// carries, `logical_msgs`/`logical_bytes` what the application sent
  /// (identical unless framing is configured or the message is an
  /// application-level combination).
  void record_inter(MsgKind kind, std::size_t wire_bytes, std::size_t logical_bytes,
                    std::uint64_t logical_msgs) {
    auto& c = counters_[index(kind)];
    ++c.inter_msgs;
    c.inter_bytes += wire_bytes;
    c.inter_logical_msgs += logical_msgs;
    c.inter_logical_bytes += logical_bytes;
  }
  void record_inter(MsgKind kind, std::size_t bytes) { record_inter(kind, bytes, bytes, 1); }
  /// A message entering a gateway combine buffer: logical traffic now,
  /// wire traffic when its batch flushes (record_inter_wire).
  void record_inter_logical(MsgKind kind, std::size_t logical_bytes,
                            std::uint64_t logical_msgs) {
    auto& c = counters_[index(kind)];
    c.inter_logical_msgs += logical_msgs;
    c.inter_logical_bytes += logical_bytes;
  }
  /// The combined wire message a flush puts on the circuit.
  void record_inter_wire(MsgKind kind, std::size_t wire_bytes) {
    auto& c = counters_[index(kind)];
    ++c.inter_msgs;
    c.inter_bytes += wire_bytes;
  }
  void record_combined_flush(std::uint64_t members, std::uint64_t wire_bytes,
                             std::uint64_t logical_bytes) {
    ++combined_.flushes;
    combined_.members += members;
    combined_.wire_bytes += wire_bytes;
    combined_.logical_bytes += logical_bytes;
  }

  const CombinedCounters& combined() const { return combined_; }

  const KindCounters& kind(MsgKind k) const { return counters_[index(k)]; }

  // Index-based views for the campaign result cache's text
  // (de)serialization; not for recording.
  const KindCounters& kind_at(int k) const { return counters_[k]; }
  KindCounters& kind_at(int k) { return counters_[k]; }
  CombinedCounters& combined_mut() { return combined_; }

  /// Convenience aggregates used by the table benches. RPC figures fold
  /// requests and replies together (count = requests, bytes = both
  /// directions), matching how the paper reports "# RPC" and "RPC kbyte".
  std::uint64_t inter_rpc_count() const { return kind(MsgKind::Rpc).inter_msgs; }
  std::uint64_t inter_rpc_bytes() const {
    return kind(MsgKind::Rpc).inter_bytes + kind(MsgKind::RpcReply).inter_bytes;
  }
  /// Broadcast figures fold in ordering control traffic (sequencer and
  /// token messages exist only to implement broadcast).
  std::uint64_t inter_bcast_count() const {
    return kind(MsgKind::Bcast).inter_msgs + kind(MsgKind::Control).inter_msgs;
  }
  std::uint64_t inter_bcast_bytes() const {
    return kind(MsgKind::Bcast).inter_bytes + kind(MsgKind::Control).inter_bytes;
  }

  std::uint64_t intra_rpc_count() const { return kind(MsgKind::Rpc).intra_msgs; }
  std::uint64_t intra_rpc_bytes() const {
    return kind(MsgKind::Rpc).intra_bytes + kind(MsgKind::RpcReply).intra_bytes;
  }
  std::uint64_t intra_bcast_count() const {
    return kind(MsgKind::Bcast).intra_msgs + kind(MsgKind::Control).intra_msgs;
  }
  std::uint64_t intra_data_count() const { return kind(MsgKind::Data).intra_msgs; }
  std::uint64_t inter_data_count() const { return kind(MsgKind::Data).inter_msgs; }
  std::uint64_t inter_data_bytes() const { return kind(MsgKind::Data).inter_bytes; }
  std::uint64_t intra_data_bytes() const { return kind(MsgKind::Data).intra_bytes; }

  std::uint64_t total_messages() const {
    std::uint64_t n = 0;
    for (const auto& c : counters_) n += c.intra_msgs + c.inter_msgs;
    return n;
  }
  std::uint64_t total_inter_bytes() const {
    std::uint64_t n = 0;
    for (const auto& c : counters_) n += c.inter_bytes;
    return n;
  }

  void print(std::ostream& os) const;

 private:
  static int index(MsgKind k) { return static_cast<int>(k); }
  std::array<KindCounters, kNumKinds> counters_{};
  CombinedCounters combined_{};
};

}  // namespace alb::net
