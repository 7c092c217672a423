// Wire-level message vocabulary shared by the NIC model and the fabric.
#pragma once

#include <cstdint>

#include "src/common/time.hpp"

namespace pd::hw {

/// How the receiving NIC places the payload.
enum class WireKind : std::uint8_t {
  ctrl,      // tiny control packet (RTS/CTS handshake)
  eager,     // into the receive context's eager ring (CPU copies later)
  expected,  // direct data placement via a programmed RcvArray TID
};

/// One message as seen by the fabric. It travels as one chunk: a PIO packet
/// or a whole SDMA request, whose descriptor granularity is kept in the
/// chunk's `serialize_cost`.
struct WireMessage {
  int src_node = 0;
  int dst_node = 0;
  int src_ctxt = 0;   // sending receive-context id (≈ rank slot on node)
  int dst_ctxt = 0;   // destination receive context
  WireKind kind = WireKind::ctrl;
  std::uint64_t match_bits = 0;  // PSM tag/metadata, opaque to hw
  std::uint64_t payload_bytes = 0;
  std::uint64_t seq = 0;  // per-source sequence number (set by PSM)

  std::uint32_t tid = 0;  // expected: RcvArray entry index

  // Rendezvous-protocol fields (opaque to the fabric/NIC, interpreted by
  // the PSM layer): message id and window bookkeeping for RTS/CTS and
  // expected-data traffic.
  std::uint64_t msg_id = 0;
  std::uint32_t window = 0;
  std::uint32_t total_windows = 0;
  std::uint8_t ctrl = 0;  // CtrlKind for WireKind::ctrl packets
};

/// Control-packet subtypes carried in WireMessage::ctrl.
enum CtrlKind : std::uint8_t {
  kCtrlNone = 0,
  kCtrlRts = 1,  // sender → receiver: expected-protocol request to send
  kCtrlCts = 2,  // receiver → sender: window granted (TIDs programmed)
};

/// A transfer unit in flight: one PIO packet or one SDMA request's worth
/// of descriptors. `serialize_cost`, when non-zero, carries the
/// descriptor-granularity wire time (per-packet overheads + payload time)
/// pre-computed by the sender, so descriptor size still shapes bandwidth
/// even though the fabric moves whole requests.
struct WireChunk {
  WireMessage msg;
  std::uint64_t chunk_bytes = 0;  // the whole message's bytes
  Dur serialize_cost = 0;         // 0 → fabric derives from chunk_bytes
};

}  // namespace pd::hw
