// Fabric model: N node ports connected through a single full-bisection
// switch (OmniPath-style director). Each port serializes egress and
// ingress traffic at link rate in FIFO order; the switch adds a fixed
// traversal latency. Egress of transfer k+1 overlaps ingress of transfer
// k, so a single stream sustains link rate while incast still queues at
// the destination port.
//
// Ports are modelled with busy-until timestamps rather than coroutines:
// one chunk costs exactly two scheduled events, which keeps 256-node ×
// 8192-rank runs tractable. Both port windows are reserved at send time,
// so contending transfers are granted the destination port in send order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time.hpp"
#include "src/sim/engine.hpp"
#include "src/hw/wire.hpp"

namespace pd::hw {

struct FabricConfig {
  double link_bytes_per_sec = 12.3e9;  // 100 Gb/s OmniPath, protocol-efficient rate
  Dur wire_latency = 600'000;          // 600 ns port-to-port through the switch
  Dur per_chunk_overhead = 90'000;     // 90 ns packetization/header cost per packet
};

/// Delivery callback: invoked on the destination node when a chunk has
/// fully arrived through the ingress port. A chunk is a whole message;
/// nothing downstream reassembles.
using ChunkSink = std::function<void(const WireChunk&)>;

class Fabric {
 public:
  Fabric(sim::Engine& engine, int num_nodes, FabricConfig config = {});

  /// The NIC of `node` registers its receive path here.
  void attach(int node, ChunkSink sink);

  /// Enqueue a chunk for transmission. Returns immediately; the chunk is
  /// serialized through the source port in FIFO order. `on_egress` (may be
  /// null) fires when the last byte has left the source port — that is the
  /// moment the source-side SDMA engine is free and completion can be
  /// signalled locally.
  void send(WireChunk chunk, std::function<void()> on_egress = nullptr);

  /// Wire time of one packet of `bytes` (overhead + serialization).
  Dur serialize_time(std::uint64_t bytes) const;

  const FabricConfig& config() const { return config_; }
  std::uint64_t chunks_sent() const { return chunks_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Port {
    Time egress_free_at = 0;
    Time ingress_free_at = 0;
    ChunkSink sink;
  };

  sim::Engine& engine_;
  FabricConfig config_;
  std::vector<Port> ports_;
  std::uint64_t chunks_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace pd::hw
