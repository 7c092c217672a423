#include "src/hw/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace pd::hw {

Fabric::Fabric(sim::Engine& engine, int num_nodes, FabricConfig config)
    : engine_(engine), config_(config) {
  ports_.resize(static_cast<std::size_t>(num_nodes));
}

void Fabric::attach(int node, ChunkSink sink) {
  ports_.at(static_cast<std::size_t>(node)).sink = std::move(sink);
}

Dur Fabric::serialize_time(std::uint64_t bytes) const {
  return config_.per_chunk_overhead + transfer_time(bytes, config_.link_bytes_per_sec);
}

void Fabric::send(WireChunk chunk, std::function<void()> on_egress) {
  ++chunks_sent_;
  bytes_sent_ += chunk.chunk_bytes;

  Port& src = ports_.at(static_cast<std::size_t>(chunk.msg.src_node));
  const Dur ser = chunk.serialize_cost > 0 ? chunk.serialize_cost
                                           : serialize_time(chunk.chunk_bytes);

  // Source port: FIFO serialization at link rate.
  const Time now = engine_.now();
  const Time egress_start = std::max(now, src.egress_free_at);
  const Time egress_done = egress_start + ser;
  src.egress_free_at = egress_done;
  if (on_egress)
    engine_.schedule_at(egress_done, std::move(on_egress));

  // Cut-through switch: the head of the transfer reaches the destination
  // port wire_latency after it left the source, and the destination drains
  // at the same rate — so an uncontended transfer is delivered at
  // egress_done + wire_latency, while incast still serializes on the
  // ingress busy window.
  const Time head_arrival = egress_start + config_.wire_latency;

  Port& dst = ports_.at(static_cast<std::size_t>(chunk.msg.dst_node));
  const Time ingress_start = std::max(head_arrival, dst.ingress_free_at);
  const Time ingress_done = ingress_start + ser;
  dst.ingress_free_at = ingress_done;

  Port* dst_port = &dst;
  engine_.schedule_at(ingress_done,
                      [dst_port, chunk = std::move(chunk)] {
                        assert(dst_port->sink && "destination NIC not attached");
                        dst_port->sink(chunk);
                      });
}

}  // namespace pd::hw
