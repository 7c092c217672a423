#include "src/hw/sdma.hpp"

#include <algorithm>
#include <cassert>

namespace pd::hw {

SdmaEngine::SdmaEngine(sim::Engine& engine, Fabric& fabric, SdmaConfig config, int engine_id)
    : engine_(engine),
      fabric_(fabric),
      config_(config),
      id_(engine_id),
      work_signal_(engine),
      ring_slots_free_(config.ring_slots) {
  sim::spawn(engine_, run());
}

Status SdmaEngine::submit(SdmaRequest request) {
  if (request.descriptors.empty()) return Errno::einval;
  for (const auto& d : request.descriptors)
    if (d.len == 0 || d.len > config_.max_descriptor_bytes) return Errno::einval;
  if (request.descriptors.size() > ring_slots_free_) return Errno::eagain;
  ring_slots_free_ -= request.descriptors.size();
  queue_.push_back(std::move(request));
  work_signal_.send(1);
  return Status::success();
}

sim::Task<> SdmaEngine::run() {
  while (true) {
    (void)co_await work_signal_.recv();
    while (!queue_.empty()) {
      SdmaRequest req = std::move(queue_.front());
      queue_.pop_front();

      // Engine-side processing (descriptor fetch + DMA read) is pipelined
      // with wire serialization on real hardware: while descriptor k is on
      // the wire, k+1 is being fetched and DMA'd. One request is one
      // simulation transfer unit, so the pipeline is folded in exactly:
      // the engine stalls only for the first descriptor (pipeline fill),
      // and the wire time is the maximum of total wire serialization and
      // the remaining engine work (whichever resource is the bottleneck).
      const std::size_t n = req.descriptors.size();
      Dur engine_time = 0;
      Dur wire_time = 0;
      std::uint64_t total_bytes = 0;
      for (const SdmaDescriptor& d : req.descriptors) {
        engine_time += config_.per_descriptor_overhead +
                       transfer_time(d.len, config_.dma_read_bytes_per_sec);
        wire_time += fabric_.serialize_time(d.len);
        total_bytes += d.len;
      }
      const Dur fill = config_.per_descriptor_overhead +
                       transfer_time(req.descriptors.front().len,
                                     config_.dma_read_bytes_per_sec);
      co_await engine_.delay(fill);
      descriptors_issued_ += n;
      descriptor_bytes_total_ += total_bytes;
      ring_slots_free_ += n;
      if (req.recycle_descriptors) req.recycle_descriptors(std::move(req.descriptors));

      WireChunk chunk;
      chunk.msg = req.header;
      chunk.chunk_bytes = total_bytes;
      chunk.serialize_cost = std::max(wire_time, engine_time - fill);

      // Completion fires when the last byte has left the egress port; the
      // engine itself moves on as soon as the transfer is queued.
      SdmaCompletion done = std::move(req.on_complete);
      ++requests_completed_;
      fabric_.send(std::move(chunk), [done = std::move(done)] {
        if (done) done();
      });
    }
  }
}

}  // namespace pd::hw
