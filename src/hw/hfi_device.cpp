#include "src/hw/hfi_device.hpp"

#include "src/common/log.hpp"

namespace pd::hw {

HfiDevice::HfiDevice(sim::Engine& engine, Fabric& fabric, int node_id, HfiConfig config)
    : engine_(engine),
      fabric_(fabric),
      node_id_(node_id),
      config_(config),
      rcv_array_(config.rcv_array_entries) {
  engines_.reserve(static_cast<std::size_t>(config_.num_sdma_engines));
  for (int i = 0; i < config_.num_sdma_engines; ++i)
    engines_.push_back(std::make_unique<SdmaEngine>(engine_, fabric_, config_.sdma, i));
  fabric_.attach(node_id_, [this](const WireChunk& chunk) { on_chunk(chunk); });
}

Status HfiDevice::pio_send(const WireMessage& msg) {
  if (msg.payload_bytes > config_.pio_max_bytes) return Errno::einval;
  WireChunk chunk;
  chunk.msg = msg;
  chunk.chunk_bytes = msg.payload_bytes;
  fabric_.send(std::move(chunk));
  return Status::success();
}

int HfiDevice::pick_engine() {
  const int id = next_engine_;
  next_engine_ = (next_engine_ + 1) % num_engines();
  return id;
}

sim::Channel<RxEvent>& HfiDevice::open_context(int ctxt) {
  auto& slot = contexts_[ctxt];
  if (!slot) slot = std::make_unique<sim::Channel<RxEvent>>(engine_);
  return *slot;
}

void HfiDevice::close_context(int ctxt) {
  contexts_.erase(ctxt);
  rcv_array_.unprogram_all(ctxt);
}

void HfiDevice::on_chunk(const WireChunk& chunk) {
  auto it = contexts_.find(chunk.msg.dst_ctxt);
  if (it == contexts_.end()) {
    ++dropped_;
    PD_LOG(warn) << "hfi" << node_id_ << ": chunk for closed context " << chunk.msg.dst_ctxt
                 << " kind=" << static_cast<int>(chunk.msg.kind) << " src=" << chunk.msg.src_node
                 << "/" << chunk.msg.src_ctxt << " msg_id=" << chunk.msg.msg_id
                 << " win=" << chunk.msg.window << " bytes=" << chunk.chunk_bytes;
    return;
  }
  ++rx_messages_;
  RxEvent ev;
  ev.kind = chunk.msg.kind;
  ev.match_bits = chunk.msg.match_bits;
  ev.bytes = chunk.chunk_bytes;
  ev.src_node = chunk.msg.src_node;
  ev.src_ctxt = chunk.msg.src_ctxt;
  ev.tid = chunk.msg.tid;
  ev.msg_id = chunk.msg.msg_id;
  ev.window = chunk.msg.window;
  ev.total_windows = chunk.msg.total_windows;
  ev.ctrl = chunk.msg.ctrl;
  it->second->send(ev);
}

std::uint64_t HfiDevice::total_descriptors() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->descriptors_issued();
  return n;
}

std::uint64_t HfiDevice::total_descriptor_bytes() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->descriptor_bytes();
  return n;
}

}  // namespace pd::hw
