// The Host Fabric Interface device model: PIO send path, 16 SDMA engines,
// the RcvArray, and per-context receive queues. Every send is one chunk
// (one PIO packet or one whole SDMA request), so each arriving chunk is a
// complete message.
//
// The device knows nothing about kernels or drivers: it takes descriptor
// lists and raises completion callbacks. Which CPU fields the "IRQ" — and
// what that costs — is decided by whoever registered the callback (the
// Linux driver model routes it through the node's IRQ controller).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/status.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/hw/fabric.hpp"
#include "src/hw/rcv_array.hpp"
#include "src/hw/sdma.hpp"

namespace pd::hw {

/// What a receive context sees when a message (one chunk) has arrived.
struct RxEvent {
  WireKind kind = WireKind::ctrl;
  std::uint64_t match_bits = 0;
  std::uint64_t bytes = 0;
  int src_node = 0;
  int src_ctxt = 0;
  std::uint32_t tid = 0;
  // Rendezvous fields copied from the wire header (see wire.hpp).
  std::uint64_t msg_id = 0;
  std::uint32_t window = 0;
  std::uint32_t total_windows = 0;
  std::uint8_t ctrl = kCtrlNone;
};

struct HfiConfig {
  int num_sdma_engines = 16;
  SdmaConfig sdma = {};
  std::uint32_t rcv_array_entries = 32768;
  std::uint64_t pio_max_bytes = 8192;  // largest single PIO packet
  mem::PhysAddr csr_base = 0x0000'00E0'0000'0000ull;  // device BAR (mmap target)
  std::uint64_t csr_size = 16ull << 20;
};

class HfiDevice {
 public:
  HfiDevice(sim::Engine& engine, Fabric& fabric, int node_id, HfiConfig config = {});

  int node_id() const { return node_id_; }
  const HfiConfig& config() const { return config_; }

  /// --- send side -------------------------------------------------------
  /// Programmed I/O: the caller has already paid the CPU store cost; the
  /// device forwards one chunk. EINVAL above pio_max_bytes.
  Status pio_send(const WireMessage& msg);

  int num_engines() const { return static_cast<int>(engines_.size()); }
  SdmaEngine& engine(int id) { return *engines_.at(static_cast<std::size_t>(id)); }
  /// Round-robin engine selection (the driver's reserve step).
  int pick_engine();

  /// --- expected receive -------------------------------------------------
  RcvArray& rcv_array() { return rcv_array_; }
  const RcvArray& rcv_array() const { return rcv_array_; }

  /// --- receive contexts --------------------------------------------------
  /// A context must be opened before traffic addressed to it arrives.
  sim::Channel<RxEvent>& open_context(int ctxt);
  void close_context(int ctxt);
  bool context_open(int ctxt) const { return contexts_.count(ctxt) > 0; }

  /// Aggregate descriptor-size instrumentation across all engines
  /// (verifies the 4 KiB vs 10 KiB request-size claim).
  std::uint64_t total_descriptors() const;
  std::uint64_t total_descriptor_bytes() const;
  std::uint64_t rx_messages() const { return rx_messages_; }
  std::uint64_t dropped_messages() const { return dropped_; }

 private:
  void on_chunk(const WireChunk& chunk);

  sim::Engine& engine_;
  Fabric& fabric_;
  int node_id_;
  HfiConfig config_;
  std::vector<std::unique_ptr<SdmaEngine>> engines_;
  RcvArray rcv_array_;
  int next_engine_ = 0;

  std::map<int, std::unique_ptr<sim::Channel<RxEvent>>> contexts_;
  std::uint64_t rx_messages_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace pd::hw
