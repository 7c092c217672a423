// Tests for the hardware model: fabric timing/contention, SDMA engine
// descriptor processing and completion order, RcvArray, device delivery.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "src/common/units.hpp"
#include "src/hw/fabric.hpp"
#include "src/hw/hfi_device.hpp"
#include "src/hw/rcv_array.hpp"
#include "src/hw/sdma.hpp"
#include "src/sim/task.hpp"

namespace pd::hw {
namespace {

using namespace pd::time_literals;

WireChunk make_chunk(int src, int dst, std::uint64_t bytes, std::uint64_t seq) {
  WireChunk c;
  c.msg.src_node = src;
  c.msg.dst_node = dst;
  c.msg.dst_ctxt = 0;
  c.msg.kind = WireKind::eager;
  c.msg.payload_bytes = bytes;
  c.msg.seq = seq;
  c.chunk_bytes = bytes;
  return c;
}

TEST(Fabric, SingleChunkLatency) {
  sim::Engine e;
  FabricConfig cfg;
  Fabric fabric(e, 2, cfg);
  Time delivered = -1;
  fabric.attach(1, [&](const WireChunk&) { delivered = e.now(); });
  fabric.attach(0, [](const WireChunk&) {});
  fabric.send(make_chunk(0, 1, 4096, 1));
  e.run();
  // Cut-through: head leaves at t=0, arrives after the switch latency and
  // drains at link rate → delivery = serialize + latency.
  const Dur ser = cfg.per_chunk_overhead + transfer_time(4096, cfg.link_bytes_per_sec);
  EXPECT_EQ(delivered, ser + cfg.wire_latency);
}

TEST(Fabric, EgressCallbackBeforeDelivery) {
  sim::Engine e;
  Fabric fabric(e, 2);
  Time egress = -1, delivery = -1;
  fabric.attach(1, [&](const WireChunk&) { delivery = e.now(); });
  fabric.send(make_chunk(0, 1, 65536, 1), [&] { egress = e.now(); });
  e.run();
  EXPECT_GT(egress, 0);
  EXPECT_GT(delivery, egress);
}

TEST(Fabric, PipelinedChunksSustainLinkRate) {
  sim::Engine e;
  FabricConfig cfg;
  cfg.per_chunk_overhead = 0;
  Fabric fabric(e, 2, cfg);
  Time last_delivery = 0;
  int delivered = 0;
  fabric.attach(1, [&](const WireChunk&) {
    ++delivered;
    last_delivery = e.now();
  });
  constexpr int kChunks = 64;
  constexpr std::uint64_t kBytes = 10240;
  for (int i = 0; i < kChunks; ++i) fabric.send(make_chunk(0, 1, kBytes, i));
  e.run();
  EXPECT_EQ(delivered, kChunks);
  // Steady state: one serialize per chunk + the switch latency.
  const Dur ser = transfer_time(kBytes, cfg.link_bytes_per_sec);
  const Dur expected = kChunks * ser + cfg.wire_latency;
  EXPECT_NEAR(static_cast<double>(last_delivery), static_cast<double>(expected),
              static_cast<double>(ser));
}

TEST(Fabric, IncastContendsAtDestinationPort) {
  sim::Engine e;
  FabricConfig cfg;
  cfg.per_chunk_overhead = 0;
  Fabric fabric(e, 3, cfg);
  Time last = 0;
  fabric.attach(2, [&](const WireChunk&) { last = e.now(); });
  // Two sources each send one 1 MiB chunk... (chunk caps don't apply at
  // fabric level) to the same destination; ingress must serialize them.
  fabric.send(make_chunk(0, 2, 1_MiB, 1));
  fabric.send(make_chunk(1, 2, 1_MiB, 2));
  e.run();
  const Dur ser = transfer_time(1_MiB, cfg.link_bytes_per_sec);
  // Both egress in parallel (cut-through heads arrive together), but the
  // destination port drains them serially: total ≈ 2 serial ingress.
  EXPECT_GE(last, 2 * ser);
  EXPECT_LT(last, 3 * ser + 2 * cfg.wire_latency);
}

TEST(Fabric, CountsTraffic) {
  sim::Engine e;
  Fabric fabric(e, 2);
  fabric.attach(1, [](const WireChunk&) {});
  fabric.send(make_chunk(0, 1, 1000, 1));
  fabric.send(make_chunk(0, 1, 2000, 2));
  e.run();
  EXPECT_EQ(fabric.chunks_sent(), 2u);
  EXPECT_EQ(fabric.bytes_sent(), 3000u);
}

TEST(Sdma, RejectsOversizedDescriptor) {
  sim::Engine e;
  Fabric fabric(e, 2);
  SdmaConfig cfg;
  SdmaEngine eng(e, fabric, cfg, 0);
  SdmaRequest req;
  req.descriptors = {{0x1000, 16384}};  // > 10240 cap
  EXPECT_EQ(eng.submit(std::move(req)).error(), Errno::einval);
  SdmaRequest empty;
  EXPECT_EQ(eng.submit(std::move(empty)).error(), Errno::einval);
}

TEST(Sdma, RingBackpressure) {
  sim::Engine e;
  Fabric fabric(e, 2);
  fabric.attach(1, [](const WireChunk&) {});
  SdmaConfig cfg;
  cfg.ring_slots = 4;
  SdmaEngine eng(e, fabric, cfg, 0);
  SdmaRequest req;
  for (int i = 0; i < 5; ++i) req.descriptors.push_back({0x1000, 4096});
  req.header = make_chunk(0, 1, 5 * 4096, 1).msg;
  EXPECT_EQ(eng.submit(std::move(req)).error(), Errno::eagain);
  EXPECT_EQ(eng.ring_free(), 4u);
}

TEST(Sdma, ProcessesRequestAndCompletes) {
  sim::Engine e;
  Fabric fabric(e, 2);
  fabric.attach(1, [](const WireChunk&) {});
  SdmaEngine eng(e, fabric, {}, 0);
  bool completed = false;
  SdmaRequest req;
  req.descriptors = {{0x1000, 4096}, {0x2000, 4096}, {0x3000, 2048}};
  req.header = make_chunk(0, 1, 10240, 7).msg;
  req.on_complete = [&] { completed = true; };
  ASSERT_TRUE(eng.submit(std::move(req)).ok());
  e.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(eng.requests_completed(), 1u);
  EXPECT_EQ(eng.descriptors_issued(), 3u);
  EXPECT_EQ(eng.descriptor_bytes(), 10240u);
  EXPECT_EQ(eng.ring_free(), SdmaConfig{}.ring_slots);
}

TEST(Sdma, FewerDescriptorsFinishSooner) {
  // The §3.4 effect in isolation: same bytes, 4 KiB vs 10 KiB descriptors.
  auto run_with = [](std::uint32_t desc_bytes) {
    sim::Engine e;
    Fabric fabric(e, 2);
    fabric.attach(1, [](const WireChunk&) {});
    SdmaConfig cfg;
    cfg.ring_slots = 512;  // room for 1 MiB of 4 KiB descriptors
    SdmaEngine eng(e, fabric, cfg, 0);
    constexpr std::uint64_t kTotal = 1_MiB;
    Time done = 0;
    std::uint64_t left = kTotal;
    SdmaRequest req;
    while (left > 0) {
      const std::uint32_t piece = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(left, desc_bytes));
      req.descriptors.push_back({0x1000, piece});
      left -= piece;
    }
    req.header = make_chunk(0, 1, kTotal, 1).msg;
    req.on_complete = [&] { done = e.now(); };
    // Large request: ring is 128 slots; split into submissions if needed.
    EXPECT_TRUE(eng.submit(std::move(req)).ok());
    e.run();
    return done;
  };
  const Time t4k = run_with(4096);
  const Time t10k = run_with(10240);
  EXPECT_LT(t10k, t4k);
  EXPECT_GT(static_cast<double>(t4k) / static_cast<double>(t10k), 1.05);
}

TEST(RcvArrayTest, ProgramUnprogram) {
  RcvArray arr(4);
  auto tid = arr.program(0, 0x1000, 4096);
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(arr.in_use(), 1u);
  const TidEntry* e = arr.entry(*tid);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pa, 0x1000u);
  EXPECT_TRUE(arr.unprogram(0, *tid).ok());
  EXPECT_EQ(arr.entry(*tid), nullptr);
  EXPECT_EQ(arr.in_use(), 0u);
}

TEST(RcvArrayTest, ExhaustionAndOwnership) {
  RcvArray arr(2);
  auto a = arr.program(0, 0x1000, 4096);
  auto b = arr.program(1, 0x2000, 4096);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(arr.program(0, 0x3000, 4096).error(), Errno::enospc);
  // Wrong owner cannot unprogram.
  EXPECT_EQ(arr.unprogram(0, *b).error(), Errno::einval);
  EXPECT_EQ(arr.unprogram_all(1), 1u);
  EXPECT_TRUE(arr.program(0, 0x3000, 4096).ok());
}

TEST(RcvArrayTest, FreshArrayHasNoValidEntry) {
  // A fresh array has handed out no TID: no index up to its capacity may
  // read as an entry or be unprogrammed, whichever context (0 included)
  // asks.
  RcvArray arr(HfiConfig{}.rcv_array_entries);
  for (std::uint32_t tid = 0; tid < arr.capacity(); ++tid) {
    ASSERT_EQ(arr.entry(tid), nullptr) << tid;
    ASSERT_EQ(arr.unprogram(0, tid).error(), Errno::einval) << tid;
    ASSERT_EQ(arr.unprogram(-1, tid).error(), Errno::einval) << tid;
  }
  EXPECT_EQ(arr.in_use(), 0u);
  EXPECT_EQ(arr.unprogram_all(0), 0u);
}

TEST(RcvArrayTest, ChurnReusesFreedTids) {
  // Freed TIDs are handed out again before any fresh one: a context that
  // never holds more than three entries only ever sees TIDs 0-2, however
  // long it churns through a table of the hardware's size.
  auto churn = [](RcvArray& arr, int rounds) {
    std::deque<std::uint32_t> live;
    for (int round = 0; round < rounds; ++round) {
      if (live.size() == 3) {
        ASSERT_TRUE(arr.unprogram(0, live.front()).ok()) << round;
        live.pop_front();
      }
      auto tid = arr.program(0, 0x1000, 4096);
      ASSERT_TRUE(tid.ok()) << round;
      ASSERT_LT(*tid, 3u) << round;
      live.push_back(*tid);
    }
    EXPECT_EQ(arr.in_use(), 3u);
  };
  RcvArray big(HfiConfig{}.rcv_array_entries);
  ASSERT_NO_FATAL_FAILURE(churn(big, 10'000));

  // After the same churn a small array still fills to capacity, with
  // distinct TIDs below it, and then refuses with ENOSPC.
  RcvArray small(6);
  ASSERT_NO_FATAL_FAILURE(churn(small, 10'000));
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto tid = small.program(1, 0x1000, 4096);
    ASSERT_TRUE(tid.ok()) << i;
    EXPECT_LT(*tid, small.capacity());
    seen.insert(*tid);
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(small.in_use(), small.capacity());
  EXPECT_EQ(small.program(1, 0x1000, 4096).error(), Errno::enospc);
  EXPECT_EQ(small.unprogram_all(0), 3u);
  EXPECT_EQ(small.unprogram_all(1), 3u);
  EXPECT_EQ(small.in_use(), 0u);
}

TEST(RcvArrayTest, RejectsZeroLength) {
  RcvArray arr(2);
  EXPECT_EQ(arr.program(0, 0x1000, 0).error(), Errno::einval);
}

TEST(HfiDeviceTest, PioDeliversToContext) {
  sim::Engine e;
  Fabric fabric(e, 2);
  HfiDevice a(e, fabric, 0), b(e, fabric, 1);
  auto& rx = b.open_context(3);
  std::vector<RxEvent> events;
  sim::spawn(e, [](sim::Channel<RxEvent>& ch, std::vector<RxEvent>& out) -> sim::Task<> {
    out.push_back(co_await ch.recv());
  }(rx, events));

  WireMessage msg;
  msg.src_node = 0;
  msg.dst_node = 1;
  msg.dst_ctxt = 3;
  msg.kind = WireKind::eager;
  msg.match_bits = 0xBEEF;
  msg.payload_bytes = 1024;
  msg.seq = 1;
  ASSERT_TRUE(a.pio_send(msg).ok());
  e.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].match_bits, 0xBEEFu);
  EXPECT_EQ(events[0].bytes, 1024u);
  EXPECT_EQ(events[0].kind, WireKind::eager);
}

TEST(HfiDeviceTest, PioRejectsOversize) {
  sim::Engine e;
  Fabric fabric(e, 1);
  HfiDevice dev(e, fabric, 0);
  WireMessage msg;
  msg.payload_bytes = dev.config().pio_max_bytes + 1;
  EXPECT_EQ(dev.pio_send(msg).error(), Errno::einval);
}

TEST(HfiDeviceTest, SdmaMultiChunkReassembly) {
  sim::Engine e;
  Fabric fabric(e, 2);
  HfiDevice a(e, fabric, 0), b(e, fabric, 1);
  auto& rx = b.open_context(0);
  std::vector<RxEvent> events;
  sim::spawn(e, [](sim::Channel<RxEvent>& ch, std::vector<RxEvent>& out) -> sim::Task<> {
    out.push_back(co_await ch.recv());
  }(rx, events));

  SdmaRequest req;
  for (int i = 0; i < 13; ++i) req.descriptors.push_back({0x1000, 10240});
  req.header.src_node = 0;
  req.header.dst_node = 1;
  req.header.dst_ctxt = 0;
  req.header.kind = WireKind::expected;
  req.header.payload_bytes = 13 * 10240;
  req.header.seq = 42;
  req.header.tid = 5;
  ASSERT_TRUE(a.engine(a.pick_engine()).submit(std::move(req)).ok());
  e.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, 13u * 10240u);
  EXPECT_EQ(events[0].tid, 5u);
  EXPECT_EQ(b.rx_messages(), 1u);
}

TEST(HfiDeviceTest, ClosedContextDrops) {
  sim::Engine e;
  Fabric fabric(e, 2);
  HfiDevice a(e, fabric, 0), b(e, fabric, 1);
  WireMessage msg;
  msg.src_node = 0;
  msg.dst_node = 1;
  msg.dst_ctxt = 9;  // never opened
  msg.payload_bytes = 64;
  msg.seq = 1;
  ASSERT_TRUE(a.pio_send(msg).ok());
  e.run();
  EXPECT_EQ(b.rx_messages(), 0u);
  EXPECT_EQ(b.dropped_messages(), 1u);
}

TEST(HfiDeviceTest, PickEngineRoundRobin) {
  sim::Engine e;
  Fabric fabric(e, 1);
  HfiDevice dev(e, fabric, 0);
  const int n = dev.num_engines();
  EXPECT_EQ(n, 16);
  for (int i = 0; i < 2 * n; ++i) EXPECT_EQ(dev.pick_engine(), i % n);
}

TEST(HfiDeviceTest, InterleavedMessagesFromTwoSources) {
  sim::Engine e;
  Fabric fabric(e, 3);
  HfiDevice a(e, fabric, 0), b(e, fabric, 1), c(e, fabric, 2);
  auto& rx = c.open_context(0);
  std::vector<RxEvent> events;
  sim::spawn(e, [](sim::Channel<RxEvent>& ch, std::vector<RxEvent>& out) -> sim::Task<> {
    for (int i = 0; i < 2; ++i) out.push_back(co_await ch.recv());
  }(rx, events));

  for (HfiDevice* src : {&a, &b}) {
    SdmaRequest req;
    for (int i = 0; i < 4; ++i) req.descriptors.push_back({0x1000, 4096});
    req.header.src_node = src->node_id();
    req.header.dst_node = 2;
    req.header.dst_ctxt = 0;
    req.header.kind = WireKind::eager;
    req.header.payload_bytes = 4 * 4096;
    req.header.seq = 100 + static_cast<std::uint64_t>(src->node_id());
    ASSERT_TRUE(src->engine(0).submit(std::move(req)).ok());
  }
  e.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].bytes, 4u * 4096u);
  EXPECT_EQ(events[1].bytes, 4u * 4096u);
  EXPECT_NE(events[0].src_node, events[1].src_node);
}

}  // namespace
}  // namespace pd::hw
