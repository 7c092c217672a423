// Unit tests for src/common: time conversion, status/result, rng
// determinism, statistics, ring buffer, and formatting.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/ring_buffer.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/status.hpp"
#include "src/common/time.hpp"
#include "src/common/units.hpp"

namespace pd {
namespace {

using namespace pd::time_literals;

TEST(Time, LiteralsScale) {
  EXPECT_EQ(1_ns, 1000_ps);
  EXPECT_EQ(1_us, 1000_ns);
  EXPECT_EQ(1_ms, 1000_us);
  EXPECT_EQ(1_s, 1000_ms);
}

TEST(Time, FractionalBuilders) {
  EXPECT_EQ(from_ns(0.5), 500);
  EXPECT_EQ(from_us(2.5), 2'500'000);
  EXPECT_DOUBLE_EQ(to_us(from_us(3.25)), 3.25);
}

TEST(Time, TransferTimeRoundsUp) {
  // 1 byte at 12.3 GB/s is ~81 ps; must not round to zero.
  EXPECT_GT(transfer_time(1, 12.3e9), 0);
  // Exact division stays exact: 1000 bytes at 1e12 B/s = 1 ns = 1000 ps.
  EXPECT_EQ(transfer_time(1000, 1e12), 1000);
  EXPECT_EQ(transfer_time(0, 1e9), 0);
}

TEST(Time, TransferTimeScalesLinearly) {
  const Dur one = transfer_time(1_MiB, 12.3e9);
  const Dur four = transfer_time(4_MiB, 12.3e9);
  EXPECT_NEAR(static_cast<double>(four), 4.0 * static_cast<double>(one), 4.0);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.error(), Errno::ok);
}

TEST(Status, CarriesErrno) {
  Status s = Errno::einval;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error(), Errno::einval);
  EXPECT_EQ(to_string(s.error()), "EINVAL");
}

TEST(Result, Value) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.error(), Errno::ok);
}

TEST(Result, Error) {
  Result<int> r = Errno::enomem;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::enomem);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(3);
  Rng child = parent.fork();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) {
    seen.insert(parent.next_u64());
    seen.insert(child.next_u64());
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Samples, Percentile) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), s.percentile(100));
}

TEST(Samples, BoundedReservoirKeepsExactAggregates) {
  Samples s(64);
  for (int i = 1; i <= 10000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_DOUBLE_EQ(s.mean(), 5000.5);
  EXPECT_DOUBLE_EQ(s.max(), 10000.0) << "the true max must survive eviction";
  // Percentiles are estimates over the 64-slot reservoir; the estimate must
  // at least land inside the sampled range and be ordered.
  const double p50 = s.percentile(50);
  EXPECT_GT(p50, 1000.0);
  EXPECT_LT(p50, 9000.0);
  EXPECT_LE(s.percentile(95), s.max());
  EXPECT_LE(p50, s.percentile(95));
}

TEST(Samples, MergeSumsCountsAndTracksMax) {
  Samples a, b;
  for (int i = 0; i < 10; ++i) a.add(1.0);
  for (int i = 0; i < 5; ++i) b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 15u);
  EXPECT_DOUBLE_EQ(a.mean(), 25.0 / 15.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(4));
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, WrapsManyTimes) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(rb.push(i));
    ASSERT_EQ(rb.pop(), i);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, ForEachVisitsQueuedItemsOldestFirst) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 5; ++i) {  // leave head and tail wrapped
    ASSERT_TRUE(rb.push(i));
    if (i < 3) {
      ASSERT_EQ(rb.pop(), i);
    }
  }
  ASSERT_TRUE(rb.push(5));
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(rb.size(), 3u) << "visiting must not consume";
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512");
  EXPECT_EQ(format_bytes(4_KiB), "4K");
  EXPECT_EQ(format_bytes(4_MiB), "4M");
  EXPECT_EQ(format_bytes(4_KiB + 1), "4097");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
}

}  // namespace
}  // namespace pd
