// Collective-algorithm equivalence properties (ISSUE 10).
//
// Each mpirt collective algorithm must be message-equivalent to its
// textbook reference: for a world of P single-rank nodes (so the leader
// phase IS the whole collective), every rank's posted message and byte
// totals must match what the algorithm's specification says, and every
// rank must run to completion. References are computed independently here
// from the textbook shapes (dissemination, MPICH recursive doubling with
// the non-power-of-two fold, ring reduce-scatter+allgather, binomial
// trees, pipelined chains, spread/pairwise alltoall).
//
// Also pinned: the size/leader-count crossover picks the intended
// algorithm (checked both through the pure selection functions and through
// the per-call algorithm tags recorded into MpiStats), and hierarchical
// (rpn > 1) and odd-shaped worlds complete under every forced algorithm.
//
// Determinism: fixed default seed, overridable with PD_PROPERTY_SEED; a
// failure prints the seed. Run with `ctest -L property` (also `-L noise`:
// this is the collective-algorithm half of the noise-study machinery).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/mpirt/world.hpp"

namespace pd::mpirt {
namespace {

using namespace pd::time_literals;

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0xC0117EC7ull;
}

std::string repro(std::uint64_t seed) {
  return "\n  reproduce with PD_PROPERTY_SEED=" + std::to_string(seed);
}

struct Traffic {
  std::uint64_t smsgs = 0, sbytes = 0, rmsgs = 0, rbytes = 0;
  bool operator==(const Traffic&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Traffic& t) {
  return os << "{s " << t.smsgs << "/" << t.sbytes << " r " << t.rmsgs << "/"
            << t.rbytes << "}";
}

ClusterOptions small_cluster(int nodes) {
  ClusterOptions o;
  o.nodes = nodes;
  o.mcdram_bytes = 256ull << 20;
  o.ddr_bytes = 1ull << 30;
  return o;
}

/// Run `coll` once on a P-node, 1-rank-per-node world with the given
/// tuning and return each rank's message/byte traffic attributable to it.
std::vector<Traffic> measure(int P, const CollectiveTuning& tuning,
                             const std::function<sim::Task<>(Rank&)>& coll) {
  Cluster cluster(small_cluster(P));
  WorldOptions wopts;
  wopts.ranks_per_node = 1;
  wopts.buf_bytes = 8ull << 20;
  wopts.tuning = tuning;
  MpiWorld world(cluster, wopts);
  std::vector<Traffic> out(static_cast<std::size_t>(P));
  int done = 0;
  world.run([&](Rank& rank) -> sim::Task<> {
    co_await rank.init();
    co_await rank.barrier();  // quiesce init-time traffic
    const Traffic before{rank.sent_msgs(), rank.sent_bytes(), rank.recvd_msgs(),
                         rank.recvd_bytes()};
    co_await coll(rank);
    out[static_cast<std::size_t>(rank.id())] =
        Traffic{rank.sent_msgs() - before.smsgs, rank.sent_bytes() - before.sbytes,
                rank.recvd_msgs() - before.rmsgs, rank.recvd_bytes() - before.rbytes};
    co_await rank.finalize();
    ++done;
  });
  EXPECT_EQ(done, P);
  return out;
}

// ---------------------------------------------------------------------------
// Textbook reference models (per-rank totals, world of P leaders).
// ---------------------------------------------------------------------------

std::vector<Traffic> ref_dissemination(int P, std::uint64_t bytes) {
  std::uint64_t rounds = 0;
  for (int step = 1; step < P; step <<= 1) ++rounds;
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  for (auto& r : t) r = {rounds, rounds * bytes, rounds, rounds * bytes};
  return t;
}

std::vector<Traffic> ref_recursive_doubling(int P, std::uint64_t bytes) {
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  if (P < 2) return t;
  int pow2 = 1;
  while (pow2 * 2 <= P) pow2 *= 2;
  const int rem = P - pow2;
  std::uint64_t rounds = 0;
  for (int mask = 1; mask < pow2; mask <<= 1) ++rounds;
  for (int v = 0; v < P; ++v) {
    Traffic& r = t[static_cast<std::size_t>(v)];
    bool exchanges = true;
    if (v < 2 * rem) {
      // Fold: odd vnodes hand their vector to the even partner and sit out
      // the exchange, receiving the result back in the unfold.
      if (v & 1) {
        r.smsgs += 1;
        r.rmsgs += 1;
        exchanges = false;
      } else {
        r.rmsgs += 1;
        r.smsgs += 1;
      }
    }
    if (exchanges) {
      r.smsgs += rounds;
      r.rmsgs += rounds;
    }
    r.sbytes = r.smsgs * bytes;
    r.rbytes = r.rmsgs * bytes;
  }
  return t;
}

std::vector<Traffic> ref_ring(int P, std::uint64_t bytes) {
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  if (P < 2) return t;
  const std::uint64_t chunk =
      (bytes + static_cast<std::uint64_t>(P) - 1) / static_cast<std::uint64_t>(P);
  const auto steps = static_cast<std::uint64_t>(2 * (P - 1));
  for (auto& r : t) r = {steps, steps * chunk, steps, steps * chunk};
  return t;
}

/// Binomial tree rooted at vnode 0: the standard mask walk.
std::vector<Traffic> ref_binomial_bcast(int P, std::uint64_t bytes) {
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  for (int v = 0; v < P; ++v) {
    Traffic& r = t[static_cast<std::size_t>(v)];
    int mask = 1;
    while (mask < P) {
      if (v & mask) {
        r.rmsgs += 1;  // receive from v - mask, then forward below
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (v + mask < P && (v & mask) == 0) r.smsgs += 1;
      mask >>= 1;
    }
    r.sbytes = r.smsgs * bytes;
    r.rbytes = r.rmsgs * bytes;
  }
  return t;
}

/// Pipelined chain bcast: the root streams down the chain, and every link
/// carries the full payload once, in ceil(bytes/seg) segments.
std::vector<Traffic> ref_chain(int P, std::uint64_t bytes, std::uint64_t seg_bytes) {
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  if (P < 2) return t;
  const std::uint64_t seg =
      std::max<std::uint64_t>(1, std::min(seg_bytes, bytes));
  const std::uint64_t nseg = (bytes + seg - 1) / seg;
  for (int v = 0; v < P; ++v) {
    Traffic& r = t[static_cast<std::size_t>(v)];
    if (v + 1 < P) {  // link toward the tail
      r.smsgs = nseg;
      r.sbytes = bytes;
    }
    if (v > 0) {  // link from the head
      r.rmsgs = nseg;
      r.rbytes = bytes;
    }
  }
  return t;
}

std::vector<Traffic> ref_alltoall(int P, std::uint64_t bytes_per_pair) {
  std::vector<Traffic> t(static_cast<std::size_t>(P));
  const auto peers = static_cast<std::uint64_t>(P - 1);
  for (auto& r : t)
    r = {peers, peers * bytes_per_pair, peers, peers * bytes_per_pair};
  return t;
}

void expect_traffic_eq(const std::vector<Traffic>& got,
                       const std::vector<Traffic>& want, const std::string& what,
                       std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << what << repro(seed);
  for (std::size_t v = 0; v < got.size(); ++v)
    EXPECT_EQ(got[v], want[v]) << what << " rank " << v << repro(seed);
}

// ---------------------------------------------------------------------------
// Property: each algorithm ≡ its textbook reference.
// ---------------------------------------------------------------------------

std::vector<int> world_shapes(Rng& rng) {
  // Powers of two, odd sizes, and a seeded extra so the non-power-of-two
  // folds and ragged rings get fresh shapes every seed.
  return {2, 3, 4, 8, 5 + static_cast<int>(rng.next_below(6))};
}

TEST(CollectiveEquivalence, AllreduceAlgorithmsMatchTextbook) {
  const std::uint64_t seed = harness_seed();
  Rng rng(seed);
  for (int P : world_shapes(rng)) {
    const std::uint64_t bytes = 1 + rng.next_below(64_KiB);
    for (const char* algo : {"dissemination", "recursive_doubling", "ring"}) {
      CollectiveTuning tuning;
      tuning.force_allreduce = algo;
      auto got = measure(P, tuning, [bytes](Rank& r) { return r.allreduce(bytes); });
      const auto want = std::string(algo) == "ring"
                            ? ref_ring(P, bytes)
                            : (std::string(algo) == "recursive_doubling"
                                   ? ref_recursive_doubling(P, bytes)
                                   : ref_dissemination(P, bytes));
      expect_traffic_eq(got, want,
                        "allreduce/" + std::string(algo) + " P=" + std::to_string(P) +
                            " bytes=" + std::to_string(bytes),
                        seed);
    }
  }
}

TEST(CollectiveEquivalence, BcastAlgorithmsMatchTextbook) {
  const std::uint64_t seed = harness_seed();
  Rng rng(seed);
  for (int P : world_shapes(rng)) {
    const std::uint64_t bytes = 1 + rng.next_below(256_KiB);
    CollectiveTuning tuning;
    tuning.force_bcast = "binomial";
    auto got = measure(P, tuning, [bytes](Rank& r) { return r.bcast(0, bytes); });
    expect_traffic_eq(got, ref_binomial_bcast(P, bytes),
                      "bcast/binomial P=" + std::to_string(P), seed);

    tuning.force_bcast = "chain";
    tuning.chain_segment_bytes = 1 + rng.next_below(32_KiB);
    got = measure(P, tuning, [bytes](Rank& r) { return r.bcast(0, bytes); });
    expect_traffic_eq(
        got, ref_chain(P, bytes, tuning.chain_segment_bytes),
        "bcast/chain P=" + std::to_string(P) + " seg=" +
            std::to_string(tuning.chain_segment_bytes),
        seed);
  }
}

TEST(CollectiveEquivalence, AlltoallAlgorithmsMatchTextbook) {
  const std::uint64_t seed = harness_seed();
  Rng rng(seed);
  for (int P : world_shapes(rng)) {
    const std::uint64_t bytes = 1 + rng.next_below(16_KiB);
    for (const char* algo : {"spread", "pairwise"}) {
      CollectiveTuning tuning;
      tuning.force_alltoall = algo;
      auto got = measure(P, tuning, [bytes](Rank& r) { return r.alltoall(bytes); });
      expect_traffic_eq(got, ref_alltoall(P, bytes),
                        "alltoall/" + std::string(algo) + " P=" + std::to_string(P),
                        seed);
    }
  }
}

// ---------------------------------------------------------------------------
// The size/rank-count crossover picks the intended algorithm.
// ---------------------------------------------------------------------------

TEST(CollectiveCrossover, SelectionFunctionsHonorSizeAndShape) {
  Cluster cluster(small_cluster(8));
  WorldOptions wopts;
  wopts.ranks_per_node = 1;
  MpiWorld world(cluster, wopts);
  const CollectiveTuning t;  // defaults

  // Allreduce ladder: latency-bound -> vector -> bandwidth-bound.
  EXPECT_STREQ(world.allreduce_algo(8), "dissemination");
  EXPECT_STREQ(world.allreduce_algo(t.allreduce_rd_bytes - 1), "dissemination");
  EXPECT_STREQ(world.allreduce_algo(t.allreduce_rd_bytes), "recursive_doubling");
  EXPECT_STREQ(world.allreduce_algo(t.allreduce_ring_bytes - 1),
               "recursive_doubling");
  EXPECT_STREQ(world.allreduce_algo(t.allreduce_ring_bytes), "ring");

  // Bcast: binomial until the payload fills a pipeline.
  EXPECT_STREQ(world.bcast_algo(64_KiB), "binomial");
  EXPECT_STREQ(world.bcast_algo(t.bcast_chain_bytes), "chain");

  // Alltoall: spread posts up to the SDMA threshold, pairwise beyond.
  EXPECT_STREQ(world.alltoall_algo(4_KiB, 64_KiB), "spread");
  EXPECT_STREQ(world.alltoall_algo(64_KiB, 64_KiB), "spread");
  EXPECT_STREQ(world.alltoall_algo(64_KiB + 1, 64_KiB), "pairwise");

  // Small communicators must not pick the scale-dependent algorithms.
  Cluster small(small_cluster(2));
  MpiWorld narrow(small, wopts);
  EXPECT_STREQ(narrow.allreduce_algo(t.allreduce_ring_bytes),
               "recursive_doubling");  // < ring_min_leaders
  EXPECT_STREQ(narrow.bcast_algo(t.bcast_chain_bytes), "binomial");
}

TEST(CollectiveCrossover, RecordedAlgoTagsMatchTheSelection) {
  Cluster cluster(small_cluster(4));
  WorldOptions wopts;
  wopts.ranks_per_node = 2;
  wopts.buf_bytes = 8ull << 20;
  wopts.tuning.allreduce_ring_min_leaders = 4;
  MpiWorld world(cluster, wopts);
  world.run([](Rank& rank) -> sim::Task<> {
    co_await rank.init();
    co_await rank.allreduce(64);                                  // dissemination
    co_await rank.allreduce(4_KiB);                               // recursive doubling
    co_await rank.allreduce(512_KiB);                             // ring
    co_await rank.allreduce(512_KiB);                             // ring again
    co_await rank.alltoall(1_KiB);                                // spread
    co_await rank.alltoall(128_KiB);                              // pairwise
    co_await rank.finalize();
  });
  const MpiStatsTable table = world.stats_table();
  const std::uint64_t P = 8;  // every rank tags every collective call
  EXPECT_EQ(table.algo_count("Allreduce", "dissemination"), P);
  EXPECT_EQ(table.algo_count("Allreduce", "recursive_doubling"), P);
  EXPECT_EQ(table.algo_count("Allreduce", "ring"), 2 * P);
  EXPECT_EQ(table.algo_count("Alltoall", "spread"), P);
  EXPECT_EQ(table.algo_count("Alltoall", "pairwise"), P);
  EXPECT_EQ(table.algo_count("Allreduce", "no_such_algo"), 0u);
}

// ---------------------------------------------------------------------------
// Hierarchical and odd-shaped worlds complete under every forced algorithm.
// ---------------------------------------------------------------------------

TEST(CollectiveCompletion, HierarchicalOddShapesCompleteUnderEveryAlgorithm) {
  const std::uint64_t seed = harness_seed();
  Rng rng(seed ^ 0xD1CEull);
  struct Shape {
    int nodes;
    int rpn;
  };
  const Shape shapes[] = {{3, 3}, {5, 2}, {4, 1 + static_cast<int>(rng.next_below(4))}};
  for (const Shape& s : shapes) {
    for (const char* algo : {"dissemination", "recursive_doubling", "ring"}) {
      Cluster cluster(small_cluster(s.nodes));
      WorldOptions wopts;
      wopts.ranks_per_node = s.rpn;
      wopts.buf_bytes = 8ull << 20;
      wopts.tuning.force_allreduce = algo;
      wopts.tuning.force_bcast = "chain";
      MpiWorld world(cluster, wopts);
      int done = 0;
      const std::uint64_t bytes = 1 + rng.next_below(128_KiB);
      world.run([&](Rank& rank) -> sim::Task<> {
        co_await rank.init();
        co_await rank.allreduce(bytes);
        co_await rank.bcast(1 % world.size(), bytes);
        co_await rank.alltoall(1 + bytes / 16);
        co_await rank.barrier();
        co_await rank.finalize();
        ++done;
      });
      EXPECT_EQ(done, s.nodes * s.rpn)
          << algo << " nodes=" << s.nodes << " rpn=" << s.rpn << repro(seed);
    }
  }
}

}  // namespace
}  // namespace pd::mpirt
