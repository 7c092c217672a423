// Weighted-fair drain properties.
//
// The fair drain decides *which ring head* a service loop claims next (per-
// job virtual time, then class, then age) but must not change *what* the
// transport does. Seeded multi-tenant streams are checked against an oracle
// built from the script and the service-side execution log:
//
//   (a) Every offload returns what its script says (the payload, or EIO),
//       every scripted service executes exactly once, and within one
//       (rank, priority) pair services execute in submission order — the
//       per-(channel, class) FIFO contract, since each rank submits on one
//       channel.
//   (b) The set of (job, rank, op) executions and each job's completed
//       count are exactly the script's.
//   (c) One tenant funneled onto one ring ties on vtime everywhere, so
//       every drained batch runs all of its control requests before any of
//       its bulk requests.
//
// A fourth property pins the weighted share itself: two saturating tenants
// with weights 2:1 on one service loop must complete claims in ~2:1.
//
// Determinism: fixed default seed, overridable with PD_PROPERTY_SEED; a
// failure prints the seed. Run with `ctest -L qos` (also `property`, `ikc`).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/ikc/transport.hpp"
#include "src/os/kernel.hpp"

namespace pd::ikc {
namespace {

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0xFA137EA5ull;
}

constexpr int kJobs = 6;
constexpr int kRanksPerJob = 2;
constexpr int kOpsPerRank = 25;
constexpr int kRanks = kJobs * kRanksPerJob;

struct Op {
  Priority prio = Priority::bulk;
  Dur work = 0;
  Dur gap = 0;
  long payload = 0;
  bool fail = false;
};

using Scripts = std::vector<std::vector<Op>>;

struct ExecutionRecord {
  int job;
  int rank;  // global rank id (also the channel hint)
  int op_index;
  Priority prio;
  std::uint64_t batch;  // ikc.ring.batch_drain when the service ran
};

struct RunResult {
  // results[rank][op] — what the submitter got back.
  std::vector<std::vector<long>> results;
  std::vector<std::vector<Errno>> errors;
  std::vector<ExecutionRecord> executed;  // service-side, in execution order
  std::vector<std::uint64_t> completed_per_job;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded = 0;
};

int job_of(int rank, bool single_job) { return single_job ? 0 : rank / kRanksPerJob; }

sim::Task<> drive_rank(sim::Engine& engine, IkcTransport& transport,
                       const os::SyscallProfiler& prof, const std::vector<Op>& script, int job,
                       int rank, int channel, RunResult& out) {
  for (int k = 0; k < static_cast<int>(script.size()); ++k) {
    const Op& op = script[static_cast<std::size_t>(k)];
    auto r = co_await transport.offload(
        [&engine, &prof, &op, &out, job, rank, k]() -> sim::Task<Result<long>> {
          co_await engine.delay(op.work);
          // The service loop bumps batch_drain once before running a batch,
          // so the counter is the id of the batch this service belongs to.
          out.executed.push_back(
              {job, rank, k, op.prio, prof.counter("ikc.ring.batch_drain")});
          if (op.fail) co_return Errno::eio;
          co_return op.payload;
        },
        op.prio, channel, static_cast<JobId>(job));
    out.results[static_cast<std::size_t>(rank)].push_back(r.ok() ? *r : -1);
    out.errors[static_cast<std::size_t>(rank)].push_back(r.error());
    co_await engine.delay(op.gap);
  }
}

/// Drive a scripted stream through the ring transport.
/// `shared_channel` >= 0 funnels every rank onto that one ring;
/// `single_job` tags every rank with job 0 (the single-tenant case).
/// `atomic_collect` zeroes the lock hand-off and cross-socket drain costs
/// so batch collection takes no simulated time. With nonzero costs a
/// control request can *arrive mid-collection*, after a bulk head was
/// already claimed, and the per-claim re-scan claims it in the same batch —
/// so per-batch class order is only pinned where collection is atomic.
RunResult run_stream(const Scripts& scripts, int shared_channel = -1, bool single_job = false,
                     bool atomic_collect = false) {
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  if (atomic_collect) {
    cfg.ikc_lock_cost = 0;
    cfg.ikc_remote_drain_cost = 0;
  }
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  Samples queueing;
  IkcTransport transport(engine, cfg, linux_kernel.service_cpus(),
                         linux_kernel.profiler(), queueing, linux_kernel.spinlock_abi());

  RunResult out;
  out.results.resize(kRanks);
  out.errors.resize(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    const int channel = shared_channel >= 0 ? shared_channel : rank;
    sim::spawn(engine, drive_rank(engine, transport, linux_kernel.profiler(),
                                  scripts[static_cast<std::size_t>(rank)],
                                  job_of(rank, single_job), rank, channel, out));
  }
  engine.run();
  out.timeouts = linux_kernel.profiler().counter("ikc.ring.timeout");
  out.degraded = linux_kernel.profiler().counter("ikc.ring.degraded");
  out.completed_per_job.resize(kJobs, 0);
  for (int j = 0; j < kJobs; ++j)
    if (const auto* s = transport.job_stats(static_cast<JobId>(j)))
      out.completed_per_job[static_cast<std::size_t>(j)] = s->completed;
  return out;
}

Scripts make_scripts(std::uint64_t seed) {
  Rng rng(seed);
  Scripts scripts(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    Rng stream = rng.fork();
    for (int k = 0; k < kOpsPerRank; ++k) {
      Op op;
      op.prio = stream.next_below(4) == 0 ? Priority::control : Priority::bulk;
      op.work = from_us(stream.uniform(0.5, 5.0));
      op.gap = from_us(stream.uniform(1.0, 30.0));
      op.payload = static_cast<long>(r) * 1000 + k;
      op.fail = stream.next_below(16) == 0;
      scripts[static_cast<std::size_t>(r)].push_back(op);
    }
  }
  return scripts;
}

/// Property (a): per-op results from the script, exactly-once execution
/// and per-(rank, class) FIFO from the execution log.
void expect_matches_script(const RunResult& run, const Scripts& scripts) {
  // Happy path: a timeout would re-route through the direct fallback and
  // muddy every ordering claim below.
  EXPECT_EQ(run.timeouts, 0u);
  EXPECT_EQ(run.degraded, 0u);

  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(run.results[r].size(), static_cast<std::size_t>(kOpsPerRank));
    for (int k = 0; k < kOpsPerRank; ++k) {
      const Op& op = scripts[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)];
      EXPECT_EQ(run.results[r][k], op.fail ? -1 : op.payload)
          << "rank " << r << " op " << k << " returned the wrong value";
      EXPECT_EQ(run.errors[r][k], op.fail ? Errno::eio : Errno::ok)
          << "rank " << r << " op " << k << " returned the wrong errno";
    }
  }

  ASSERT_EQ(run.executed.size(), static_cast<std::size_t>(kRanks * kOpsPerRank));
  std::vector<std::vector<int>> seen(kRanks, std::vector<int>(kOpsPerRank, 0));
  for (const auto& e : run.executed) ++seen[e.rank][e.op_index];
  for (int r = 0; r < kRanks; ++r)
    for (int k = 0; k < kOpsPerRank; ++k)
      EXPECT_EQ(seen[r][k], 1) << "rank " << r << " op " << k << " executed "
                               << seen[r][k] << " times";

  // Each rank submits in increasing op order, so per (rank, class) the
  // execution log must be increasing.
  std::vector<int> last_control(kRanks, -1), last_bulk(kRanks, -1);
  for (const auto& e : run.executed) {
    auto& last = e.prio == Priority::control ? last_control : last_bulk;
    EXPECT_LT(last[e.rank], e.op_index)
        << "FIFO violated for rank " << e.rank << " ("
        << (e.prio == Priority::control ? "control" : "bulk") << ")";
    last[e.rank] = e.op_index;
  }
}

TEST(IkcFairnessProperty, EqualWeightsMatchScriptOracle) {
  const std::uint64_t seed = harness_seed();
  SCOPED_TRACE(::testing::Message() << "PD_PROPERTY_SEED=" << seed);
  const auto scripts = make_scripts(seed);
  expect_matches_script(run_stream(scripts), scripts);
}

TEST(IkcFairnessProperty, SingleTenantBatchesClaimControlBeforeBulk) {
  // One tenant funneled onto one ring: every head carries the same job, so
  // the (vtime, class, age) key reduces to class, then age. Inside each
  // drained batch no control request may run after a bulk request.
  // Collection must be atomic (zero lock / remote costs): see run_stream's
  // doc comment for the mid-collection control arrival.
  const std::uint64_t seed = harness_seed() ^ 0x51;
  SCOPED_TRACE(::testing::Message() << "PD_PROPERTY_SEED=" << seed);
  const auto scripts = make_scripts(seed);
  const RunResult run = run_stream(scripts, /*shared_channel=*/0, /*single_job=*/true,
                                   /*atomic_collect=*/true);
  expect_matches_script(run, scripts);

  std::set<std::uint64_t> batches, with_bulk, mixed;  // batch ids
  for (const auto& e : run.executed) {
    batches.insert(e.batch);
    if (e.prio == Priority::bulk) {
      with_bulk.insert(e.batch);
      continue;
    }
    EXPECT_EQ(with_bulk.count(e.batch), 0u)
        << "control request (rank " << e.rank << ", op " << e.op_index
        << ") ran after a bulk request in batch " << e.batch;
  }
  for (const auto& e : run.executed)
    if (e.prio == Priority::control && with_bulk.count(e.batch) != 0) mixed.insert(e.batch);
  // The order check must have something to bite on: several batches, and
  // some of them carrying both classes.
  EXPECT_GT(batches.size(), 1u);
  EXPECT_GT(mixed.size(), 0u);
}

TEST(IkcFairnessProperty, CompletionSetsMatchScript) {
  const std::uint64_t seed = harness_seed() ^ 0xB2;
  SCOPED_TRACE(::testing::Message() << "PD_PROPERTY_SEED=" << seed);
  const auto scripts = make_scripts(seed);
  const RunResult run = run_stream(scripts);

  std::set<std::tuple<int, int, int>> expected, executed;
  std::vector<std::uint64_t> expected_completed(kJobs, 0);
  for (int r = 0; r < kRanks; ++r) {
    for (int k = 0; k < kOpsPerRank; ++k) {
      expected.insert({job_of(r, false), r, k});
      // JobStats counts offloads that returned a result, not EIO.
      if (!scripts[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)].fail)
        ++expected_completed[static_cast<std::size_t>(job_of(r, false))];
    }
  }
  for (const auto& e : run.executed) executed.insert({e.job, e.rank, e.op_index});
  EXPECT_EQ(executed, expected);
  for (int j = 0; j < kJobs; ++j)
    EXPECT_EQ(run.completed_per_job[j], expected_completed[j])
        << "job " << j << " completed count diverged";
}

// --- weighted share under saturation ---------------------------------------

sim::Task<> saturating_rank(sim::Engine& eng, IkcTransport& transport, JobId job,
                            int channel, const bool& stop) {
  for (int k = 0; !stop; ++k) {
    const auto prio = (k % 4 == 0) ? Priority::control : Priority::bulk;
    auto r = co_await transport.offload(
        [&eng]() -> sim::Task<Result<long>> {
          co_await eng.delay(from_us(2));
          co_return 0L;
        },
        prio, channel, job);
    (void)r;
  }
}

sim::Task<> stop_after(sim::Engine& eng, Dur horizon, bool& stop) {
  co_await eng.delay(horizon);
  stop = true;
}

TEST(IkcFairnessProperty, WeightsSplitOneLoopsCapacityProportionally) {
  // Two tenants, both saturating one service loop, with drain weights 2:1:
  // the completed-claim ratio must track the weights, not the (equal)
  // offered load. The batch limit must bind for the claim *order* to
  // matter at all — a batch large enough to claim every queued head each
  // round makes the split demand-bound — so a 4-slot ring caps the
  // adaptive drain limit at 4 while the two tenants keep up to 8 queued.
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  cfg.linux_service_cpus = 1;  // one loop owns every channel
  cfg.ikc_channels = 2;
  cfg.ikc_job_weights = {2.0, 1.0};
  cfg.ikc_ring_depth = 4;
  cfg.ikc_deadline = from_ms(100.0);  // saturation queueing is the point
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  Samples queueing;
  IkcTransport transport(engine, cfg, linux_kernel.service_cpus(),
                         linux_kernel.profiler(), queueing, linux_kernel.spinlock_abi());

  bool stop = false;
  for (int j = 0; j < 2; ++j)
    for (int s = 0; s < 4; ++s)
      sim::spawn(engine,
                 saturating_rank(engine, transport, static_cast<JobId>(j), j, stop));
  sim::spawn(engine, stop_after(engine, from_ms(4.0), stop));
  engine.run();

  const auto* heavy = transport.job_stats(0);
  const auto* light = transport.job_stats(1);
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  ASSERT_GT(light->completed, 50u) << "not saturated enough to measure shares";
  const double ratio = static_cast<double>(heavy->completed) /
                       static_cast<double>(light->completed);
  EXPECT_GT(ratio, 1.6) << "weight-2 tenant got " << heavy->completed
                        << " vs weight-1 tenant " << light->completed;
  EXPECT_LT(ratio, 2.4) << "weight-2 tenant got " << heavy->completed
                        << " vs weight-1 tenant " << light->completed;
}

}  // namespace
}  // namespace pd::ikc
