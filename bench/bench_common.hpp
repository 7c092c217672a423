// Shared helpers for the paper-reproduction benches.
//
// Every bench binary prints the rows of one table/figure from the paper.
// Set PD_QUICK=1 to trim sweep points (CI-friendly); the default regenerates
// the full figure.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/os/config.hpp"
#include "src/os/ihk.hpp"

namespace pd::bench {

inline bool quick_mode() {
  const char* v = std::getenv("PD_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline void print_banner(const char* figure, const char* paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

/// The paper's node-count axis (1..256); quick mode keeps a subset.
inline std::vector<int> node_axis(int max_nodes = 256, int min_nodes = 1) {
  std::vector<int> nodes;
  for (int n = min_nodes; n <= max_nodes; n *= 2) {
    if (quick_mode() && n != min_nodes && n != max_nodes && n != 8) continue;
    nodes.push_back(n);
  }
  return nodes;
}

inline const std::vector<pd::os::OsMode>& all_modes() {
  static const std::vector<pd::os::OsMode> modes = {
      pd::os::OsMode::linux, pd::os::OsMode::mckernel, pd::os::OsMode::mckernel_hfi};
  return modes;
}

/// --- offload storm harness -----------------------------------------------
/// The paper's squeeze in isolation: `ranks` LWK submitters hammering one
/// node's Ihk (no MPI, no device model), so the legacy and ring transports
/// can be compared on identical syscall streams. Every 4th offload is a
/// control-class call, the rest bulk; the channel hint is the rank id.

struct StormResult {
  std::uint64_t offloads = 0;
  double offloads_per_ms = 0;  // completed per simulated millisecond
  ikc::QueueingSummary queue;
  std::uint64_t degraded = 0;
  std::uint64_t timeouts = 0;
  double sim_ms = 0;
  // Wakeup accounting (§8.4): the return path's cost in cross-kernel
  // wakeups. `doorbells` are submit-side loop wakeups, `reply_wakeups`
  // completion-side consumer wakeups (one per drained batch per parked
  // channel, plus one per reply that finds its reply ring full).
  std::uint64_t doorbells = 0;
  std::uint64_t reply_wakeups = 0;
  // Direct-mode equivalents: one proxy wakeup per submit, one LWK wakeup
  // per reply (always zero in ring mode, and vice versa).
  std::uint64_t direct_proxy_wakeups = 0;
  std::uint64_t direct_reply_wakeups = 0;
  double wakeups_per_offload = 0;  // all wakeups / offloads, either transport
  std::uint64_t adaptive_grow = 0;
  std::uint64_t adaptive_shrink = 0;
  std::uint64_t remote_drains = 0;
};

namespace detail {
inline sim::Task<> storm_rank(sim::Engine& eng, os::Ihk& ihk, int rank, int per_rank,
                              Dur work, Dur gap) {
  for (int k = 0; k < per_rank; ++k) {
    const auto prio = (k % 4 == 0) ? ikc::Priority::control : ikc::Priority::bulk;
    auto r = co_await ihk.offload(
        [&eng, work]() -> sim::Task<Result<long>> {
          co_await eng.delay(work);
          co_return 0L;
        },
        prio, rank);
    (void)r;
    co_await eng.delay(gap);
  }
}
}  // namespace detail

inline StormResult run_offload_storm(const os::Config& cfg, int ranks, int per_rank,
                                     Dur work, Dur gap) {
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  for (int r = 0; r < ranks; ++r)
    sim::spawn(engine, detail::storm_rank(engine, ihk, r, per_rank, work, gap));
  engine.run();

  StormResult out;
  out.offloads = ihk.offload_count();
  out.queue = ihk.queueing_summary();
  out.degraded = linux_kernel.profiler().counter("ikc.ring.degraded");
  out.timeouts = linux_kernel.profiler().counter("ikc.ring.timeout");
  out.sim_ms = to_ms(engine.now());
  if (out.sim_ms > 0) out.offloads_per_ms = static_cast<double>(out.offloads) / out.sim_ms;
  out.doorbells = linux_kernel.profiler().counter("ikc.ring.doorbell");
  out.reply_wakeups = linux_kernel.profiler().counter("ikc.reply.wakeup");
  out.direct_proxy_wakeups = linux_kernel.profiler().counter("ikc.direct.proxy_wakeup");
  out.direct_reply_wakeups = linux_kernel.profiler().counter("ikc.direct.reply_wakeup");
  if (out.offloads > 0)
    out.wakeups_per_offload =
        static_cast<double>(out.doorbells + out.reply_wakeups +
                            out.direct_proxy_wakeups + out.direct_reply_wakeups) /
        static_cast<double>(out.offloads);
  out.adaptive_grow = linux_kernel.profiler().counter("ikc.adaptive.grow");
  out.adaptive_shrink = linux_kernel.profiler().counter("ikc.adaptive.shrink");
  out.remote_drains = linux_kernel.profiler().counter("ikc.numa.remote_drain");
  return out;
}

/// --- multi-tenant fairness harness ----------------------------------------
/// The overload ladder's unit of work: one tenant (job) generating a
/// saturating offload stream until a simulated-time horizon. Unlike the
/// storm above, submitters run open-ended so per-job completed counts over
/// the horizon measure the *service share* each tenant actually received —
/// the quantity Jain's index is defined over.

struct JobSpec {
  int submitters = 1;  // concurrent offload streams (≈ in-flight credit demand)
  Dur work = from_us(3);
  Dur gap = from_us(2);
};

struct JobOutcome {
  ikc::JobId job = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t eagain = 0;
  std::uint64_t credit_waits = 0;
  ikc::QueueingSummary queue;
};

struct FairnessResult {
  std::vector<JobOutcome> jobs;
  double jain = 0;       // Jain's index over per-job completed counts
  double window_ms = 0;  // measurement window the counts cover
  std::uint64_t completed_total = 0;
};

/// Jain's fairness index: (Σx)² / (n·Σx²) — 1.0 when all tenants got the
/// same share, → 1/n as one tenant monopolizes. All-zero shares are
/// universal starvation, not fairness: a rung in which no tenant completed
/// anything scores 0.0 so it can never pass the check_bench jain gates.
inline double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0, sumsq = 0;
  for (const double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq <= 0) return 0.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sumsq);
}

namespace detail {
// Channel hint = job id: each tenant submits from its own LWK CPUs, so its
// requests land in "its" rings (mod the ring count when jobs outnumber
// rings). Intra-ring order is FIFO by design; fairness is the drain
// scheduler's choice of *which* ring head to claim next.
inline sim::Task<> fair_rank(sim::Engine& eng, os::Ihk& ihk, ikc::JobId job, Dur work,
                             Dur gap, const bool& stop) {
  for (int k = 0; !stop; ++k) {
    const auto prio = (k % 4 == 0) ? ikc::Priority::control : ikc::Priority::bulk;
    auto r = co_await ihk.offload(
        [&eng, work]() -> sim::Task<Result<long>> {
          co_await eng.delay(work);
          co_return 0L;
        },
        prio, static_cast<int>(job), job);
    (void)r;
    if (gap > from_us(0)) co_await eng.delay(gap);
  }
}

struct JobCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t eagain = 0;
  std::uint64_t credit_waits = 0;
};

inline void snapshot_jobs(os::Ihk& ihk, std::size_t jobs, std::vector<JobCounters>& snap) {
  snap.assign(jobs, JobCounters{});
  for (std::size_t j = 0; j < jobs; ++j)
    if (const auto* s = ihk.transport().job_stats(static_cast<ikc::JobId>(j)))
      snap[j] = {s->submitted, s->completed, s->eagain, s->credit_waits};
}

// Fairness is judged on the service shares inside the measurement window
// [warmup, horizon): the warmup snapshot discards the uncongested startup
// transient (while queues are still shallow, throughput follows offered
// load — a 4-stream tenant legitimately gets 4x until backlog builds), and
// stopping the count at the horizon excludes the backlog drain that follows
// (a heavy tenant exits with more queued requests than a light one).
inline sim::Task<> stop_and_snapshot(sim::Engine& eng, os::Ihk& ihk, Dur warmup,
                                     Dur horizon, bool& stop, std::size_t jobs,
                                     std::vector<JobCounters>& warm,
                                     std::vector<JobCounters>& done) {
  co_await eng.delay(warmup);
  snapshot_jobs(ihk, jobs, warm);
  co_await eng.delay(horizon - warmup);
  stop = true;
  snapshot_jobs(ihk, jobs, done);
}
}  // namespace detail

/// Run one overload-ladder rung: `specs[j]` describes tenant j. Per-job
/// weights/credits come from `cfg` (ikc_job_weights / ikc_job_credits).
inline FairnessResult run_fairness_storm(const os::Config& cfg,
                                         const std::vector<JobSpec>& specs, Dur horizon) {
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  bool stop = false;
  std::vector<detail::JobCounters> warm, done;
  for (std::size_t j = 0; j < specs.size(); ++j)
    for (int s = 0; s < specs[j].submitters; ++s)
      sim::spawn(engine, detail::fair_rank(engine, ihk, static_cast<ikc::JobId>(j),
                                           specs[j].work, specs[j].gap, stop));
  sim::spawn(engine, detail::stop_and_snapshot(engine, ihk, horizon / 4, horizon, stop,
                                               specs.size(), warm, done));
  engine.run();

  FairnessResult out;
  // Not engine.now(): pending one-shot timers (the ring-residency watchdog)
  // keep the engine alive well past the horizon, and the per-job counts are
  // window deltas anyway.
  out.window_ms = to_ms(horizon - horizon / 4);
  std::vector<double> shares;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    JobOutcome o;
    o.job = static_cast<ikc::JobId>(j);
    if (j < done.size()) {
      o.submitted = done[j].submitted - warm[j].submitted;
      o.completed = done[j].completed - warm[j].completed;
      o.eagain = done[j].eagain - warm[j].eagain;
      o.credit_waits = done[j].credit_waits - warm[j].credit_waits;
    }
    // Queueing percentiles stay whole-run: the drained tail's waits are
    // real waits, and percentile estimates want every sample they can get.
    if (const auto* s = ihk.transport().job_stats(o.job))
      o.queue = ikc::summarize_queueing(s->queueing_us);
    out.completed_total += o.completed;
    shares.push_back(static_cast<double>(o.completed));
    out.jobs.push_back(o);
  }
  out.jain = jain_index(shares);
  return out;
}

/// --- elastic repartition storm (§8.7) --------------------------------------
/// A sustained offload storm across a scripted shrink → steady → grow
/// schedule: boot shape, retire down to `shrink_to` loops mid-flood, run a
/// steady window, attach back up to the boot shape. Round-trip latency is
/// collected per window so the bench reports tail latency *during* each
/// transition (the handover cost) and *after* it (the new steady state),
/// plus the time-to-quiesce each transition paid. All simulated time —
/// deterministic, gateable.

struct ElasticStormResult {
  double pre_p95_us = 0;            // boot-shape steady state
  double shrink_during_p95_us = 0;  // window containing the retires
  double shrink_after_p95_us = 0;   // shrunken steady state
  double grow_during_p95_us = 0;    // window containing the attaches
  double grow_after_p95_us = 0;     // restored steady state
  double quiesce_us = 0;            // drain + handover time of the retires
  double attach_us = 0;             // time to bring the loops back
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;  // submitted - completed - failed: must be 0
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded = 0;
  std::uint64_t stale_skips = 0;
  std::uint64_t dead_skips = 0;
  std::uint64_t retired = 0;
  std::uint64_t attached = 0;
};

namespace detail {

inline sim::Task<> elastic_submitter(sim::Engine& engine, ikc::IkcTransport& transport,
                                     int channel, Dur work, Dur gap, const bool& halt,
                                     const int& phase, std::array<Samples, 5>& windows,
                                     ElasticStormResult& out) {
  while (!halt) {
    const Time t0 = engine.now();
    ++out.submitted;
    auto r = co_await transport.offload(
        [&engine, work]() -> sim::Task<Result<long>> {
          co_await engine.delay(work);
          co_return 1;
        },
        ikc::Priority::bulk, channel);
    if (r.ok()) {
      ++out.completed;
      windows[static_cast<std::size_t>(phase)].add(to_us(engine.now() - t0));
    } else {
      ++out.failed;
    }
    co_await engine.delay(gap);
  }
}

inline sim::Task<> elastic_schedule(sim::Engine& engine, ikc::IkcTransport& transport,
                                    int shrink_by, Dur window, int& phase, bool& halt,
                                    ElasticStormResult& out) {
  co_await engine.delay(window);  // phase 0: boot-shape steady state
  phase = 1;
  Time t0 = engine.now();
  for (int i = 0; i < shrink_by; ++i) {
    const Status s = co_await transport.retire_loop();
    if (!s.ok()) break;
  }
  out.quiesce_us = to_us(engine.now() - t0);
  co_await engine.delay(window);  // phase 1 window includes the quiesce
  phase = 2;
  co_await engine.delay(window);  // shrunken steady state
  phase = 3;
  t0 = engine.now();
  for (int i = 0; i < shrink_by; ++i) {
    const Status s = co_await transport.attach_loop();
    if (!s.ok()) break;
  }
  out.attach_us = to_us(engine.now() - t0);
  co_await engine.delay(window);
  phase = 4;
  co_await engine.delay(window);  // restored steady state
  halt = true;
}

}  // namespace detail

inline ElasticStormResult run_elastic_storm(const os::Config& cfg, int streams, Dur work,
                                            Dur gap, Dur window, int shrink_by) {
  sim::Engine engine;
  os::LinuxKernel linux_kernel(engine, cfg);
  Samples queueing;
  ikc::IkcTransport transport(engine, cfg, linux_kernel.service_cpus(),
                              linux_kernel.profiler(), queueing,
                              linux_kernel.spinlock_abi());
  ElasticStormResult out;
  std::array<Samples, 5> windows;
  int phase = 0;
  bool halt = false;
  for (int s = 0; s < streams; ++s)
    sim::spawn(engine,
               detail::elastic_submitter(engine, transport, s % cfg.ikc_channels, work,
                                         gap, halt, phase, windows, out));
  sim::spawn(engine, detail::elastic_schedule(engine, transport, shrink_by, window, phase,
                                              halt, out));
  engine.run();

  out.pre_p95_us = windows[0].percentile(95);
  out.shrink_during_p95_us = windows[1].percentile(95);
  out.shrink_after_p95_us = windows[2].percentile(95);
  out.grow_during_p95_us = windows[3].percentile(95);
  out.grow_after_p95_us = windows[4].percentile(95);
  out.lost = out.submitted - out.completed - out.failed;
  const auto& prof = linux_kernel.profiler();
  out.timeouts = prof.counter("ikc.ring.timeout");
  out.degraded = prof.counter("ikc.ring.degraded");
  out.stale_skips = prof.counter("ikc.ring.stale_skip");
  out.dead_skips = prof.counter("ikc.ring.dead_skip");
  out.retired = prof.counter("ikc.elastic.loop_retired");
  out.attached = prof.counter("ikc.elastic.loop_attached");
  return out;
}

}  // namespace pd::bench
