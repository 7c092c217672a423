// IKC transport: the cross-kernel system-call delegation channel as an
// explicit subsystem (paper §2.1; MultiK's "the inter-kernel channel is an
// orchestrated component, not an ad-hoc call").
//
// Two transports live behind `Ihk::offload`:
//
//   direct — the legacy path: every offload is its own proxy wakeup on the
//            shared Linux service-CPU pool, with load-dependent wakeup,
//            per-waiter scheduler thrash and the proxy-run service
//            multiplier. This is the paper's measured McKernel behaviour
//            and stays the calibrated default. It builds no ring state
//            (channels, loops); retire/attach only move its active count.
//   ring   — per-LWK-CPU request rings in simulated shared memory
//            (RingBuffer slots guarded by the §3.3 cross-kernel spin-lock),
//            drained by dedicated Linux-side service loops pinned to the
//            `linux_service_cpus`. Loops dequeue in batches, amortizing the
//            schedule-in cost, and wake through a doorbell/poll hybrid.
//            Each channel carries two priority classes so fast-path control
//            calls (TID-registration ioctls) are not stuck behind bulk I/O.
//
// A ring-mode request lives in one place until it settles: its channel's
// request ring while queued, the claiming loop's `batch` while in service.
// Its owners are that slot, the offloading coroutine and, while it is
// parked, its channel's `parked` list; it is freed when the last of them
// lets go, within microseconds of its reply. Its ring-residency watchdog
// (`ikc_deadline`) and self-drain timer (`ikc_reply_deadline`) hold it
// weakly: they still fire, and do nothing for a request that is gone
// (§8.13).
//
// Three ring-mode mechanisms shape the rest of the round trip (§8.4):
//
//   reply rings — a completion is written into its request and takes a
//       slot of the channel's reply ring, an occupancy count (nothing reads
//       the entries). The offloading coroutine polls its reply slot (the LWK
//       core is dedicated to the blocked rank, so polling is free) and only
//       parks after `ikc_reply_poll_budget`; a parked channel costs at most
//       one completion IPI per drained batch, and a ring that keeps filling
//       doubles, up to `ikc_reply_max_depth`.
//   adaptive batching — each service loop sizes its next drain from an
//       EWMA of the depths it observed at drain time, clamped to
//       [1, ikc_ring_depth].
//   NUMA pinning — channel ring memory is placed on the socket of the
//       owning LWK CPU (`PhysMap::alloc_near` when a PhysMap is supplied),
//       channels are sharded to service loops by that socket, and each
//       loop is pinned to the socket owning its channels' rings; draining
//       a remote-socket ring pays `ikc_remote_drain_cost` per visit.
//
// Multi-tenant QoS (§8.6): every request is tagged with the submitting
// job's `JobId`. Service loops drain weighted-fair across jobs: they claim
// ring *heads* in lexicographic (vtime, class, age) order — vtime advances
// 1/weight per claim, control beats bulk within a vtime tie, and equal
// ties serve the oldest head first — so N jobs sharing a loop split its
// capacity by weight while per-channel FIFO order is preserved; a single
// job degenerates to control-before-bulk, oldest head first. Admission
// control bounds each job's in-flight offloads to `ikc_job_credits ×
// weight` credits: an exhausted job backs off and retries, then fails with
// EAGAIN (`ikc.job.eagain`) instead of queueing without bound — a flooding
// tenant throttles itself rather than monopolizing the rings.
//
// Robustness (ring mode): every request carries a ring-residency deadline;
// on expiry the submitter retries on a ring owned by a different service
// loop (bounded backoff), and after the retry budget falls back to the
// direct path. Consecutive timeouts mark a service loop suspect — further
// submissions avoid it except for periodic health probes, whose success
// clears the mark. The ladder is: retry elsewhere → avoid the stalled loop
// → degrade to direct; a fully stalled service side therefore slows
// offloads down instead of hanging them. The reply path has its own rungs:
// a full reply ring falls back to a per-request wakeup, a lost completion
// doorbell is recovered by the parked consumer's `ikc_reply_deadline`
// self-drain, and a completion whose consumer died is dropped with a
// counter instead of wedging the service loop.
//
// Elastic lifecycle (§8.7): the service-loop set is no longer fixed at
// construction. `retire_loop()` quiesces the highest-numbered active loop —
// it stops claiming, finishes any batch it already claimed (replies are
// delivered through the normal reply path), its channels are re-sharded
// onto the surviving loops, and the caller is resumed once the loop's
// coroutine has exited — and `attach_loop()` revives the next slot with a
// fresh service loop (EBUSY while a retire quiesces). The active set is
// always the prefix [0, active_loops()), so re-running the socket-aware
// sharding over that prefix reproduces exactly what a static transport of
// the same shape would compute. Every loop whose channel set changes
// across a re-shard has its suspect/probe/EWMA drain state reset: a
// verdict calibrated against the old channel set (or inherited from a
// retired loop's slot) must not outlive the shape that produced it.
// Orphaned queue depth is handed to the new owners with a doorbell pass;
// requests in the races a repartition cannot close are recovered by the
// ordinary deadline ladder.
//
// Observability: `ikc.ring.*` submit-path counters, `ikc.reply.*` return-
// path counters (post/poll_hit/park/wakeup/ring_full/self_drain/
// consumer_dead/...), `ikc.adaptive.*` drain-sizing counters,
// `ikc.numa.*` placement counters and `ikc.elastic.*` repartition counters
// are threaded through the Linux kernel's SyscallProfiler, and every
// request's queueing delay lands in the shared `Samples` the owning Ihk
// summarizes. The per-channel depth histogram is read through
// `depth_histogram()` only.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ring_buffer.hpp"
#include "src/common/stats.hpp"
#include "src/common/status.hpp"
#include "src/mem/numa_topology.hpp"
#include "src/mem/phys.hpp"
#include "src/os/config.hpp"
#include "src/os/profiler.hpp"
#include "src/os/spinlock.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace pd::ikc {

/// The Linux-side work of one offloaded syscall (runs in proxy context).
using Service = std::function<sim::Task<Result<long>>()>;

/// Per-channel priority classes: `control` for fast-path-critical admin
/// calls (TID registration, open/close), `bulk` for data-path I/O.
enum class Priority { control = 0, bulk = 1 };

/// Tenant identity of an offload. Job 0 is the single-tenant default every
/// legacy caller gets; a multi-tenant node tags each process's offloads
/// with its job so the service loops can drain weighted-fair across jobs
/// and the admission-control path can bound each job's in-flight share.
using JobId = std::uint32_t;

/// Percentile summary of offload queueing delays (µs).
struct QueueingSummary {
  std::size_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double max_us = 0;
};

QueueingSummary summarize_queueing(const Samples& samples);

class IkcTransport {
 public:
  /// Queue-depth histogram buckets: depth ≤ 1, 2, 4, 8, 16, 32, > 32.
  static constexpr int kDepthBuckets = 7;
  using DepthHistogram = std::array<std::uint64_t, kDepthBuckets>;

  /// `service_cpus`: the shared Linux service-CPU pool (CPU time for both
  /// transports and for IRQ bottom halves). `profiler`: where the ikc.*
  /// counters land (the Linux kernel's). `queueing_us`: per-request
  /// queueing samples, owned by the Ihk that owns this transport. `phys`:
  /// when non-null, channel ring memory is really placed with
  /// `PhysMap::alloc_near` and the achieved domain drives NUMA pinning;
  /// null falls back to ideal owner-socket placement. Ring-mode channels
  /// and service loops are built here (the loops live until the engine
  /// destroys their frames); direct mode builds neither. Throws
  /// std::invalid_argument when `cfg.validate()` fails — a misconfigured
  /// transport must not surface as a ladder of timeouts.
  IkcTransport(sim::Engine& engine, const os::Config& cfg, sim::Resource& service_cpus,
               os::SyscallProfiler& profiler, Samples& queueing_us, std::string lock_abi,
               mem::PhysMap* phys = nullptr);
  ~IkcTransport();
  IkcTransport(const IkcTransport&) = delete;
  IkcTransport& operator=(const IkcTransport&) = delete;

  /// Delegate one syscall. Ring mode enqueues on the hinted channel and
  /// follows the degradation ladder; direct mode is the legacy path. `job`
  /// tags the request with its tenant: the fair drain schedules across
  /// jobs by weight and the per-job credit gate may fail the call with
  /// EAGAIN (after bounded backoff) when the job's in-flight share of the
  /// transport is exhausted.
  sim::Task<Result<long>> offload(Service service, Priority prio, int channel_hint,
                                  JobId job = 0);

  /// Ring channels built (0 in direct mode).
  int num_channels() const { return static_cast<int>(channels_.size()); }
  /// Service loops of the boot shape (`linux_service_cpus`).
  int num_loops() const { return std::max(cfg_.linux_service_cpus, 1); }
  int loop_of(int channel) const { return channels_.at(static_cast<std::size_t>(channel))->loop; }

  /// --- elastic lifecycle (§8.7) -------------------------------------------
  /// Service loops currently draining: always the prefix [0, active_loops()).
  int active_loops() const { return active_loops_; }
  /// Loop slots provisioned (boot loops plus elastic_max_service_cpus
  /// headroom); attach_loop() cannot grow past this.
  int max_loops() const { return std::max(num_loops(), cfg_.elastic_max_service_cpus); }
  /// Quiesce and retire the highest-numbered active service loop: it stops
  /// claiming, its channels are re-sharded onto the surviving loops (home-
  /// socket affinity recomputed over the new prefix), orphaned queue depth
  /// is doorbelled to the new owners, and the call returns once the loop's
  /// coroutine has exited and any batch it had claimed is fully delivered.
  /// EINVAL when only one loop is active — offloads must keep a Linux side.
  sim::Task<Status> retire_loop();
  /// Re-activate the next loop slot with a fresh service loop (clean
  /// suspect/probe/EWMA state) and re-shard channels over the grown prefix.
  /// ENOSPC when every provisioned slot is already active; EBUSY while a
  /// retire_loop() is still quiescing (its loop may run in that slot).
  sim::Task<Status> attach_loop();

  /// --- NUMA placement introspection --------------------------------------
  /// Socket owning `channel`'s ring memory (after any alloc_near fallback).
  int channel_socket(int channel) const;
  /// Socket the service loop runs on: its pinned socket under
  /// `ikc_numa_pin`, its service CPU's socket otherwise.
  int loop_socket(int loop) const { return loops_.at(static_cast<std::size_t>(loop))->socket; }
  /// Physical ring region of `channel` (0 when no PhysMap was supplied).
  mem::PhysAddr channel_ring_phys(int channel) const;

  /// --- per-job QoS introspection ------------------------------------------
  /// Aggregated view of one job's interaction with the transport. Everything
  /// here is observable from outside (tests, the overload-ladder bench):
  /// how much work the job completed, how hard the credit gate pushed back,
  /// and the job's own queueing distribution.
  struct JobStats {
    std::uint64_t submitted = 0;   // offloads tagged with this job
    std::uint64_t completed = 0;   // offloads that returned a result
    std::uint64_t eagain = 0;      // failed at the credit gate (throttled)
    std::uint64_t credit_waits = 0;  // backoff rounds spent waiting for credit
    int inflight = 0;              // accepted, not yet returned
    /// Per-job queueing delays: a bounded reservoir, not a full sample
    /// vector — every sample already lands in the transport-wide `Samples`,
    /// and at the 4096-job overload ladder an unbounded second copy per job
    /// would double queueing-sample memory without bound. Count, mean and
    /// max stay exact; p50/p95 are reservoir estimates over `kQueueingCap`.
    static constexpr std::size_t kQueueingCap = 2048;
    Samples queueing_us{kQueueingCap};
  };
  /// Stats for `job`, or nullptr when the job never submitted.
  const JobStats* job_stats(JobId job) const;
  /// Every job id the transport has seen, ascending.
  std::vector<JobId> jobs_seen() const;
  /// The drain weight `job` resolves to (ikc_job_weights, default 1.0).
  double job_weight(JobId job) const;

  /// --- adaptive batching introspection ------------------------------------
  /// The drain limit the loop will apply to its next batch collection.
  int loop_batch_limit(int loop) const {
    return loops_.at(static_cast<std::size_t>(loop))->batch_limit;
  }
  double loop_depth_ewma(int loop) const {
    return loops_.at(static_cast<std::size_t>(loop))->depth_ewma;
  }

  /// --- fault injection / introspection (tests, failure injection) --------
  /// Halt or resume one Linux-side service loop ("service thread wedged").
  /// Stalling is a *fault*: the transport must detect it behaviourally via
  /// deadlines, never by reading this flag on the submit path.
  void inject_stall(int loop, bool stalled);
  bool stall_injected(int loop) const { return loops_.at(loop)->stall_injected; }
  /// Kill every consumer currently waiting on `channel` (the owning LWK
  /// process dies mid-offload): their unsettled offloads resolve to EINTR,
  /// queued entries are skipped as dead (`ikc.ring.dead_skip`), and
  /// completions the service side still produces for them are dropped
  /// (`ikc.reply.consumer_dead`). A completion already posted stands.
  void inject_consumer_death(int channel);
  /// Drop completion doorbells aimed at `channel` while `lost` (a wedged
  /// LWK-side reply IRQ): parked consumers must recover via the
  /// `ikc_reply_deadline` self-drain instead of hanging.
  void inject_reply_doorbell_loss(int channel, bool lost);
  /// Has this loop accumulated enough consecutive timeouts to be avoided?
  bool loop_suspect(int loop) const;
  std::uint64_t loop_served(int loop) const { return loops_.at(loop)->served; }
  std::size_t channel_depth(int channel) const;
  /// Completions posted on `channel` that its LWK core has not reclaimed.
  std::size_t reply_ring_depth(int channel) const {
    return channels_.at(static_cast<std::size_t>(channel))->reply_posted;
  }
  /// Current reply-ring capacity (doubles under sustained ring-full).
  std::size_t reply_ring_capacity(int channel) const {
    return channels_.at(static_cast<std::size_t>(channel))->reply_capacity;
  }
  /// Enqueue-time depth histogram of `channel`.
  const DepthHistogram& depth_histogram(int channel) const {
    return channels_.at(static_cast<std::size_t>(channel))->depth_hist;
  }

 private:
  struct Request {
    explicit Request(sim::Engine& engine) : wake(engine) {}
    enum class State { queued, claimed, done, timed_out, abandoned };
    Service service;
    State state = State::queued;
    Result<long> result = Errno::eagain;
    Time enqueued_at = 0;
    int channel = -1;  // ring the request was accepted on (reply routing)
    JobId job = 0;           // tenant the fair drain schedules by
    sim::Channel<int> wake;  // reply doorbell / watchdog pokes
  };
  /// Owned by its ring slot or loop batch, its `parked` entry and the
  /// offloading coroutine; the timers keep `std::weak_ptr`s.
  using RequestPtr = std::shared_ptr<Request>;

  struct Channel {
    Channel(sim::Engine& engine, std::string abi, Dur lock_cost, std::size_t depth,
            std::size_t reply_depth)
        : lock(engine, std::move(abi), lock_cost),
          rings{RingBuffer<RequestPtr>(depth), RingBuffer<RequestPtr>(depth)},
          reply_capacity(reply_depth) {}
    os::SharedSpinlock lock;          // the cross-kernel ring lock (§3.3)
    RingBuffer<RequestPtr> rings[2];  // [control, bulk]: every queued request
    std::size_t reply_posted = 0;     // reply-ring occupancy (entries never read)
    std::size_t reply_capacity;
    std::vector<RequestPtr> parked;   // consumers blocked on the reply doorbell
    bool reply_doorbell_lost = false;  // fault injection: completion IPIs dropped
    int reply_full_strikes = 0;        // ring-full events since the last grow
    int home_socket = 0;               // socket owning this channel's ring memory
    int loop = 0;                      // service loop draining it (shard_channels)
    DepthHistogram depth_hist{};       // ring depth seen by each enqueue
    mem::PhysAddr ring_phys = 0;       // 0 → no real placement (no PhysMap)
  };

  struct Loop {
    explicit Loop(sim::Engine& engine) : doorbell(engine), unstall(engine), retired(engine) {}
    sim::Channel<int> doorbell;
    sim::Channel<int> unstall;
    sim::Channel<int> retired;    // service_loop signals its exit here
    bool sleeping = false;        // blocked on the doorbell
    bool stall_injected = false;
    bool retiring = false;        // quiesce requested: exit after this batch
    int consecutive_timeouts = 0; // submit-side stall detector
    std::uint64_t served = 0;
    int socket = 0;               // where this loop runs (pinned or service CPU)
    std::vector<int> channels;    // the channels this loop owns, ascending
    std::vector<RequestPtr> batch;  // claimed by the last collect: in service
    // Adaptive drain sizing: EWMA of the depth observed at each drain and
    // the clamped limit derived from it (§8.4).
    double depth_ewma = 0.0;
    int batch_limit = 1;
  };

  static bool settled(const Request& req) {
    return req.state == Request::State::done || req.state == Request::State::timed_out ||
           req.state == Request::State::abandoned;
  }

  sim::Task<Result<long>> direct_offload(Service service, JobId job);
  sim::Task<Result<long>> ring_offload(Service service, Priority prio, int channel_hint,
                                       JobId job);
  /// Credit gate: wait (bounded backoff) for the job's in-flight count to
  /// drop below its credit cap. Returns false when the retries are spent —
  /// the caller must fail the offload with EAGAIN instead of queueing.
  sim::Task<bool> admit(JobId job);
  sim::Task<> service_loop(int loop);
  /// Pop up to the loop's current drain limit of claimable requests from
  /// its channels, weighted-fair across jobs: ring heads are claimed in
  /// (vtime, class, age) order, head-only so per-channel FIFO is
  /// preserved. The ring-lock cost (plus the remote-socket surcharge) is
  /// paid once per non-empty (channel, class) ring visited.
  sim::Task<> collect_batch(int loop, std::vector<RequestPtr>& out);
  /// Deliver one completed service result back to the submitter through
  /// its channel's reply ring; reply-ring touches are recorded in `touched`
  /// so the post-batch doorbell pass can wake parked channels once each.
  sim::Task<> deliver_reply(const RequestPtr& req, std::vector<int>& touched);
  /// Wait until `req` settles: poll the reply slot for
  /// `ikc_reply_poll_budget`, then park on the doorbell with the
  /// self-drain watchdog armed.
  sim::Task<> await_reply(RequestPtr req);
  /// Doorbell IPI to a sleeping service loop (one per sleep: clears
  /// `sleeping` before paying the IPI). Callers count it, or not.
  sim::Task<> ring_doorbell(Loop& lp);
  /// Completion IPI to `ch`'s LWK core; false when the fault injection
  /// drops it (`ikc.reply.doorbell_lost`), and the caller wakes nobody.
  sim::Task<bool> completion_ipi(Channel& ch);

  RingBuffer<RequestPtr>& ring(int channel, Priority prio) {
    return channels_[static_cast<std::size_t>(channel)]->rings[static_cast<int>(prio)];
  }
  bool has_work(int loop) const;
  /// Channel to actually submit on: the hint unless its loop is suspect, in
  /// which case rotate to a healthy loop's channel (or probe the suspect
  /// one every `ikc_probe_interval`-th time). -1 → every loop suspect.
  int pick_channel(int channel);
  /// The next channel owned by a *different* service loop (retry target);
  /// falls back to channel+1 when every channel shares one loop.
  int next_foreign_channel(int channel) const;
  void note_depth(int channel);
  /// Observe `avail` requests pending at drain time and resize the loop's
  /// drain limit from the refreshed EWMA.
  void observe_depth(Loop& lp, std::size_t avail);
  /// Ring-memory placement (home sockets + PhysMap::alloc_near), fixed at
  /// construction: a channel's ring lines do not move when loops do.
  void place_rings();
  /// Socket→loop channel sharding + loop pinning (ikc_numa_pin) or the
  /// legacy round-robin shard over the active prefix [0, active_loops_);
  /// fills Channel::loop and Loop::{socket,channels}. Re-run on every
  /// retire/attach — identical to a fresh transport of the same shape.
  void shard_channels();
  /// shard_channels + reset suspect/probe/EWMA drain state on every active
  /// loop whose channel set the re-shard changed (satellite: a re-shard
  /// must not inherit a stale verdict).
  void reshard_and_reset();
  void reset_loop_health(Loop& lp);
  /// Post-repartition doorbell pass: wake every sleeping active loop that
  /// now owns queued work (orphans of a retired loop, movers of a re-shard).
  sim::Task<> wake_loops_with_work();

  sim::Engine& engine_;
  const os::Config& cfg_;
  sim::Resource& service_cpus_;
  os::SyscallProfiler& prof_;
  Samples& queueing_us_;
  mem::PhysMap* phys_;
  mem::NumaTopology topo_;
  int active_loops_;
  int retires_in_flight_ = 0;  // retire_loop() calls still quiescing
  // Ring mode only: both empty in direct mode.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::uint64_t probe_tick_ = 0;

  /// Per-job scheduling state. `vtime` is the weighted-fair virtual finish
  /// time: claiming one request advances it by 1/weight, and a job waking
  /// from idle rejoins at the scheduler's current floor instead of burning
  /// a backlog of "unused" past share as a burst. Jobs clamped up to the
  /// floor tie; the tie is served oldest-head-first (see
  /// collect_batch), which re-encodes the deficit the clamp erased.
  struct JobState {
    JobStats stats;
    double vtime = 0.0;
  };
  JobState& job(JobId job_id) { return jobs_[job_id]; }
  /// In-flight credit cap for `job` (0 = unlimited).
  int credit_cap(JobId job_id) const;
  std::map<JobId, JobState> jobs_;  // ordered so jobs_seen() is ascending
  double vtime_floor_ = 0.0;        // virtual now: idle jobs rejoin here
};

}  // namespace pd::ikc
