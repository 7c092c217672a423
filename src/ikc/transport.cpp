#include "src/ikc/transport.hpp"

#include <cstdlib>
#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pd::ikc {

namespace {

int depth_bucket(std::size_t depth) {
  if (depth <= 1) return 0;
  if (depth <= 2) return 1;
  if (depth <= 4) return 2;
  if (depth <= 8) return 3;
  if (depth <= 16) return 4;
  if (depth <= 32) return 5;
  return 6;
}

/// Why a parked consumer's wake channel was poked.
constexpr int kWakeDoorbell = 0;
constexpr int kWakeSelfDrain = 1;
constexpr int kWakeDeadline = 2;
constexpr int kWakeDeath = 3;

}  // namespace

QueueingSummary summarize_queueing(const Samples& samples) {
  QueueingSummary s;
  s.count = samples.count();
  if (s.count == 0) return s;
  s.mean_us = samples.mean();
  s.p50_us = samples.percentile(50);
  s.p95_us = samples.percentile(95);
  // Exact max, not percentile(100): per-job samples are a bounded reservoir
  // and the true maximum must survive eviction.
  s.max_us = samples.max();
  return s;
}

IkcTransport::IkcTransport(sim::Engine& engine, const os::Config& cfg,
                           sim::Resource& service_cpus, os::SyscallProfiler& profiler,
                           Samples& queueing_us, std::string lock_abi, mem::PhysMap* phys)
    : engine_(engine),
      cfg_(cfg),
      service_cpus_(service_cpus),
      prof_(profiler),
      queueing_us_(queueing_us),
      phys_(phys),
      topo_(mem::NumaTopology::blocked(std::max(cfg.cores_per_node, 1),
                                       std::max(cfg.numa_per_kind, 1))),
      active_loops_(num_loops()) {
  std::string why;
  if (const Status valid = cfg.validate(&why); !valid.ok())
    throw std::invalid_argument("ikc: invalid Config: " + why);
  // The direct transport keeps the legacy shape where each offload is its
  // own proxy wakeup: it owns no channel, ring, lock or service loop.
  if (cfg_.ikc_mode != os::IkcMode::ring) return;
  const int channels = cfg.ikc_channels > 0 ? cfg.ikc_channels : std::max(cfg.app_cores, 1);
  channels_.reserve(static_cast<std::size_t>(channels));
  for (int c = 0; c < channels; ++c)
    channels_.push_back(std::make_unique<Channel>(
        engine_, lock_abi, cfg.ikc_lock_cost, static_cast<std::size_t>(cfg.ikc_ring_depth),
        static_cast<std::size_t>(cfg.ikc_reply_depth)));
  // Provision loop slots for the elastic ceiling too: attach_loop() revives
  // a slot, it never invents one. Only the boot prefix is spawned.
  for (int s = 0; s < max_loops(); ++s) loops_.push_back(std::make_unique<Loop>(engine_));
  place_rings();
  shard_channels();
  for (int s = 0; s < active_loops_; ++s) sim::spawn(engine_, service_loop(s));
}

IkcTransport::~IkcTransport() {
  if (phys_ == nullptr) return;
  for (auto& ch : channels_)
    if (ch->ring_phys != 0) phys_->free(ch->ring_phys, cfg_.ikc_ring_region_bytes);
}

void IkcTransport::place_rings() {
  const int sockets = std::max(topo_.sockets(), 1);
  // Ring memory homes: the owning LWK CPU's socket, made real through
  // PhysMap::alloc_near when a map is supplied. alloc_near may fall back
  // to another domain under pressure — the *achieved* domain is what the
  // pinning below must follow, not the wish. Placement happens once: a
  // repartition moves loops, never a channel's ring lines.
  for (int c = 0; c < num_channels(); ++c) {
    Channel& ch = *channels_[static_cast<std::size_t>(c)];
    const int owner_cpu = cfg_.linux_service_cpus + c;
    ch.home_socket = topo_.socket_of(owner_cpu);
    if (phys_ != nullptr) {
      auto region = phys_->alloc_near(cfg_.ikc_ring_region_bytes,
                                      static_cast<std::size_t>(ch.home_socket));
      if (region.ok()) {
        ch.ring_phys = *region;
        if (auto dom = phys_->domain_of(*region); dom.has_value())
          ch.home_socket = static_cast<int>(*dom % static_cast<std::size_t>(sockets));
      } else {
        prof_.bump("ikc.numa.ring_alloc_failed");
      }
    }
  }
}

void IkcTransport::shard_channels() {
  const int n = active_loops_;
  for (auto& lp : loops_) lp->channels.clear();
  const int sockets = std::max(topo_.sockets(), 1);
  // Where a loop runs without pinning: its service CPU (the low ids the
  // IHK reservation leaves to Linux — all in quadrant 0 under SNC-4).
  for (int l = 0; l < n; ++l)
    loops_[static_cast<std::size_t>(l)]->socket = topo_.socket_of(l);
  if (cfg_.ikc_numa_pin && !topo_.flat()) {
    // Pin loops across the quadrants, then shard each channel to a loop
    // pinned on its ring's socket (least-loaded first); a channel whose
    // socket no loop covers joins the globally least-loaded loop and is
    // drained remotely. Everything is computed over the *active* prefix,
    // so a repartitioned transport shards exactly like a fresh static one
    // with `n` service CPUs.
    for (int l = 0; l < n; ++l) {
      loops_[static_cast<std::size_t>(l)]->socket = (l * sockets) / n;
      prof_.bump("ikc.numa.pinned_loop");
    }
    for (int c = 0; c < num_channels(); ++c) {
      const int home = channels_[static_cast<std::size_t>(c)]->home_socket;
      int best = -1;
      for (int l = 0; l < n; ++l) {
        if (loops_[static_cast<std::size_t>(l)]->socket != home) continue;
        if (best < 0 || loops_[static_cast<std::size_t>(l)]->channels.size() <
                            loops_[static_cast<std::size_t>(best)]->channels.size())
          best = l;
      }
      if (best < 0) {
        for (int l = 0; l < n; ++l)
          if (best < 0 || loops_[static_cast<std::size_t>(l)]->channels.size() <
                              loops_[static_cast<std::size_t>(best)]->channels.size())
            best = l;
        prof_.bump("ikc.numa.far_channel");
      } else {
        prof_.bump("ikc.numa.matched_channel");
      }
      channels_[static_cast<std::size_t>(c)]->loop = best;
      loops_[static_cast<std::size_t>(best)]->channels.push_back(c);
    }
  } else {
    for (int c = 0; c < num_channels(); ++c) {
      channels_[static_cast<std::size_t>(c)]->loop = c % n;
      loops_[static_cast<std::size_t>(c % n)]->channels.push_back(c);
    }
  }
}

void IkcTransport::reset_loop_health(Loop& lp) {
  lp.consecutive_timeouts = 0;
  lp.depth_ewma = 0.0;
  lp.batch_limit = 1;
  prof_.bump("ikc.elastic.health_reset");
}

void IkcTransport::reshard_and_reset() {
  std::vector<std::vector<int>> before;
  before.reserve(loops_.size());
  for (const auto& lp : loops_) before.push_back(lp->channels);
  shard_channels();
  prof_.bump("ikc.elastic.reshard");
  // A suspect verdict, a probe countdown or a depth EWMA was calibrated
  // against a loop's old channel set; once the set changes the state is
  // about a shape that no longer exists, so it must not carry over.
  for (int l = 0; l < active_loops_; ++l)
    if (loops_[static_cast<std::size_t>(l)]->channels != before[static_cast<std::size_t>(l)])
      reset_loop_health(*loops_[static_cast<std::size_t>(l)]);
}

sim::Task<> IkcTransport::wake_loops_with_work() {
  for (int l = 0; l < active_loops_; ++l) {
    Loop& lp = *loops_[static_cast<std::size_t>(l)];
    if (!lp.sleeping || !has_work(l)) continue;
    prof_.bump("ikc.ring.doorbell");
    co_await ring_doorbell(lp);
  }
}

sim::Task<> IkcTransport::ring_doorbell(Loop& lp) {
  lp.sleeping = false;  // claim the wakeup: one doorbell per sleep
  co_await engine_.delay(cfg_.ikc_doorbell_cost);
  lp.doorbell.send(1);
}

sim::Task<bool> IkcTransport::completion_ipi(Channel& ch) {
  co_await engine_.delay(cfg_.ikc_reply_wakeup_cost);
  if (ch.reply_doorbell_lost) {
    prof_.bump("ikc.reply.doorbell_lost");  // sent, then dropped by the fault
    co_return false;
  }
  prof_.bump("ikc.reply.wakeup");
  co_return true;
}

sim::Task<Status> IkcTransport::retire_loop() {
  if (active_loops_ <= 1) co_return Errno::einval;
  --active_loops_;
  // No loops run in direct mode; the retire is pure bookkeeping.
  if (cfg_.ikc_mode != os::IkcMode::ring) co_return Status::success();
  Loop& lp = *loops_[static_cast<std::size_t>(active_loops_)];
  ++retires_in_flight_;
  prof_.bump("ikc.elastic.loop_retired");
  lp.retiring = true;
  // Hand the loop's channels to the survivors immediately: new submissions
  // route past the retiring loop from this instant, and the backlog its
  // rings held is now the new owners' to drain.
  reshard_and_reset();
  reset_loop_health(lp);  // a retired slot must not report a stale verdict
  // Kick the loop out of whatever wait it is parked in so it can observe
  // `retiring`: the doorbell when it sleeps, the unstall channel when a
  // stall injection holds it. Not counted as an ikc.ring.doorbell.
  if (lp.sleeping) co_await ring_doorbell(lp);
  if (lp.stall_injected) lp.unstall.send(1);
  // Quiesce: the loop finishes any batch it already claimed (replies are
  // delivered through the normal reply path) and exits. Until then its
  // slot must not be re-attached.
  co_await lp.retired.recv();
  --retires_in_flight_;
  // The orphaned queue depth now belongs to loops that may be asleep.
  co_await wake_loops_with_work();
  co_return Status::success();
}

sim::Task<Status> IkcTransport::attach_loop() {
  if (active_loops_ >= max_loops()) co_return Errno::enospc;
  // A quiescing retire's loop may still run in the slot this would take:
  // replacing it would free the Loop under the running coroutine.
  if (retires_in_flight_ > 0) co_return Errno::ebusy;
  const int l = active_loops_++;
  if (cfg_.ikc_mode != os::IkcMode::ring) co_return Status::success();
  // A fresh Loop, not a recycled one: clean doorbell/unstall channels and
  // clean suspect/probe/EWMA state, exactly like a boot-time loop.
  loops_[static_cast<std::size_t>(l)] = std::make_unique<Loop>(engine_);
  prof_.bump("ikc.elastic.loop_attached");
  reshard_and_reset();
  sim::spawn(engine_, service_loop(l));
  // Loops that lost channels already know their remaining work; the new
  // loop collects on entry. The pass covers survivors that *gained* a
  // channel mid-sleep.
  co_await wake_loops_with_work();
  co_return Status::success();
}

int IkcTransport::channel_socket(int channel) const {
  return channels_.at(static_cast<std::size_t>(channel))->home_socket;
}

mem::PhysAddr IkcTransport::channel_ring_phys(int channel) const {
  return channels_.at(static_cast<std::size_t>(channel))->ring_phys;
}

const IkcTransport::JobStats* IkcTransport::job_stats(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second.stats;
}

std::vector<JobId> IkcTransport::jobs_seen() const {
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, state] : jobs_) ids.push_back(id);
  return ids;
}

double IkcTransport::job_weight(JobId job) const {
  if (static_cast<std::size_t>(job) < cfg_.ikc_job_weights.size())
    return cfg_.ikc_job_weights[static_cast<std::size_t>(job)];
  return 1.0;
}

int IkcTransport::credit_cap(JobId job_id) const {
  if (cfg_.ikc_job_credits <= 0) return 0;  // unlimited
  const double scaled = static_cast<double>(cfg_.ikc_job_credits) * job_weight(job_id);
  return std::max(1, static_cast<int>(scaled));
}

sim::Task<bool> IkcTransport::admit(JobId job_id) {
  const int cap = credit_cap(job_id);
  if (cap == 0) co_return true;
  JobState& js = job(job_id);
  for (int attempt = 0; js.stats.inflight >= cap; ++attempt) {
    if (attempt >= cfg_.ikc_credit_retries) {
      // Credits spent and the backoff budget too: the job is saturating
      // its share, so push the failure back to the submitter instead of
      // letting its queue depth grow without bound.
      ++js.stats.eagain;
      prof_.bump("ikc.job.eagain");
      co_return false;
    }
    ++js.stats.credit_waits;
    prof_.bump("ikc.job.credit_wait");
    co_await engine_.delay(static_cast<Dur>(attempt + 1) * cfg_.ikc_credit_backoff);
  }
  co_return true;
}

sim::Task<Result<long>> IkcTransport::offload(Service service, Priority prio,
                                              int channel_hint, JobId job_id) {
  JobState& js = job(job_id);
  ++js.stats.submitted;
  if (!co_await admit(job_id)) co_return Errno::eagain;
  ++js.stats.inflight;
  Result<long> r = Errno::eagain;
  if (cfg_.ikc_mode == os::IkcMode::ring)
    r = co_await ring_offload(std::move(service), prio, channel_hint, job_id);
  else
    r = co_await direct_offload(std::move(service), job_id);
  --js.stats.inflight;
  if (r.ok()) ++js.stats.completed;
  co_return r;
}

/// The legacy path, timing-identical to the pre-subsystem `Ihk::offload`:
/// IKC message, FIFO squeeze on the service-CPU pool, load-dependent proxy
/// wakeup, per-waiter scheduler thrash, and the proxy-run service
/// multiplier (the paper's multi-node collapse mechanism).
sim::Task<Result<long>> IkcTransport::direct_offload(Service service, JobId job_id) {
  // IKC request: message write + IPI + proxy wakeup on the Linux side.
  co_await engine_.delay(cfg_.offload_oneway);

  // The proxy must get a service CPU; this is the contention point.
  const Time queued_at = engine_.now();
  co_await service_cpus_.acquire();
  const double queued_us = to_us(engine_.now() - queued_at);
  queueing_us_.add(queued_us);
  job(job_id).stats.queueing_us.add(queued_us);

  // Proxy thread schedule-in + request demultiplex, then the actual Linux
  // service. An idle, cache-hot proxy serves close to native speed; under
  // load every additional runnable proxy costs scheduling, cache/TLB
  // thrash and IPI traffic, so both the wakeup and the per-work surcharge
  // scale with the observed queue — the mechanism behind the paper's
  // multi-node collapse while single-stream offloading stays mild.
  const auto waiters = std::min<std::size_t>(
      service_cpus_.queue_length(),
      static_cast<std::size_t>(cfg_.sched_thrash_cap_waiters));
  const double load = cfg_.sched_thrash_cap_waiters > 0
                          ? static_cast<double>(waiters) /
                                static_cast<double>(cfg_.sched_thrash_cap_waiters)
                          : 0.0;
  const Dur wakeup =
      cfg_.proxy_wakeup_hot +
      static_cast<Dur>(load * static_cast<double>(cfg_.proxy_wakeup_cold -
                                                  cfg_.proxy_wakeup_hot));
  const Dur thrash = static_cast<Dur>(waiters) * cfg_.sched_thrash_per_waiter;
  // Wakeup accounting, mirroring the ring path's ikc.ring.doorbell /
  // ikc.reply.wakeup counters so Fig. 8/9 can show the per-offload wakeup
  // split between transports: the direct path pays one proxy wakeup on
  // submit and one LWK-side wakeup for the reply IPI — every time.
  prof_.bump("ikc.direct.proxy_wakeup");
  co_await engine_.delay(wakeup + cfg_.offload_dispatch + cfg_.proxy_min_service + thrash);
  const Time work_start = engine_.now();
  auto work = service();
  Result<long> result = co_await work;
  const Dur work_elapsed = engine_.now() - work_start;
  const double multiplier =
      1.0 + load * (cfg_.offload_service_multiplier - 1.0);
  if (multiplier > 1.0)
    co_await engine_.delay(
        static_cast<Dur>(static_cast<double>(work_elapsed) * (multiplier - 1.0)));
  service_cpus_.release();

  // IKC reply back to the LWK core.
  prof_.bump("ikc.direct.reply_wakeup");
  co_await engine_.delay(cfg_.offload_oneway);
  co_return result;
}

bool IkcTransport::loop_suspect(int loop) const {
  return loops_.at(static_cast<std::size_t>(loop))->consecutive_timeouts >=
         cfg_.ikc_stall_threshold;
}

std::size_t IkcTransport::channel_depth(int channel) const {
  const Channel& ch = *channels_.at(static_cast<std::size_t>(channel));
  return ch.rings[0].size() + ch.rings[1].size();
}

int IkcTransport::pick_channel(int channel) {
  if (!loop_suspect(loop_of(channel))) return channel;
  // Health probe: every Nth submission aimed at a suspect loop goes through
  // anyway, so a recovered loop is re-discovered (its reply resets the
  // timeout count) instead of being shunned forever.
  if (cfg_.ikc_probe_interval > 0 &&
      ++probe_tick_ % static_cast<std::uint64_t>(cfg_.ikc_probe_interval) == 0) {
    prof_.bump("ikc.ring.probe");
    return channel;
  }
  for (int i = 1; i < num_channels(); ++i) {
    const int cand = (channel + i) % num_channels();
    if (!loop_suspect(loop_of(cand))) {
      prof_.bump("ikc.ring.redirect");
      return cand;
    }
  }
  return -1;  // every service loop suspect → caller degrades
}

int IkcTransport::next_foreign_channel(int channel) const {
  // Retry target: a ring owned by a *different* service loop. Under NUMA
  // pinning the sharding is no longer round-robin, so walk until the owner
  // changes; with a single loop (or one channel) this degrades to +1.
  const int owner = loop_of(channel);
  for (int i = 1; i < num_channels(); ++i) {
    const int cand = (channel + i) % num_channels();
    if (loop_of(cand) != owner) return cand;
  }
  return (channel + 1) % num_channels();
}

void IkcTransport::note_depth(int channel) {
  const int bucket = depth_bucket(channel_depth(channel));
  ++channels_[static_cast<std::size_t>(channel)]->depth_hist[static_cast<std::size_t>(bucket)];
}

void IkcTransport::observe_depth(Loop& lp, std::size_t avail) {
  const double alpha = cfg_.ikc_adaptive_alpha;
  lp.depth_ewma = alpha * static_cast<double>(avail) + (1.0 - alpha) * lp.depth_ewma;
  const int clamped = static_cast<int>(std::min(
      std::ceil(lp.depth_ewma * cfg_.ikc_adaptive_headroom),
      static_cast<double>(cfg_.ikc_ring_depth)));
  const int target = std::max(1, clamped);
  if (target > lp.batch_limit)
    prof_.bump("ikc.adaptive.grow");
  else if (target < lp.batch_limit)
    prof_.bump("ikc.adaptive.shrink");
  else
    prof_.bump("ikc.adaptive.hold");
  lp.batch_limit = target;
}

sim::Task<Result<long>> IkcTransport::ring_offload(Service service, Priority prio,
                                                   int channel_hint, JobId job_id) {
  // Request write into the shared-memory ring region: the bytes cross the
  // kernel boundary exactly as the legacy IKC message did.
  co_await engine_.delay(cfg_.offload_oneway);

  int ch = ((channel_hint % num_channels()) + num_channels()) % num_channels();
  for (int attempt = 0; attempt <= cfg_.ikc_max_retries; ++attempt) {
    if (attempt > 0) {
      prof_.bump("ikc.ring.retry");
      co_await engine_.delay(static_cast<Dur>(attempt) * cfg_.ikc_retry_backoff);
      // A ring owned by another service loop (the sharding may be
      // socket-aware, so "next channel" is not necessarily it).
      ch = next_foreign_channel(ch);
    }
    ch = pick_channel(ch);
    if (ch < 0) break;  // every loop suspect: straight to the direct path

    // Not make_shared: the timers below keep weak references for up to
    // ikc_deadline, and an object sharing its control block would stay
    // allocated until the last of them fired.
    RequestPtr req(new Request(engine_));
    req->service = service;
    req->channel = ch;
    req->job = job_id;
    Channel& channel = *channels_[static_cast<std::size_t>(ch)];
    co_await channel.lock.acquire();
    const bool pushed = ring(ch, prio).push(req);
    channel.lock.release();
    if (!pushed) {
      prof_.bump("ikc.ring.full");
      continue;  // consumes one attempt, lands on another loop's ring
    }
    req->enqueued_at = engine_.now();
    prof_.bump("ikc.ring.enqueue");
    note_depth(ch);

    // Doorbell/poll hybrid: ring the doorbell only when the loop is asleep;
    // a polling or busy loop will find the request on its own. The owner is
    // resolved *after* the push: the lock hand-off awaits, and a
    // repartition in that window may have re-sharded this channel onto a
    // different loop — the doorbell must reach whoever drains it now.
    Loop& lp = *loops_[static_cast<std::size_t>(loop_of(ch))];
    if (lp.sleeping) {
      prof_.bump("ikc.ring.doorbell");
      co_await ring_doorbell(lp);
    }

    // Ring-residency watchdog. Fires only while still queued; a claimed or
    // completed request is past the window the deadline protects. It does
    // not own the request: one that has settled and been dropped by its
    // ring, batch and submitter is past that window too.
    engine_.schedule_after(cfg_.ikc_deadline, [weak = std::weak_ptr<Request>(req)] {
      const RequestPtr r = weak.lock();
      if (r && r->state == Request::State::queued) {
        r->state = Request::State::timed_out;
        r->wake.send(kWakeDeadline);
      }
    });

    co_await await_reply(req);
    if (req->state == Request::State::abandoned) {
      // The consumer was killed mid-offload (fault injection); the service
      // side drops our completion, we report the interruption.
      co_return Errno::eintr;
    }
    if (req->state == Request::State::done) {
      // IKC reply payload back to the LWK core.
      co_await engine_.delay(cfg_.offload_oneway);
      co_return req->result;
    }
    // Timed out in the ring: the service loop never claimed it (the stale
    // entry is skipped when eventually popped). Count against the loop that
    // owns the channel *now* — `lp` may be a retired slot (or a recycled
    // Loop object) if a repartition happened while we waited — and retry on
    // a ring owned by another one.
    prof_.bump("ikc.ring.timeout");
    ++loops_[static_cast<std::size_t>(loop_of(ch))]->consecutive_timeouts;
  }

  // Degradation floor: the legacy direct path still works even with every
  // service loop wedged — offloads get slower, never stuck.
  prof_.bump("ikc.ring.degraded");
  co_return co_await direct_offload(std::move(service), job_id);
}

sim::Task<> IkcTransport::await_reply(RequestPtr req) {
  Channel& ch = *channels_[static_cast<std::size_t>(req->channel)];
  // Every look at the reply ring frees all its slots (each completion is
  // already in its request), so only a parked or dead consumer fills it.
  // Poll phase: the LWK core is dedicated to the blocked rank, so spinning
  // on the reply slot is free — a completion lands as a shared-memory
  // write and costs the return path zero wakeups.
  const Time poll_until = engine_.now() + cfg_.ikc_reply_poll_budget;
  while (true) {
    ch.reply_posted = 0;
    if (settled(*req)) {
      if (req->state == Request::State::done) prof_.bump("ikc.reply.poll_hit");
      co_return;
    }
    if (engine_.now() >= poll_until) break;
    co_await engine_.delay(cfg_.ikc_reply_poll_interval);
  }
  // Park phase: one completion IPI per drained batch wakes every parked
  // consumer of the channel; the self-drain watchdog bounds how long a
  // lost doorbell can delay us (degrade, never hang).
  while (!settled(*req)) {
    ch.parked.push_back(req);
    prof_.bump("ikc.reply.park");
    // Unconditional: the case the watchdog exists for is a completion that
    // already landed (state == done) whose doorbell was lost — a settled()
    // guard would skip exactly that. A wake nobody is waiting for just
    // sits in the request's queue and dies with it; a request nobody holds
    // any more has no waiter, so the watchdog holds it weakly.
    engine_.schedule_after(cfg_.ikc_reply_deadline, [weak = std::weak_ptr<Request>(req)] {
      if (const RequestPtr r = weak.lock()) r->wake.send(kWakeSelfDrain);
    });
    const int why = co_await req->wake.recv();
    std::erase(ch.parked, req);
    ch.reply_posted = 0;
    if (why == kWakeSelfDrain && req->state == Request::State::done)
      prof_.bump("ikc.reply.self_drain");
  }
}

sim::Task<> IkcTransport::deliver_reply(const RequestPtr& req, std::vector<int>& touched) {
  if (req->state == Request::State::abandoned) {
    // Completion for a dead consumer: drop it. The slot shared_ptr dies
    // with the batch; the service loop must not wedge on it.
    prof_.bump("ikc.reply.consumer_dead");
    co_return;
  }
  // Write the completion into the request slot (visible to the polling
  // consumer immediately) and take a reply-ring slot; parked consumers
  // are woken once per channel after the whole batch.
  co_await engine_.delay(cfg_.ikc_reply_post_cost);
  Channel& ch = *channels_[static_cast<std::size_t>(req->channel)];
  req->state = Request::State::done;
  prof_.bump("ikc.reply.post");
  if (ch.reply_posted == ch.reply_capacity) {
    // Reply ring full (consumer parked or slow): fall back to a
    // per-request wakeup so the completion is never lost.
    prof_.bump("ikc.reply.ring_full");
    // Autosize: a ring that keeps filling is undersized for this channel's
    // completion burst, so double it (up to the cap) after a few strikes.
    const auto max_depth = static_cast<std::size_t>(cfg_.ikc_reply_max_depth);
    if (++ch.reply_full_strikes >= cfg_.ikc_reply_autosize_threshold &&
        ch.reply_capacity < max_depth) {
      ch.reply_capacity = std::min(ch.reply_capacity * 2, max_depth);
      ch.reply_full_strikes = 0;
      prof_.bump("ikc.reply.autosize_grow");
    }
    // A lost IPI leaves the consumer to recover by self-drain.
    if (co_await completion_ipi(ch)) {
      std::erase(ch.parked, req);
      req->wake.send(kWakeDoorbell);
    }
    co_return;
  }
  ++ch.reply_posted;
  if (std::find(touched.begin(), touched.end(), req->channel) == touched.end())
    touched.push_back(req->channel);
}

bool IkcTransport::has_work(int loop) const {
  for (int ch : loops_[static_cast<std::size_t>(loop)]->channels)
    if (channel_depth(ch) > 0) return true;
  return false;
}

sim::Task<> IkcTransport::collect_batch(int loop, std::vector<RequestPtr>& out) {
  Loop& lp = *loops_[static_cast<std::size_t>(loop)];
  // Observed depth feeds the adaptive drain limit *before* this drain, so
  // a deepening backlog widens the very next batch.
  std::size_t avail = 0;
  for (int ch : lp.channels) avail += channel_depth(ch);
  if (avail > 0) observe_depth(lp, avail);
  const auto batch_max = static_cast<std::size_t>(lp.batch_limit);

  // Weighted-fair claim: repeatedly pick, among the *heads* of this loop's
  // rings, the request whose job has the smallest virtual time, and pop
  // exactly that head. Head-only claiming keeps per-channel-per-class FIFO
  // intact; vtime (advanced 1/weight per claim) is what splits a loop's
  // drain capacity across *jobs* by weight when the batch limit binds —
  // per job, not per queued request, so a tenant keeping 4 requests in
  // flight gets the same share as one keeping 1.
  // The claim order is lexicographic (vtime, class, age):
  //   * vtime first — class priority is scoped to a tenant's own share. A
  //     global control-first pass would let an offload-heavy tenant (whose
  //     rings nearly always show a control head) ride the control lane
  //     past its vtime budget while an at-floor neighbour's bulk waits.
  //   * class next — within a vtime tie (the common state: every job that
  //     sat out an epoch is clamped up to the floor), control beats bulk,
  //     so a TID-registration ioctl still never waits behind bulk writevs
  //     of tenants at the same virtual time.
  //   * oldest head last — the head's queueing time is exactly the deficit
  //     the floor clamp erased, so a tenant the scan passed over surfaces
  //     at the front of the tie instead of losing to whoever owns the
  //     lowest channel index forever (at hundreds of channels per loop, an
  //     index tie-break turns into persistent low-channel favoritism).
  // A single-job workload ties on vtime everywhere, so every batch claims
  // its control heads before any bulk head, each class oldest first. The
  // per-claim re-scan also sees a control request that arrives *during*
  // this batch's lock/remote-cost awaits and claims it in this batch.
  //
  // Cost model: the lock hand-off and the remote-socket surcharge are paid
  // on the first touch of each (channel, class) ring per batch.
  // Iterate a snapshot: a repartition during one of the touch awaits
  // re-shards `lp.channels` in place, and the live vector must not be
  // walked across its own reassignment. Claims stay safe either way —
  // every pop re-checks the head's state — so a channel that changed
  // owners mid-collect can lose requests to its new loop but never
  // double-execute one.
  const std::vector<int> chans = lp.channels;
  auto touched = std::vector<std::array<bool, 2>>(chans.size(), {false, false});
  auto touch = [&](std::size_t idx, int prio) -> sim::Task<> {
    if (touched[idx][static_cast<std::size_t>(prio)]) co_return;
    touched[idx][static_cast<std::size_t>(prio)] = true;
    Channel& channel = *channels_[static_cast<std::size_t>(chans[idx])];
    if (channel.home_socket == lp.socket) {
      prof_.bump("ikc.numa.local_drain");
    } else {
      prof_.bump("ikc.numa.remote_drain");
      co_await engine_.delay(cfg_.ikc_remote_drain_cost);
    }
    co_await channel.lock.acquire();
    channel.lock.release();
  };
  while (out.size() < batch_max) {
    int best_idx = -1;
    int best_prio = 0;
    double best_vt = 0.0;
    Time best_age = 0;
    for (int prio = 0; prio < 2; ++prio) {
      for (std::size_t idx = 0; idx < chans.size(); ++idx) {
        auto& ring = channels_[static_cast<std::size_t>(chans[idx])]->rings[prio];
        // Scrub settled heads so a timed-out or abandoned entry neither
        // blocks the ring nor votes with its (dead) job's vtime. The first
        // touch of a ring awaits (lock hand-off, remote surcharge), so the
        // head must be re-checked after it before popping.
        while (!ring.empty() && (*ring.front()).state != Request::State::queued) {
          co_await touch(idx, prio);
          if (ring.empty() || (*ring.front()).state == Request::State::queued) break;
          auto req = ring.pop();
          prof_.bump((*req)->state == Request::State::abandoned ? "ikc.ring.dead_skip"
                                                                : "ikc.ring.stale_skip");
        }
        if (ring.empty()) continue;
        const Request& head = *ring.front();
        const double vt = std::max(job(head.job).vtime, vtime_floor_);
        // Lexicographic (vt, prio, age); control is scanned first, so an
        // equal-vt bulk head never displaces a control best.
        if (best_idx < 0 || vt < best_vt ||
            (vt == best_vt && prio == best_prio && head.enqueued_at < best_age)) {
          best_idx = static_cast<int>(idx);
          best_prio = prio;
          best_vt = vt;
          best_age = head.enqueued_at;
        }
      }
    }
    if (best_idx < 0) break;  // every ring empty
    co_await touch(static_cast<std::size_t>(best_idx), best_prio);
    auto& ring =
        channels_[static_cast<std::size_t>(chans[static_cast<std::size_t>(best_idx)])]
            ->rings[best_prio];
    auto req = ring.pop();
    // The touch's awaits advance simulated time: the head the scan chose may
    // have hit its ring-residency deadline (submitter already retrying on
    // another ring) or been abandoned by consumer death in that window, and
    // a concurrent drain may even have emptied the ring. Claiming blindly
    // would overwrite the settled state and execute the service twice, so
    // re-check before claiming.
    if (!req.has_value()) continue;
    if ((*req)->state != Request::State::queued) {
      prof_.bump((*req)->state == Request::State::abandoned ? "ikc.ring.dead_skip"
                                                            : "ikc.ring.stale_skip");
      continue;
    }
    JobState& js = job((*req)->job);
    // An idle job rejoins at the floor instead of replaying its unused
    // past share as a burst (standard WFQ re-arrival rule).
    vtime_floor_ = std::max(js.vtime, vtime_floor_);
    js.vtime = vtime_floor_ + 1.0 / job_weight((*req)->job);
    (*req)->state = Request::State::claimed;
    out.push_back(std::move(*req));
  }
}

sim::Task<> IkcTransport::service_loop(int loop) {
  Loop& lp = *loops_[static_cast<std::size_t>(loop)];
  bool woke_by_doorbell = false;
  std::vector<int> touched;  // channels this batch posted replies to
  while (true) {
    while (lp.stall_injected && !lp.retiring) co_await lp.unstall.recv();
    if (lp.retiring) break;
    lp.batch.clear();
    touched.clear();
    co_await collect_batch(loop, lp.batch);
    if (lp.batch.empty()) {
      // Retirement observes an empty collect: the re-shard already took the
      // channels, so nothing is queued here and nothing was claimed — the
      // loop is quiescent and may exit.
      if (lp.retiring) break;
      // Poll/doorbell hybrid: spin a few short polls while traffic is
      // likely, then park on the doorbell so an idle engine can drain.
      bool found = false;
      for (int spin = 0;
           spin < cfg_.ikc_poll_spins && !lp.stall_injected && !lp.retiring; ++spin) {
        co_await engine_.delay(cfg_.ikc_poll_interval);
        if (has_work(loop)) {
          prof_.bump("ikc.ring.poll_hit");
          found = true;
          break;
        }
      }
      if (!found && !lp.stall_injected && !lp.retiring) {
        lp.sleeping = true;
        co_await lp.doorbell.recv();
        lp.sleeping = false;  // idempotent: the submitter already cleared it
        woke_by_doorbell = true;
      }
      continue;
    }

    prof_.bump("ikc.ring.batch_drain");
    co_await service_cpus_.acquire();
    // One schedule-in per doorbell wakeup covers the whole batch — the
    // amortization the legacy path cannot have. The loop stays cache-hot,
    // so no cold-wakeup scaling, no per-waiter thrash, no proxy-run
    // multiplier; batch size bounds how long a unit is held so IRQ bottom
    // halves still get the pool at batch granularity.
    if (woke_by_doorbell) {
      co_await engine_.delay(cfg_.proxy_wakeup_hot);
      woke_by_doorbell = false;
    }
    for (auto& req : lp.batch) {
      const double queued_us = to_us(engine_.now() - req->enqueued_at);
      queueing_us_.add(queued_us);
      job(req->job).stats.queueing_us.add(queued_us);
      co_await engine_.delay(cfg_.offload_dispatch + cfg_.proxy_min_service);
      Result<long> result = co_await req->service();
      req->result = result;
      co_await deliver_reply(req, touched);
      lp.consecutive_timeouts = 0;  // a served request proves liveness
      ++lp.served;
    }
    // Completion doorbell pass: channels whose consumers parked get one
    // wakeup covering every reply this batch posted there.
    for (int chn : touched) {
      Channel& channel = *channels_[static_cast<std::size_t>(chn)];
      if (channel.parked.empty()) continue;
      if (!co_await completion_ipi(channel)) continue;
      for (auto& waiter : channel.parked) waiter->wake.send(kWakeDoorbell);
      channel.parked.clear();
    }
    service_cpus_.release();
  }
  // Quiesced: every claimed request is delivered, the channels are gone.
  // The retire_loop() caller is parked on this signal.
  lp.retired.send(1);
}

void IkcTransport::inject_stall(int loop, bool stalled) {
  Loop& lp = *loops_.at(static_cast<std::size_t>(loop));
  if (lp.stall_injected == stalled) return;
  lp.stall_injected = stalled;
  if (!stalled) lp.unstall.send(1);
}

void IkcTransport::inject_consumer_death(int channel) {
  // The LWK process owning this channel dies: each unsettled request of
  // it resolves to EINTR on the (dead) submitter side. It is queued in the
  // channel's rings (skipped as dead at pop) or claimed in some loop's
  // batch, a retiring loop's too (its completion is dropped at delivery).
  Channel& ch = *channels_.at(static_cast<std::size_t>(channel));
  auto kill = [channel](const RequestPtr& req) {
    if (req->channel != channel || settled(*req)) return;
    req->state = Request::State::abandoned;
    req->wake.send(kWakeDeath);
  };
  for (const auto& ring : ch.rings) ring.for_each(kill);
  for (const auto& lp : loops_)
    for (const auto& req : lp->batch) kill(req);
  ch.parked.clear();
}

void IkcTransport::inject_reply_doorbell_loss(int channel, bool lost) {
  channels_.at(static_cast<std::size_t>(channel))->reply_doorbell_lost = lost;
}

}  // namespace pd::ikc
