#include "src/mpirt/world.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/log.hpp"

namespace pd::mpirt {

using namespace pd::time_literals;

namespace {
constexpr int kCollTagBase = 0x4000'0000;
constexpr std::uint64_t kTinyMsg = 8;  // control payloads in collectives

/// log2 of a power-of-two mask (tag-round index for binomial phases).
int mask_round(int mask) {
  int r = 0;
  while (mask >>= 1) ++r;
  return r;
}
}  // namespace

// --------------------------------------------------------------------------
// MpiWorld
// --------------------------------------------------------------------------

MpiWorld::MpiWorld(Cluster& cluster, WorldOptions opts)
    : cluster_(cluster), opts_(opts) {
  const int total = cluster_.num_nodes() * opts_.ranks_per_node;
  ranks_.reserve(static_cast<std::size_t>(total));
  inboxes_.resize(static_cast<std::size_t>(total));
  for (int r = 0; r < total; ++r) {
    auto proc = cluster_.make_process(node_of(r), ctxt_of(r));
    auto& node = cluster_.node(node_of(r));
    auto ep = std::make_unique<psm::Endpoint>(*proc, *node.device, node.pico.get());
    ranks_.push_back(std::make_unique<Rank>(*this, r, std::move(proc), std::move(ep)));
  }
}

void MpiWorld::run(const std::function<sim::Task<>(Rank&)>& body) {
  completed_ = 0;
  for (auto& rank : ranks_) {
    sim::spawn(cluster_.engine(), [](MpiWorld* world, Rank* r,
                                     const std::function<sim::Task<>(Rank&)>& fn) -> sim::Task<> {
      co_await fn(*r);
      ++world->completed_;
    }(this, rank.get(), body));
  }
  cluster_.engine().run();
  assert(completed_ == size() && "some rank did not run to completion (deadlock?)");
}

MpiStatsTable MpiWorld::stats_table() const {
  MpiStatsTable table;
  for (const auto& rank : ranks_) table.add_rank(rank->stats());
  return table;
}

// --- collective algorithm selection (I_MPI_ADJUST-style crossover) ---------

const char* MpiWorld::allreduce_algo(std::uint64_t bytes) const {
  const CollectiveTuning& t = opts_.tuning;
  if (!t.force_allreduce.empty()) return t.force_allreduce.c_str();
  const int leaders = cluster_.num_nodes();
  if (leaders >= t.allreduce_ring_min_leaders && bytes >= t.allreduce_ring_bytes)
    return "ring";
  if (bytes >= t.allreduce_rd_bytes) return "recursive_doubling";
  return "dissemination";
}

const char* MpiWorld::bcast_algo(std::uint64_t bytes) const {
  const CollectiveTuning& t = opts_.tuning;
  if (!t.force_bcast.empty()) return t.force_bcast.c_str();
  const int leaders = cluster_.num_nodes();
  if (leaders >= t.bcast_chain_min_leaders && bytes >= t.bcast_chain_bytes)
    return "chain";
  return "binomial";
}

const char* MpiWorld::alltoall_algo(std::uint64_t bytes_per_pair,
                                    std::uint64_t sdma_threshold) const {
  const CollectiveTuning& t = opts_.tuning;
  if (!t.force_alltoall.empty()) return t.force_alltoall.c_str();
  const std::uint64_t cutover =
      t.alltoall_pairwise_bytes > 0 ? t.alltoall_pairwise_bytes : sdma_threshold;
  return bytes_per_pair <= cutover ? "spread" : "pairwise";
}

Dur MpiWorld::max_runtime() const {
  Dur worst = 0;
  for (const auto& rank : ranks_) worst = std::max(worst, rank->stats().runtime());
  return worst;
}

Dur MpiWorld::max_solve() const {
  Dur worst = 0;
  for (const auto& rank : ranks_) worst = std::max(worst, rank->stats().solve());
  return worst;
}

void MpiWorld::shm_send(int src, int dst, int tag, std::uint64_t bytes) {
  // Copy through the shared-memory segment, then match at the destination.
  sim::spawn(cluster_.engine(), [](MpiWorld* world, int s, int d, int t,
                                   std::uint64_t len) -> sim::Task<> {
    const os::Config& cfg = world->cluster_.options().cfg;
    co_await world->cluster_.engine().delay(
        300_ns + transfer_time(len, cfg.memcpy_bytes_per_sec));
    ShmInbox& inbox = world->inboxes_[static_cast<std::size_t>(d)];
    auto it = std::find_if(inbox.posted.begin(), inbox.posted.end(), [&](const ShmPosted& p) {
      return p.src == s && p.tag == t;
    });
    if (it != inbox.posted.end()) {
      MpiReq req = it->req;
      inbox.posted.erase(it);
      req->done.trigger();
    } else {
      inbox.unexpected.push_back(ShmPending{s, t, len});
    }
  }(this, src, dst, tag, bytes));
}

void MpiWorld::shm_post(int dst, MpiReq req, int src, int tag) {
  ShmInbox& inbox = inboxes_[static_cast<std::size_t>(dst)];
  auto it = std::find_if(inbox.unexpected.begin(), inbox.unexpected.end(),
                         [&](const ShmPending& p) { return p.src == src && p.tag == tag; });
  if (it != inbox.unexpected.end()) {
    inbox.unexpected.erase(it);
    req->done.trigger();
    return;
  }
  inbox.posted.push_back(ShmPosted{std::move(req), src, tag});
}

// --------------------------------------------------------------------------
// Rank — plumbing
// --------------------------------------------------------------------------

Rank::Rank(MpiWorld& world, int id, std::unique_ptr<os::Process> proc,
           std::unique_ptr<psm::Endpoint> ep)
    : world_(world), id_(id), proc_(std::move(proc)), ep_(std::move(ep)) {}

mem::VirtAddr Rank::send_slot(std::uint64_t bytes) {
  const auto& opts = world_.options();
  if (bytes > opts.slot_bytes) return sendbuf_;  // big messages use offset 0
  const std::uint64_t slots = opts.buf_bytes / opts.slot_bytes;
  return sendbuf_ + (send_slot_idx_++ % slots) * opts.slot_bytes;
}

mem::VirtAddr Rank::recv_slot(std::uint64_t bytes) {
  const auto& opts = world_.options();
  if (bytes > opts.slot_bytes) return recvbuf_;
  const std::uint64_t slots = opts.buf_bytes / opts.slot_bytes;
  return recvbuf_ + (recv_slot_idx_++ % slots) * opts.slot_bytes;
}

int Rank::coll_tag(int round) const {
  return kCollTagBase | static_cast<int>((coll_seq_ & 0xFFFFFF) << 6) | round;
}

MpiReq Rank::post_send(int dst, int tag, std::uint64_t bytes) {
  ++sent_msgs_;
  sent_bytes_ += bytes;
  auto req = std::make_shared<MpiReqState>(world_.cluster_.engine());
  if (world_.node_of(dst) == node()) {
    world_.shm_send(id_, dst, tag, bytes);
    // Shared-memory sends complete locally once copied; model them as
    // immediately complete for the sender.
    req->done.trigger();
    return req;
  }
  req->psm = ep_->isend(psm::EndpointId{world_.node_of(dst), world_.ctxt_of(dst)},
                        static_cast<std::uint64_t>(tag), bytes, send_slot(bytes));
  return req;
}

MpiReq Rank::post_recv(int src, int tag, std::uint64_t bytes) {
  ++recvd_msgs_;
  recvd_bytes_ += bytes;
  auto req = std::make_shared<MpiReqState>(world_.cluster_.engine());
  if (world_.node_of(src) == node()) {
    world_.shm_post(id_, req, src, tag);
    return req;
  }
  req->psm = ep_->irecv(psm::EndpointId{world_.node_of(src), world_.ctxt_of(src)},
                        static_cast<std::uint64_t>(tag), bytes, recv_slot(bytes));
  return req;
}

sim::Task<> Rank::await_req(MpiReq req) {
  if (req->psm == nullptr) {
    co_await req->done.wait();
    co_return;
  }
  co_await ep_->wait(req->psm);
}

sim::Task<> Rank::sendrecv(int dst, int src, int tag, std::uint64_t bytes) {
  MpiReq r = post_recv(src, tag, bytes);
  MpiReq s = post_send(dst, tag, bytes);
  co_await await_req(s);
  co_await await_req(r);
}

// --------------------------------------------------------------------------
// Rank — MPI surface
// --------------------------------------------------------------------------

sim::Task<> Rank::init() {
  init_start_ = world_.cluster_.engine().now();
  // Application communication buffers are the app's own allocations, not
  // MPI_Init work — keep them outside the recorded Init window (they still
  // show up in the kernel profiler as mmap time).
  auto sb = co_await proc_->mmap_anon(world_.options().buf_bytes);
  auto rb = co_await proc_->mmap_anon(world_.options().buf_bytes);
  assert(sb.ok() && rb.ok());
  sendbuf_ = *sb;
  recvbuf_ = *rb;

  const Time t0 = world_.cluster_.engine().now();
  Status s = co_await ep_->init();
  assert(s.ok());
  (void)s;
  co_await barrier_impl();  // the synchronization at the end of Init
  stats_.record("Init", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::finalize() {
  const Time t0 = world_.cluster_.engine().now();
  co_await barrier_impl();
  (void)co_await proc_->munmap(sendbuf_, world_.options().buf_bytes);
  (void)co_await proc_->munmap(recvbuf_, world_.options().buf_bytes);
  co_await ep_->finalize();
  stats_.record("Finalize", world_.cluster_.engine().now() - t0);
  stats_.set_runtime(world_.cluster_.engine().now() - init_start_);
}

MpiReq Rank::isend(int dst, int tag, std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  MpiReq req = post_send(dst, tag, bytes);
  stats_.record("Isend", world_.cluster_.engine().now() - t0);
  return req;
}

MpiReq Rank::irecv(int src, int tag, std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  MpiReq req = post_recv(src, tag, bytes);
  stats_.record("Irecv", world_.cluster_.engine().now() - t0);
  return req;
}

sim::Task<> Rank::wait(MpiReq req) {
  const Time t0 = world_.cluster_.engine().now();
  co_await await_req(std::move(req));
  stats_.record("Wait", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::waitall(std::vector<MpiReq> reqs) {
  const Time t0 = world_.cluster_.engine().now();
  for (auto& r : reqs) co_await await_req(std::move(r));
  stats_.record("Waitall", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::send(int dst, int tag, std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  MpiReq req = post_send(dst, tag, bytes);
  co_await await_req(std::move(req));
  stats_.record("Send", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::recv(int src, int tag, std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  MpiReq req = post_recv(src, tag, bytes);
  co_await await_req(std::move(req));
  stats_.record("Recv", world_.cluster_.engine().now() - t0);
}

Rank::MpiPersist Rank::send_init(int dst, int tag, std::uint64_t bytes) {
  auto p = std::make_shared<Persistent>();
  p->is_send = true;
  p->peer = dst;
  p->tag = tag;
  p->bytes = bytes;
  return p;
}

Rank::MpiPersist Rank::recv_init(int src, int tag, std::uint64_t bytes) {
  auto p = std::make_shared<Persistent>();
  p->is_send = false;
  p->peer = src;
  p->tag = tag;
  p->bytes = bytes;
  return p;
}

void Rank::start(const MpiPersist& p) {
  const Time t0 = world_.cluster_.engine().now();
  assert(p->active == nullptr && "persistent request already active");
  p->active = p->is_send ? post_send(p->peer, p->tag, p->bytes)
                         : post_recv(p->peer, p->tag, p->bytes);
  stats_.record("Start", world_.cluster_.engine().now() - t0);
}

void Rank::startall(const std::vector<MpiPersist>& ps) {
  for (const auto& p : ps) start(p);
}

sim::Task<> Rank::wait(const MpiPersist& p) {
  const Time t0 = world_.cluster_.engine().now();
  assert(p->active != nullptr && "wait on unstarted persistent request");
  MpiReq req = std::move(p->active);
  p->active = nullptr;
  co_await await_req(std::move(req));
  stats_.record("Wait", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::waitall_persist(const std::vector<MpiPersist>& ps) {
  const Time t0 = world_.cluster_.engine().now();
  for (const auto& p : ps) {
    if (p->active == nullptr) continue;
    MpiReq req = std::move(p->active);
    p->active = nullptr;
    co_await await_req(std::move(req));
  }
  stats_.record("Waitall", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::dissemination(std::uint64_t bytes_per_round) {
  const int P = world_.size();
  for (int k = 0, step = 1; step < P; ++k, step <<= 1) {
    const int dst = (id_ + step) % P;
    const int src = (id_ - step % P + P) % P;
    co_await sendrecv(dst, src, coll_tag(k), bytes_per_round);
  }
}

// --- hierarchical building blocks (intra-node over shared memory, node
// leaders on the fabric) ----------------------------------------------------

int Rank::node_leader() const {
  return (id_ / world_.opts_.ranks_per_node) * world_.opts_.ranks_per_node;
}

int Rank::local_index() const { return id_ % world_.opts_.ranks_per_node; }

int Rank::num_nodes() const {
  const int rpn = world_.opts_.ranks_per_node;
  return (world_.size() + rpn - 1) / rpn;
}

/// Binomial reduction of the node's ranks onto the leader (tag rounds 0..5).
sim::Task<> Rank::intra_reduce_to_leader(std::uint64_t bytes) {
  const int m = std::min(world_.opts_.ranks_per_node, world_.size());
  const int l = local_index();
  for (int mask = 1; mask < m; mask <<= 1) {
    if (l & mask) {
      MpiReq s = post_send(id_ - mask, coll_tag(mask_round(mask)), bytes);
      co_await await_req(std::move(s));
      break;
    }
    if (l + mask < m) {
      MpiReq r = post_recv(id_ + mask, coll_tag(mask_round(mask)), bytes);
      co_await await_req(std::move(r));
    }
  }
}

/// Binomial release from the leader to the node's ranks (tag rounds 16..21).
sim::Task<> Rank::intra_release_from_leader(std::uint64_t bytes) {
  const int m = std::min(world_.opts_.ranks_per_node, world_.size());
  const int l = local_index();
  int mask = 1;
  while (mask < m) {
    if (l & mask) {
      MpiReq r = post_recv(id_ - mask, coll_tag(16 + mask_round(mask)), bytes);
      co_await await_req(std::move(r));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (l + mask < m && (l & mask) == 0) {
      MpiReq s = post_send(id_ + mask, coll_tag(16 + mask_round(mask)), bytes);
      co_await await_req(std::move(s));
    }
    mask >>= 1;
  }
}

/// Dissemination among node leaders (tag rounds 32..47); only leaders call.
sim::Task<> Rank::leader_dissemination(std::uint64_t bytes) {
  const int rpn = world_.opts_.ranks_per_node;
  const int nodes = (world_.size() + rpn - 1) / rpn;
  const int my_node = id_ / rpn;
  for (int k = 0, step = 1; step < nodes; ++k, step <<= 1) {
    const int dst = ((my_node + step) % nodes) * rpn;
    const int src = ((my_node - step % nodes + nodes) % nodes) * rpn;
    co_await sendrecv(dst, src, coll_tag(32 + k), bytes);
  }
}

/// Recursive-doubling allreduce among node leaders (MPICH shape): fold the
/// non-power-of-two remainder onto even partners (tag round 47), exchange
/// the full vector pairwise over log2 rounds (32+k), unfold (46). Fewer
/// messages than dissemination once the payload dwarfs per-message latency.
sim::Task<> Rank::leader_recursive_doubling(std::uint64_t bytes) {
  const int rpn = world_.opts_.ranks_per_node;
  const int nodes = num_nodes();
  if (nodes < 2) co_return;
  const int v = id_ / rpn;
  const auto leader = [rpn](int n) { return n * rpn; };
  int pow2 = 1;
  while (pow2 * 2 <= nodes) pow2 *= 2;
  const int rem = nodes - pow2;
  int newid = -1;  // -1 = folded out of the exchange phase
  if (v < 2 * rem) {
    if (v & 1) {
      MpiReq s = post_send(leader(v - 1), coll_tag(47), bytes);
      co_await await_req(std::move(s));
    } else {
      MpiReq r = post_recv(leader(v + 1), coll_tag(47), bytes);
      co_await await_req(std::move(r));
      newid = v / 2;
    }
  } else {
    newid = v - rem;
  }
  if (newid >= 0) {
    for (int mask = 1; mask < pow2; mask <<= 1) {
      const int pn = newid ^ mask;
      const int pv = pn < rem ? pn * 2 : pn + rem;
      co_await sendrecv(leader(pv), leader(pv), coll_tag(32 + mask_round(mask)),
                        bytes);
    }
  }
  if (v < 2 * rem) {
    if (v & 1) {
      MpiReq r = post_recv(leader(v - 1), coll_tag(46), bytes);
      co_await await_req(std::move(r));
    } else {
      MpiReq s = post_send(leader(v + 1), coll_tag(46), bytes);
      co_await await_req(std::move(s));
    }
  }
}

/// Ring allreduce among node leaders: reduce-scatter then allgather, each
/// N-1 lock-stepped steps of one 1/N chunk to the right neighbour — the
/// bandwidth-optimal shape for large vectors. Steps are sequential per
/// (src, dst), so the 14-slot tag window (32 + step % 14) cannot collide.
sim::Task<> Rank::leader_ring_allreduce(std::uint64_t bytes) {
  const int rpn = world_.opts_.ranks_per_node;
  const int nodes = num_nodes();
  if (nodes < 2) co_return;
  const int v = id_ / rpn;
  const int right = ((v + 1) % nodes) * rpn;
  const int left = ((v - 1 + nodes) % nodes) * rpn;
  const std::uint64_t chunk =
      (bytes + static_cast<std::uint64_t>(nodes) - 1) /
      static_cast<std::uint64_t>(nodes);
  for (int step = 0; step < 2 * (nodes - 1); ++step)
    co_await sendrecv(right, left, coll_tag(32 + step % 14), chunk);
}

/// Pipelined-chain bcast among node leaders, rooted at `root_node`: the
/// payload streams down the chain in `chain_segment_bytes` segments, so
/// leader i forwards segment s while leader i-1 is already sending s+1 —
/// O(N + S) segment times instead of the binomial's log2(N) full-payload
/// hops. Worth it only for payloads long enough to fill the pipeline.
sim::Task<> Rank::leader_chain_bcast(int root_node, std::uint64_t bytes) {
  const int rpn = world_.opts_.ranks_per_node;
  const int nodes = num_nodes();
  if (nodes < 2) co_return;
  const int my_node = id_ / rpn;
  const int vnode = (my_node - root_node + nodes) % nodes;
  const int prev = ((my_node - 1 + nodes) % nodes) * rpn;
  const int next = ((my_node + 1) % nodes) * rpn;
  const std::uint64_t seg = std::max<std::uint64_t>(
      1, std::min(world_.opts_.tuning.chain_segment_bytes, bytes));
  const std::uint64_t nseg = (bytes + seg - 1) / seg;
  for (std::uint64_t s = 0; s < nseg; ++s) {
    const std::uint64_t len = std::min(seg, bytes - s * seg);
    const int tag = coll_tag(32 + static_cast<int>(s % 14));
    if (vnode > 0) {
      MpiReq r = post_recv(prev, tag, len);
      co_await await_req(std::move(r));
    }
    if (vnode + 1 < nodes) {
      MpiReq snd = post_send(next, tag, len);
      co_await await_req(std::move(snd));
    }
  }
}

sim::Task<> Rank::barrier_impl() {
  ++coll_seq_;
  co_await intra_reduce_to_leader(kTinyMsg);
  if (id_ == node_leader()) co_await leader_dissemination(kTinyMsg);
  co_await intra_release_from_leader(kTinyMsg);
}

sim::Task<> Rank::barrier() {
  const Time t0 = world_.cluster_.engine().now();
  co_await barrier_impl();
  stats_.record("Barrier", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::allreduce(std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  ++coll_seq_;
  // Hierarchical: node-local reduce, leaders allreduce over the fabric,
  // node-local broadcast (the Intel MPI shared-memory topology). The
  // fabric phase is algorithm-selected by the size/leader-count crossover.
  const char* algo = world_.allreduce_algo(bytes);
  stats_.record_algo("Allreduce", algo);
  co_await intra_reduce_to_leader(bytes);
  if (id_ == node_leader()) {
    if (std::strcmp(algo, "ring") == 0)
      co_await leader_ring_allreduce(bytes);
    else if (std::strcmp(algo, "recursive_doubling") == 0)
      co_await leader_recursive_doubling(bytes);
    else
      co_await leader_dissemination(bytes);
  }
  co_await intra_release_from_leader(bytes);
  stats_.record("Allreduce", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::allgather_impl(std::uint64_t bytes_per_rank) {
  // Recursive doubling: exchanged volume doubles every round.
  ++coll_seq_;
  const int P = world_.size();
  std::uint64_t chunk = bytes_per_rank;
  const std::uint64_t cap = world_.options().buf_bytes / 2;
  for (int k = 0, step = 1; step < P; ++k, step <<= 1) {
    const int dst = (id_ + step) % P;
    const int src = (id_ - step % P + P) % P;
    co_await sendrecv(dst, src, coll_tag(k), std::min(chunk, cap));
    chunk = std::min(chunk * 2, cap);
  }
}

sim::Task<> Rank::bcast_impl(int root, std::uint64_t bytes) {
  ++coll_seq_;
  const int rpn = world_.opts_.ranks_per_node;
  const int nodes = (world_.size() + rpn - 1) / rpn;
  const int root_node = root / rpn;
  const int root_leader = root_node * rpn;

  // Phase 0: the root hands the payload to its node leader (shared mem).
  if (root != root_leader) {
    if (id_ == root) {
      MpiReq s = post_send(root_leader, coll_tag(62), bytes);
      co_await await_req(std::move(s));
    } else if (id_ == root_leader) {
      MpiReq r = post_recv(root, coll_tag(62), bytes);
      co_await await_req(std::move(r));
    }
  }

  // Phase 1: fabric broadcast among node leaders — binomial tree or
  // pipelined chain per the size/leader-count crossover.
  if (id_ == node_leader() && nodes > 1) {
    if (std::strcmp(world_.bcast_algo(bytes), "chain") == 0) {
      co_await leader_chain_bcast(root_node, bytes);
    } else {
      const int my_node = id_ / rpn;
      const int vnode = (my_node - root_node + nodes) % nodes;
      int mask = 1;
      while (mask < nodes) {
        if (vnode & mask) {
          const int src = ((my_node - mask + nodes) % nodes) * rpn;
          MpiReq r = post_recv(src, coll_tag(32 + mask_round(mask)), bytes);
          co_await await_req(std::move(r));
          break;
        }
        mask <<= 1;
      }
      mask >>= 1;
      while (mask > 0) {
        if (vnode + mask < nodes && (vnode & mask) == 0) {
          const int dst = ((my_node + mask) % nodes) * rpn;
          MpiReq s = post_send(dst, coll_tag(32 + mask_round(mask)), bytes);
          co_await await_req(std::move(s));
        }
        mask >>= 1;
      }
    }
  }

  // Phase 2: node-local release over shared memory.
  co_await intra_release_from_leader(bytes);
}

sim::Task<> Rank::bcast(int root, std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  stats_.record_algo("Bcast", world_.bcast_algo(bytes));
  co_await bcast_impl(root, bytes);
  stats_.record("Bcast", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::alltoall_impl(const std::vector<int>& members,
                                std::uint64_t bytes_per_pair, const char* algo) {
  ++coll_seq_;
  auto self = std::find(members.begin(), members.end(), id_);
  if (self == members.end()) co_return;
  const int m = static_cast<int>(members.size());
  const int i = static_cast<int>(self - members.begin());
  if (std::strcmp(algo, "pairwise") == 0) {
    // Large payloads: pairwise rounds bound rendezvous concurrency. The
    // tag round wraps through the 14-slot window; rounds are lock-stepped
    // per (src, dst) so reuse cannot mis-match.
    for (int step = 1; step < m; ++step) {
      const int dst = members[static_cast<std::size_t>((i + step) % m)];
      const int src = members[static_cast<std::size_t>((i - step + m) % m)];
      co_await sendrecv(dst, src, coll_tag(1 + (step - 1) % 14),
                        bytes_per_pair);
    }
  } else {
    // Small per-pair payloads: post everything, then drain ("spread").
    std::vector<MpiReq> reqs;
    reqs.reserve(static_cast<std::size_t>(2 * (m - 1)));
    for (int step = 1; step < m; ++step) {
      const int partner = members[static_cast<std::size_t>((i + step) % m)];
      reqs.push_back(post_recv(partner, coll_tag(0), bytes_per_pair));
    }
    for (int step = 1; step < m; ++step) {
      const int partner = members[static_cast<std::size_t>((i + step) % m)];
      reqs.push_back(post_send(partner, coll_tag(0), bytes_per_pair));
    }
    for (auto& r : reqs) co_await await_req(std::move(r));
  }
}

sim::Task<> Rank::alltoallv(const std::vector<int>& members, std::uint64_t bytes_per_pair) {
  const Time t0 = world_.cluster_.engine().now();
  const char* algo =
      world_.alltoall_algo(bytes_per_pair, proc_->kernel().config().sdma_threshold);
  stats_.record_algo("Alltoallv", algo);
  co_await alltoall_impl(members, bytes_per_pair, algo);
  stats_.record("Alltoallv", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::alltoall(std::uint64_t bytes_per_pair) {
  const Time t0 = world_.cluster_.engine().now();
  const char* algo =
      world_.alltoall_algo(bytes_per_pair, proc_->kernel().config().sdma_threshold);
  stats_.record_algo("Alltoall", algo);
  std::vector<int> everyone(static_cast<std::size_t>(world_.size()));
  for (int r = 0; r < world_.size(); ++r)
    everyone[static_cast<std::size_t>(r)] = r;
  co_await alltoall_impl(everyone, bytes_per_pair, algo);
  stats_.record("Alltoall", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::scan(std::uint64_t bytes) {
  const Time t0 = world_.cluster_.engine().now();
  ++coll_seq_;
  const int P = world_.size();
  if (id_ > 0) {
    MpiReq r = post_recv(id_ - 1, coll_tag(0), bytes);
    co_await await_req(std::move(r));
  }
  if (id_ + 1 < P) {
    MpiReq s = post_send(id_ + 1, coll_tag(0), bytes);
    co_await await_req(std::move(s));
  }
  stats_.record("Scan", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::cart_create() {
  const Time t0 = world_.cluster_.engine().now();
  // Topology setup: coordinate exchange + synchronization + local
  // communicator bookkeeping (allocation churn included — this call is
  // memory-management heavy in real MPI implementations).
  co_await allgather_impl(kTinyMsg);
  auto staging = co_await proc_->mmap_anon(1ull << 20);
  if (staging.ok()) (void)co_await proc_->munmap(*staging, 1ull << 20);
  co_await proc_->compute(from_us(200));
  ++coll_seq_;
  co_await dissemination(kTinyMsg);
  stats_.record("Cart_create", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::comm_create() {
  const Time t0 = world_.cluster_.engine().now();
  co_await allgather_impl(kTinyMsg);
  ++coll_seq_;
  co_await dissemination(kTinyMsg);
  stats_.record("Comm_create", world_.cluster_.engine().now() - t0);
}

sim::Task<> Rank::compute(Dur work) { co_await proc_->compute(work); }

void Rank::solve_begin() {
  solve_start_ = world_.cluster().engine().now();
  // Scope the kernel profiler to the solve region (the paper's per-app
  // kernel profiles are dominated by the solve loop on production-length
  // runs; our runs are short, so Init would otherwise pollute them). The
  // node leader clears its node's kernel profiler once.
  if (local_index() == 0) kernel_profiler().clear();
}

void Rank::solve_end() {
  stats_.set_solve(world_.cluster().engine().now() - solve_start_);
}

}  // namespace pd::mpirt
