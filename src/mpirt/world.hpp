// A minimal MPI-like runtime over the PSM endpoints, with an intra-node
// shared-memory transport (as Intel MPI uses on OFP: only inter-node
// traffic touches the HFI driver and thus the syscall paths the paper is
// about).
//
// Collectives are hierarchical (shared memory within the node, only node
// leaders on the fabric) and — like a real MPI — *algorithm-selected* by a
// size/rank-count crossover (`CollectiveTuning`): allreduce switches
// dissemination → recursive doubling → ring as payloads grow, bcast
// switches binomial tree → pipelined chain, and alltoall switches
// spread (post-everything) → pairwise rounds. What matters for the
// reproduction is the *message pattern and sizes* each algorithm generates,
// which drive the protocol selection in PSM and from there the per-OS-mode
// syscall behaviour — and, at scale, how often the whole communicator waits
// on one noisy straggler (the OS-noise amplification study). Every rank
// tags the algorithm that actually ran into its stats (I_MPI_STATS-style).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/mpirt/cluster.hpp"
#include "src/mpirt/stats.hpp"
#include "src/psm/endpoint.hpp"

namespace pd::mpirt {

/// Size/rank-count crossover knobs for collective algorithm selection
/// (I_MPI_ADJUST-style). Defaults keep the seed's tiny-payload behaviour
/// (dissemination / binomial) and switch algorithms where the textbook
/// cost models actually cross over. A `force_*` string pins the algorithm
/// for ablation sweeps; empty means auto.
struct CollectiveTuning {
  // Allreduce leader phase: below `allreduce_rd_bytes` stay with the
  // latency-optimal dissemination butterfly; from there recursive doubling
  // (fewer rounds at full payload); at `allreduce_ring_bytes` with at least
  // `allreduce_ring_min_leaders` leaders, the bandwidth-optimal ring
  // (reduce-scatter + allgather, 2(N-1) chunk steps).
  std::uint64_t allreduce_rd_bytes = 1024;
  std::uint64_t allreduce_ring_bytes = 256ull << 10;
  int allreduce_ring_min_leaders = 4;
  // Bcast leader phase: binomial tree below, pipelined chain at/above
  // `bcast_chain_bytes` when at least `bcast_chain_min_leaders` leaders
  // give the pipeline depth to hide the chain's O(N) latency.
  std::uint64_t bcast_chain_bytes = 1ull << 20;
  int bcast_chain_min_leaders = 8;
  // Chain pipelining grain for bcast.
  std::uint64_t chain_segment_bytes = 64ull << 10;
  // Alltoall: per-pair payloads <= this use spread (post everything, then
  // drain); larger use pairwise sendrecv rounds that bound rendezvous
  // concurrency. 0 = follow the node's sdma_threshold (the seed behaviour).
  std::uint64_t alltoall_pairwise_bytes = 0;
  // Ablation pins: "dissemination" | "recursive_doubling" | "ring",
  // "binomial" | "chain", "spread" | "pairwise".
  std::string force_allreduce;
  std::string force_bcast;
  std::string force_alltoall;
};

struct WorldOptions {
  int ranks_per_node = 32;
  std::uint64_t buf_bytes = 4ull << 20;   // per-direction comm buffer
  std::uint64_t slot_bytes = 256ull << 10;  // rotation grain for small msgs
  CollectiveTuning tuning;
};

class MpiWorld;

/// One nonblocking-operation handle: a PSM request on the remote
/// transport; a null `psm` marks a shared-memory one, completed by `done`.
struct MpiReqState {
  explicit MpiReqState(sim::Engine& engine) : done(engine) {}

  psm::PsmHandle psm;
  sim::Latch done;  // shm transport: triggered once complete
};
using MpiReq = std::shared_ptr<MpiReqState>;

class Rank {
 public:
  Rank(MpiWorld& world, int id, std::unique_ptr<os::Process> proc,
       std::unique_ptr<psm::Endpoint> ep);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const { return id_; }
  int node() const { return proc_->node(); }
  MpiWorld& world() { return world_; }
  os::Process& process() { return *proc_; }
  psm::Endpoint& endpoint() { return *ep_; }
  MpiStats& stats() { return stats_; }
  const MpiStats& stats() const { return stats_; }

  /// --- MPI surface (each call records into stats()) -----------------------
  sim::Task<> init();
  sim::Task<> finalize();

  MpiReq isend(int dst, int tag, std::uint64_t bytes);
  MpiReq irecv(int src, int tag, std::uint64_t bytes);
  sim::Task<> wait(MpiReq req);
  sim::Task<> waitall(std::vector<MpiReq> reqs);
  sim::Task<> send(int dst, int tag, std::uint64_t bytes);
  sim::Task<> recv(int src, int tag, std::uint64_t bytes);

  /// Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start):
  /// UMT2013 uses these, and MPI_Start shows up in its Table-1 profile.
  /// The handle is re-armed by start(); wait() completes one round.
  struct Persistent {
    bool is_send = false;
    int peer = 0;
    int tag = 0;
    std::uint64_t bytes = 0;
    MpiReq active;  // the in-flight round, null when idle
  };
  using MpiPersist = std::shared_ptr<Persistent>;

  MpiPersist send_init(int dst, int tag, std::uint64_t bytes);
  MpiPersist recv_init(int src, int tag, std::uint64_t bytes);
  /// MPI_Start: arm one round. Recorded as "Start" (Table 1).
  void start(const MpiPersist& p);
  void startall(const std::vector<MpiPersist>& ps);
  sim::Task<> wait(const MpiPersist& p);
  sim::Task<> waitall_persist(const std::vector<MpiPersist>& ps);

  sim::Task<> barrier();
  sim::Task<> allreduce(std::uint64_t bytes);
  sim::Task<> bcast(int root, std::uint64_t bytes);
  /// Full personalized exchange: every rank sends `bytes_per_pair` to every
  /// other rank (MPI_Alltoall; the FFT-transpose pattern).
  sim::Task<> alltoall(std::uint64_t bytes_per_pair);
  /// Exchange among `members` (every world rank must still call this for
  /// tag bookkeeping; non-members return immediately).
  sim::Task<> alltoallv(const std::vector<int>& members, std::uint64_t bytes_per_pair);
  sim::Task<> scan(std::uint64_t bytes);
  sim::Task<> cart_create();
  sim::Task<> comm_create();

  /// Application compute (noise-modelled, not counted as MPI time).
  sim::Task<> compute(Dur work);

  /// Bracket the solve region (figure-of-merit window).
  void solve_begin();
  void solve_end();

  /// --- point-to-point traffic accounting (rank-local) ----------------------
  /// Messages/bytes this rank posted, by direction. The collective property
  /// harness compares these totals against the textbook reference models.
  std::uint64_t sent_msgs() const { return sent_msgs_; }
  std::uint64_t sent_bytes() const { return sent_bytes_; }
  std::uint64_t recvd_msgs() const { return recvd_msgs_; }
  std::uint64_t recvd_bytes() const { return recvd_bytes_; }

 private:
  friend class MpiWorld;

  MpiReq post_send(int dst, int tag, std::uint64_t bytes);
  MpiReq post_recv(int src, int tag, std::uint64_t bytes);
  sim::Task<> await_req(MpiReq req);
  sim::Task<> sendrecv(int dst, int src, int tag, std::uint64_t bytes);

  sim::Task<> barrier_impl();
  sim::Task<> dissemination(std::uint64_t bytes_per_round);
  sim::Task<> allgather_impl(std::uint64_t bytes_per_rank);
  sim::Task<> bcast_impl(int root, std::uint64_t bytes);
  sim::Task<> alltoall_impl(const std::vector<int>& members,
                            std::uint64_t bytes_per_pair, const char* algo);

  // Hierarchical collective building blocks (Intel-MPI style: shared
  // memory within the node, only node leaders on the fabric).
  int node_leader() const;
  int local_index() const;
  int num_nodes() const;
  os::SyscallProfiler& kernel_profiler() { return proc_->kernel().profiler(); }
  sim::Task<> intra_reduce_to_leader(std::uint64_t bytes);
  sim::Task<> intra_release_from_leader(std::uint64_t bytes);
  sim::Task<> leader_dissemination(std::uint64_t bytes);
  sim::Task<> leader_recursive_doubling(std::uint64_t bytes);
  sim::Task<> leader_ring_allreduce(std::uint64_t bytes);
  sim::Task<> leader_chain_bcast(int root_node, std::uint64_t bytes);

  mem::VirtAddr send_slot(std::uint64_t bytes);
  mem::VirtAddr recv_slot(std::uint64_t bytes);
  int coll_tag(int round) const;

  MpiWorld& world_;
  int id_;
  std::unique_ptr<os::Process> proc_;
  std::unique_ptr<psm::Endpoint> ep_;
  MpiStats stats_;

  mem::VirtAddr sendbuf_ = 0;
  mem::VirtAddr recvbuf_ = 0;
  std::uint64_t sent_msgs_ = 0;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t recvd_msgs_ = 0;
  std::uint64_t recvd_bytes_ = 0;
  std::uint64_t send_slot_idx_ = 0;
  std::uint64_t recv_slot_idx_ = 0;
  std::uint32_t coll_seq_ = 0;
  Time init_start_ = 0;
  Time solve_start_ = 0;
};

class MpiWorld {
 public:
  MpiWorld(Cluster& cluster, WorldOptions opts = {});

  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }
  Cluster& cluster() { return cluster_; }
  const WorldOptions& options() const { return opts_; }

  int node_of(int r) const { return r / opts_.ranks_per_node; }
  int ctxt_of(int r) const { return r % opts_.ranks_per_node; }

  /// Run the SPMD program: spawn `body` on every rank and drive the engine
  /// until the cluster is idle. Asserts every rank ran to completion.
  void run(const std::function<sim::Task<>(Rank&)>& body);

  /// Aggregated Table-1 style statistics over all ranks.
  MpiStatsTable stats_table() const;

  /// --- collective algorithm selection -------------------------------------
  /// The crossover decision (a pure function of payload and communicator
  /// shape, honoring the tuning's force_* pins) that the collectives run
  /// and tag into stats. Exposed so the property harness can assert the
  /// intended algorithm was picked.
  const char* allreduce_algo(std::uint64_t bytes) const;
  const char* bcast_algo(std::uint64_t bytes) const;
  const char* alltoall_algo(std::uint64_t bytes_per_pair,
                            std::uint64_t sdma_threshold) const;

  /// Longest per-rank runtime (the figure-of-merit for weak scaling).
  Dur max_runtime() const;
  /// Longest per-rank solve-region time (falls back to runtime when the
  /// program set no solve bracket).
  Dur max_solve() const;

 private:
  friend class Rank;

  // Intra-node shared-memory transport.
  struct ShmPosted {
    MpiReq req;
    int src;
    int tag;
  };
  struct ShmPending {
    int src;
    int tag;
    std::uint64_t bytes;
  };
  struct ShmInbox {
    std::vector<ShmPosted> posted;
    std::vector<ShmPending> unexpected;
  };

  void shm_send(int src, int dst, int tag, std::uint64_t bytes);
  void shm_post(int dst, MpiReq req, int src, int tag);

  Cluster& cluster_;
  WorldOptions opts_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<ShmInbox> inboxes_;
  int completed_ = 0;
};

}  // namespace pd::mpirt
