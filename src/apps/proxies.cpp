#include "src/apps/proxies.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "src/apps/topology.hpp"

namespace pd::apps {

namespace {

/// Base for per-step point-to-point tags: tags must be unique per
/// (step, direction) so a fast neighbour's next-step traffic cannot match
/// this step's receives.
constexpr int kP2pBase = 1000;

int dir_index(int dim, int dir) { return dim * 2 + (dir > 0 ? 1 : 0); }

int step_tag(int step, int dim, int dir) {
  return kP2pBase + step * 8 + dir_index(dim, dir);
}

/// Neighbour in the near-cubic decomposition of the whole world. The
/// factorization is memoized per thread (independent clusters may run on
/// separate host threads): this is called once per message.
int rank_neighbor(mpirt::Rank& rank, int dim, int dir) {
  thread_local int cached_p = -1;
  thread_local std::array<int, 3> cached_dims;
  const int p = rank.world().size();
  if (p != cached_p) {
    cached_dims = cart_dims(p);
    cached_p = p;
  }
  return cart_neighbor(cached_dims, rank.id(), dim, dir);
}

/// Ranks sharing this rank's on-node slot across a group of nodes (a
/// "column" communicator: purely inter-node). Capped at 32 members — QBOX
/// process grids partition columns into subgrids of bounded size.
std::vector<int> column_members(mpirt::Rank& rank) {
  const int rpn = rank.world().options().ranks_per_node;
  const int size = rank.world().size();
  const int nodes = size / rpn;
  const int span = std::min(nodes, 32);
  const int my_node = rank.id() / rpn;
  const int group_base = (my_node / span) * span;
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(span));
  for (int n = group_base; n < group_base + span && n < nodes; ++n)
    members.push_back(n * rpn + rank.id() % rpn);
  return members;
}

/// Same on-node slot on the partner node (XOR pairing — an involution, so
/// both sides agree on who talks to whom). Returns the rank itself when
/// the partner node does not exist (odd node count tail).
int cross_node_peer(mpirt::Rank& rank) {
  const int rpn = rank.world().options().ranks_per_node;
  const int nodes = rank.world().size() / rpn;
  const int peer_node = (rank.id() / rpn) ^ 1;
  if (peer_node >= nodes) return rank.id();
  return peer_node * rpn + rank.id() % rpn;
}

}  // namespace

sim::Task<> lammps_rank(mpirt::Rank& rank, LammpsParams params) {
  co_await rank.init();
  // Domain decomposition.
  co_await rank.cart_create();

  rank.solve_begin();
  for (int step = 0; step < params.steps; ++step) {
    // Force computation.
    co_await rank.compute(params.compute_per_step);

    // 6-direction ghost-atom exchange: post everything, then drain.
    std::vector<mpirt::MpiReq> reqs;
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.irecv(nb, step_tag(step, dim, -dir), params.halo_bytes));
      }
    }
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.isend(nb, step_tag(step, dim, dir), params.halo_bytes));
      }
    }
    co_await rank.waitall(std::move(reqs));

    // Thermo output: global reduction every few steps.
    if (step % params.thermo_every == 0) co_await rank.allreduce(64);
  }
  rank.solve_end();
  co_await rank.finalize();
}

sim::Task<> nekbone_rank(mpirt::Rank& rank, NekboneParams params) {
  co_await rank.init();
  rank.solve_begin();
  for (int iter = 0; iter < params.cg_iterations; ++iter) {
    // Local spectral-element work (ax).
    co_await rank.compute(params.compute_per_iter);

    // Face exchange with up to 6 neighbours (small, eager path).
    std::vector<mpirt::MpiReq> reqs;
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.irecv(nb, step_tag(iter, dim, -dir), params.halo_bytes));
      }
    }
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.isend(nb, step_tag(iter, dim, dir), params.halo_bytes));
      }
    }
    co_await rank.waitall(std::move(reqs));

    // Two dot products per CG iteration: tiny latency-bound allreduces.
    co_await rank.allreduce(8);
    co_await rank.allreduce(8);
  }
  rank.solve_end();
  co_await rank.finalize();
}

sim::Task<> umt_rank(mpirt::Rank& rank, UmtParams params) {
  co_await rank.init();
  rank.solve_begin();
  for (int step = 0; step < params.steps; ++step) {
    // Directional sweeps. Each sweep pipelines `angle_groups` blocks down
    // the wavefront: receive a group's upstream faces, compute it, send it
    // downstream and immediately move to the next group. Every group hop
    // is an expected-protocol message — writev + TID ioctls — which is
    // what floods the offload path on plain McKernel (Fig. 6a, Fig. 8).
    for (int sweep = 0; sweep < params.sweeps_per_step; ++sweep) {
      const int dir = (sweep % 2) == 0 ? +1 : -1;
      const int tag_base =
          kP2pBase + ((step * params.sweeps_per_step) + sweep) * 8;

      // Persistent channels per face, re-armed via MPI_Start every angle
      // group (UMT2013's actual pattern — hence MPI_Start in its Table-1
      // profile). Fixed tags are safe: traffic per (src,dst) pair is
      // ordered, and the channels line up one to one.
      std::vector<mpirt::Rank::MpiPersist> up, down;
      for (int dim = 0; dim < 3; ++dim) {
        const int up_nb = rank_neighbor(rank, dim, -dir);
        if (up_nb >= 0)
          up.push_back(rank.recv_init(up_nb, tag_base + dim, params.angle_bytes));
        const int down_nb = rank_neighbor(rank, dim, dir);
        if (down_nb >= 0)
          down.push_back(rank.send_init(down_nb, tag_base + dim, params.angle_bytes));
      }

      for (int g = 0; g < params.angle_groups; ++g) {
        rank.startall(up);
        co_await rank.waitall_persist(up);

        co_await rank.compute(params.compute_per_group);

        // One round of downstream sends in flight: drain the previous
        // group's sends before re-arming.
        if (g > 0) co_await rank.waitall_persist(down);
        rank.startall(down);
      }
      co_await rank.waitall_persist(down);
    }

    // Source iteration convergence check + step synchronization (UMT is
    // Barrier-heavy in Table 1).
    co_await rank.allreduce(16);
    co_await rank.barrier();
  }
  rank.solve_end();
  co_await rank.finalize();
}

sim::Task<> hacc_rank(mpirt::Rank& rank, HaccParams params) {
  co_await rank.init();
  // Domain decomposition / grid communicators: Cart_create dominates the
  // HACC Linux profile (Table 1).
  for (int i = 0; i < params.cart_creates; ++i) co_await rank.cart_create();

  rank.solve_begin();
  for (int step = 0; step < params.steps; ++step) {
    // Long-range force (P3M) — compute heavy.
    co_await rank.compute(params.compute_per_step);

    // Particle / grid overload exchange with the 6 spatial neighbours:
    // large expected-protocol messages.
    std::vector<mpirt::MpiReq> reqs;
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.irecv(nb, step_tag(step, dim, -dir), params.exchange_bytes));
      }
    }
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir : {-1, +1}) {
        const int nb = rank_neighbor(rank, dim, dir);
        if (nb < 0) continue;
        reqs.push_back(rank.isend(nb, step_tag(step, dim, dir), params.exchange_bytes));
      }
    }
    co_await rank.waitall(std::move(reqs));

    // Global energy check.
    co_await rank.allreduce(32);
  }
  rank.solve_end();
  co_await rank.finalize();
}

sim::Task<> qbox_rank(mpirt::Rank& rank, QboxParams params) {
  co_await rank.init();
  co_await rank.comm_create();  // column/row communicators

  rank.solve_begin();
  for (int iter = 0; iter < params.scf_iterations; ++iter) {
    // Scratch arrays for the FFT stage — the mmap/munmap churn that makes
    // munmap dominate the McKernel+HFI kernel profile (Fig. 9).
    auto scratch = co_await rank.process().mmap_anon(params.scratch_bytes);

    // Wavefunction broadcast from the root.
    co_await rank.bcast(0, params.bcast_bytes);

    co_await rank.compute(params.compute_per_iter);

    // Column alltoallv (ranks with the same on-node slot across nodes —
    // all inter-node traffic).
    co_await rank.alltoallv(column_members(rank), params.alltoallv_bytes);

    // Pair exchange with the same slot on the next node.
    const int peer = cross_node_peer(rank);
    if (peer != rank.id()) {
      if (rank.id() < peer) {
        co_await rank.send(peer, step_tag(iter, 0, +1), params.pair_bytes);
        co_await rank.recv(peer, step_tag(iter, 0, -1), params.pair_bytes);
      } else {
        co_await rank.recv(peer, step_tag(iter, 0, +1), params.pair_bytes);
        co_await rank.send(peer, step_tag(iter, 0, -1), params.pair_bytes);
      }
    }

    // Partial-sum scan across rows.
    co_await rank.scan(16);

    if (scratch.ok())
      (void)co_await rank.process().munmap(*scratch, params.scratch_bytes);
  }
  rank.solve_end();
  co_await rank.finalize();
}

namespace {

// Indexed by App.
constexpr PaperApp kPaperApps[] = {
    {"LAMMPS", "lammps", kLammpsRpn, 512_KiB,
     [](mpirt::Rank& r) { return lammps_rank(r, {}); }},
    {"Nekbone", "nekbone", kNekboneRpn, 512_KiB,
     [](mpirt::Rank& r) { return nekbone_rank(r, {}); }},
    {"UMT2013", "umt", kUmtRpn, 1_MiB, [](mpirt::Rank& r) { return umt_rank(r, {}); }},
    {"HACC", "hacc", kHaccRpn, 2_MiB, [](mpirt::Rank& r) { return hacc_rank(r, {}); }},
    {"QBOX", "qbox", kQboxRpn, 4_MiB, [](mpirt::Rank& r) { return qbox_rank(r, {}); }},
};

}  // namespace

const PaperApp& paper_app(App app) { return kPaperApps[static_cast<int>(app)]; }

std::optional<App> app_named(std::string_view name) {
  for (int i = 0; i < static_cast<int>(std::size(kPaperApps)); ++i)
    if (name == kPaperApps[i].name) return static_cast<App>(i);
  return std::nullopt;
}

PaperPoint paper_point(App app, int nodes, os::OsMode mode) {
  PaperPoint point;
  point.cluster.nodes = nodes;
  point.cluster.mode = mode;
  point.world.ranks_per_node = paper_app(app).ranks_per_node;
  point.world.buf_bytes = paper_app(app).buf_bytes;
  return point;
}

}  // namespace pd::apps
