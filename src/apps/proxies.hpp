// Communication-skeleton proxies for the five CORAL mini-applications the
// paper evaluates (§4.2). Each reproduces the app's *communication
// pattern* — message sizes, collective mix, dependency structure, ranks
// per node — which is what determines its sensitivity to the three OS
// configurations. Physics is replaced by calibrated compute delays.
//
// Per-app characters (matching §4.2/§4.3 and Table 1):
//   LAMMPS   — 64 rpn; 3-D halo exchange, medium eager messages, light
//              collectives → insensitive to offloading (Fig. 5a).
//   Nekbone  — 32 rpn; CG: tiny allreduces + small halos → noise-latency
//              bound; the LWK's quiet cores win slightly (Fig. 5b).
//   UMT2013  — 32 rpn; directional sweeps: wavefront chains of *large*
//              expected-protocol messages + barriers → every hop pays the
//              offload tax, chains multiply it (Fig. 6a, Table 1).
//   HACC     — 32 rpn; Cart_create-heavy setup + large neighbour
//              exchanges per step (Fig. 6b, Table 1).
//   QBOX     — 32 rpn; Bcast/Alltoallv on column communicators, scratch
//              mmap/munmap churn per iteration (Fig. 7, Fig. 9, Table 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/apps/runner.hpp"
#include "src/common/time.hpp"
#include "src/common/units.hpp"

namespace pd::apps {

struct LammpsParams {
  int steps = 4;
  std::uint64_t halo_bytes = 8_KiB;   // ghost atoms ride the PIO path
  Dur compute_per_step = from_us(900);
  int thermo_every = 2;  // allreduce cadence
};

struct NekboneParams {
  int cg_iterations = 10;
  std::uint64_t halo_bytes = 6_KiB;   // spectral faces: PIO, OS-bypass
  Dur compute_per_iter = from_us(420);
};

struct UmtParams {
  int steps = 2;
  int sweeps_per_step = 2;   // octant bundles
  int angle_groups = 24;      // pipelined angle blocks per sweep — this is
                             // what makes UMT a syscall firehose
  std::uint64_t angle_bytes = 160_KiB;  // per-group face payload (2 windows)
  Dur compute_per_group = from_us(10);
};

struct HaccParams {
  int steps = 3;
  std::uint64_t exchange_bytes = 256_KiB;
  Dur compute_per_step = from_ms(4.5);
  int cart_creates = 3;  // domain-decomposition setup calls
};

struct QboxParams {
  int scf_iterations = 3;
  std::uint64_t bcast_bytes = 2_MiB;     // wavefunction block (expected path)
  std::uint64_t alltoallv_bytes = 8_KiB; // per-pair payload (PIO path)
  std::uint64_t pair_bytes = 512_KiB;
  std::uint64_t scratch_bytes = 8_MiB;   // FFT work arrays churned per iter
  Dur compute_per_iter = from_ms(1.1);
};

sim::Task<> lammps_rank(mpirt::Rank& rank, LammpsParams params);
sim::Task<> nekbone_rank(mpirt::Rank& rank, NekboneParams params);
sim::Task<> umt_rank(mpirt::Rank& rank, UmtParams params);
sim::Task<> hacc_rank(mpirt::Rank& rank, HaccParams params);
sim::Task<> qbox_rank(mpirt::Rank& rank, QboxParams params);

/// Ranks-per-node used in the paper for each app (§4.2).
constexpr int kLammpsRpn = 64;
constexpr int kNekboneRpn = 32;
constexpr int kUmtRpn = 32;
constexpr int kHaccRpn = 32;
constexpr int kQboxRpn = 32;

/// The paper's five apps, in figure order.
enum class App { lammps, nekbone, umt, hacc, qbox };

/// How the paper runs one app (§4.1–4.2): every figure, table and tool
/// that runs it at a paper point reads it from here.
struct PaperApp {
  const char* label;        // figure label ("UMT2013")
  const char* name;         // pdcluster --app name ("umt")
  int ranks_per_node;
  std::uint64_t buf_bytes;  // per-direction comm buffer
  sim::Task<> (*body)(mpirt::Rank&);  // the rank program, default parameters
};

/// `app`'s row of the table.
const PaperApp& paper_app(App app);

/// The app whose pdcluster name is `name`.
std::optional<App> app_named(std::string_view name);

/// One point of the paper's sweeps: `nodes` KNL nodes of ClusterOptions'
/// default memory in `mode`, each running the app's ranks and buffer.
struct PaperPoint {
  mpirt::ClusterOptions cluster;
  mpirt::WorldOptions world;
};

PaperPoint paper_point(App app, int nodes, os::OsMode mode);

}  // namespace pd::apps
