// Collective-structured mini-apps for the OS-noise sensitivity study.
//
// The five CORAL proxies (proxies.hpp) reproduce the paper's Table-1 apps;
// these two diversify the set toward the *collective* patterns that
// amplify OS noise at scale — the study the ROADMAP's noise item asks for:
//
//   Stencil27  — 3D 27-point stencil with CG pressure solves: per-iteration
//                halo exchange plus two tiny dot-product allreduces
//                (latency-bound, every rank waits on the slowest core) and
//                one large residual allreduce per solve that crosses into
//                the ring algorithm at scale.
//   FftStep    — HACC-like spectral step: forward/backward pencil↔slab
//                transposes, each a full personalized alltoall (P-1 peers
//                per rank), the densest communicator-wide dependency — one
//                straggler delays every rank's transpose.
//
// Physics is replaced by calibrated compute delays, exactly as in
// proxies.cpp; what matters is the dependency structure each collective
// imposes between noisy cores.
#pragma once

#include <cstdint>

#include "src/apps/runner.hpp"
#include "src/common/time.hpp"
#include "src/common/units.hpp"

namespace pd::apps {

struct StencilParams {
  int timesteps = 2;
  int cg_iterations = 8;                  // CG iterations per timestep
  std::uint64_t halo_bytes = 32_KiB;      // 27-point ghost shells, eager path
  std::uint64_t dot_bytes = 8;            // CG dot products (2 per iteration)
  std::uint64_t residual_bytes = 512_KiB; // residual-vector allreduce per solve
  Dur compute_per_iter = from_us(250);    // smoother + SpMV per iteration
};

struct FftParams {
  int steps = 2;
  std::uint64_t grid_bytes_per_rank = 2_MiB;  // local pencil volume
  Dur compute_per_stage = from_us(400);       // 1-D FFT batch between transposes
  std::uint64_t norm_bytes = 16;              // power-spectrum normalization
};

sim::Task<> stencil_rank(mpirt::Rank& rank, StencilParams params);
sim::Task<> fft_rank(mpirt::Rank& rank, FftParams params);

}  // namespace pd::apps
