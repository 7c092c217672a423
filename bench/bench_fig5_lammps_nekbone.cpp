// Figure 5: LAMMPS (a, 64 ranks/node) and Nekbone (b, 32 ranks/node) weak
// scaling, relative to Linux.
//
// Paper result: these two are NOT bottlenecked by driver syscalls —
// LAMMPS runs at par with Linux on McKernel, Nekbone shows a small LWK
// win from noise-free cores; the HFI PicoDriver must not regress either
// (it performs like, or slightly above, plain McKernel).
#include "bench/app_figure.hpp"

int main() {
  using namespace pd;

  bench::print_banner("Figure 5a — LAMMPS weak scaling (64 ranks/node)",
                      "McKernel ≈ Linux; McKernel+HFI1 similar or slightly ahead");
  bench::print_app_figure(apps::App::lammps, bench::node_axis(256));

  bench::print_banner("Figure 5b — Nekbone weak scaling (32 ranks/node)",
                      "small McKernel win (noise-free cores); HFI1 does not regress");
  bench::print_app_figure(apps::App::nekbone, bench::node_axis(256));
  return 0;
}
