// Figure 6: UMT2013 (a) and HACC (b) weak scaling, relative to Linux.
//
// Paper result: both run at par with Linux on one node, but multi-node
// plain McKernel collapses — UMT2013 to below 20 % of Linux beyond 4
// nodes, HACC to ~71 % on average — because every sweep/exchange message
// pays offloaded writev/ioctl through 4 contended service CPUs. With the
// HFI PicoDriver both beat Linux by up to ~20 %.
#include "bench/app_figure.hpp"

int main() {
  using namespace pd;

  bench::print_banner("Figure 6a — UMT2013 weak scaling (32 ranks/node)",
                      "McKernel < 20% of Linux beyond 4 nodes; McKernel+HFI1 up to +20%");
  bench::print_app_figure(apps::App::umt, bench::node_axis(256));

  bench::print_banner("Figure 6b — HACC weak scaling (32 ranks/node)",
                      "McKernel ~71% of Linux on average; McKernel+HFI1 wins");
  bench::print_app_figure(apps::App::hacc, bench::node_axis(128));
  return 0;
}
