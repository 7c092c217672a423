// Figure 7: QBOX weak scaling (32 ranks/node, 4..256 nodes), relative to
// Linux.
//
// Paper result: plain McKernel stays roughly at par with Linux (QBOX was
// not crushed by offloading), while McKernel+HFI1 delivers the paper's
// headline: up to ~30 % over Linux.
#include "bench/app_figure.hpp"

int main() {
  using namespace pd;

  bench::print_banner("Figure 7 — QBOX weak scaling (32 ranks/node, ≥4 nodes)",
                      "McKernel ≈ Linux; McKernel+HFI1 up to +30%");
  bench::print_app_figure(apps::App::qbox, bench::node_axis(256, /*min_nodes=*/4));
  return 0;
}
