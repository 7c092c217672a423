// Table 1: communication profile of UMT2013, HACC and QBOX on 8 compute
// nodes — the top five MPI calls per OS configuration, with cumulative
// Time (summed over ranks), % of MPI time, and % of total runtime.
//
// Paper highlights reproduced here:
//   * MPI_Wait on plain McKernel is an order of magnitude above both
//     Linux and McKernel+HFI1 for UMT2013/HACC (bold in the paper);
//   * MPI_Init is *largest* on McKernel+HFI1 (italic in the paper): the
//     PicoDriver pays extra setup in exchange for fast-path wins later.
#include "bench/bench_common.hpp"
#include "src/apps/proxies.hpp"

namespace {

using namespace pd;
using namespace pd::apps;

void print_profile(App app) {
  const PaperApp& spec = paper_app(app);
  std::printf("--- %s (8 nodes, %d ranks/node) ---\n", spec.label, spec.ranks_per_node);
  for (os::OsMode mode : bench::all_modes()) {
    const PaperPoint point = paper_point(app, 8, mode);
    const RunOutcome out = run_app(point.cluster, point.world, spec.body);
    TextTable table({"Call (MPI_)", "Time ms", "% MPI", "% Rt"});
    for (const auto& row : out.mpi.rows(5)) {
      table.add_row({row.call, format_double(row.time_ms, 2),
                     format_double(row.pct_mpi, 2), format_double(row.pct_runtime, 2)});
    }
    std::printf("%s:\n%s\n", to_string(mode), table.to_string().c_str());
  }
}

}  // namespace

int main() {
  bench::print_banner(
      "Table 1 — communication profile on 8 compute nodes",
      "top-5 MPI calls; MPI_Wait explodes on McKernel, MPI_Init largest on +HFI1");

  print_profile(App::umt);
  print_profile(App::hacc);
  print_profile(App::qbox);
  return 0;
}
