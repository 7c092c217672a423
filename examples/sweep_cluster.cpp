// The paper experience in one run: the UMT2013 sweep proxy on 4 nodes in
// all three OS configurations, with relative performance and the MPI_Wait
// blow-up that motivated PicoDriver (paper §4.3, Table 1 / Figure 6a).
#include <cstdio>

#include "src/apps/proxies.hpp"

using namespace pd;

int main() {
  const apps::PaperApp& umt = apps::paper_app(apps::App::umt);
  std::printf("UMT2013 sweep proxy, 4 nodes x %d ranks\n\n", umt.ranks_per_node);

  double linux_sec = 0;
  for (os::OsMode mode :
       {os::OsMode::linux, os::OsMode::mckernel, os::OsMode::mckernel_hfi}) {
    const apps::PaperPoint point = apps::paper_point(apps::App::umt, 4, mode);
    const auto out = apps::run_app(point.cluster, point.world, umt.body);
    if (mode == os::OsMode::linux) linux_sec = out.runtime_sec;

    std::printf("--- %s ---\n", to_string(mode));
    std::printf("solve: %.4f s  (%.1f%% of Linux performance)\n", out.runtime_sec,
                100.0 * linux_sec / out.runtime_sec);
    const auto* wait = out.mpi.row("Wait");
    const auto* waitall = out.mpi.row("Waitall");
    std::printf("MPI_Wait: %.1f ms   MPI_Waitall: %.1f ms (cumulative over ranks)\n",
                wait != nullptr ? wait->time_ms : 0.0,
                waitall != nullptr ? waitall->time_ms : 0.0);
    if (out.offloads > 0)
      std::printf("offloaded syscalls: %llu, service-CPU queueing p50 %.1f / p95 %.1f / max %.1f us\n",
                  static_cast<unsigned long long>(out.offloads),
                  out.offload_queue.p50_us, out.offload_queue.p95_us,
                  out.offload_queue.max_us);
    std::printf("kernel time in ioctl+writev: %.1f%%\n\n",
                100.0 * (out.kernel.share_of("ioctl") + out.kernel.share_of("writev")));
  }

  std::printf("Expected shape (paper): plain McKernel collapses under offload\n"
              "contention; McKernel+HFI1 beats Linux.\n");
  return 0;
}
