// pdcluster — scenario runner: run one of the paper's apps at its figure
// point (ranks per node, comm buffer and node memory from src/apps' table)
// on a simulated cluster and print the figure-of-merit plus MPI / kernel
// profiles.
//
// Usage:
//   pdcluster --app umt --nodes 8 --mode mckernel_hfi [--rpn 32]
//
// Apps: lammps nekbone umt hacc qbox   Modes: linux mckernel mckernel_hfi
// --nodes and --rpn take positive integers; --rpn overrides the table.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "src/apps/proxies.hpp"

namespace {

using namespace pd;

int usage() {
  std::fprintf(stderr,
               "usage: pdcluster --app <lammps|nekbone|umt|hacc|qbox> "
               "[--nodes N] [--rpn N] [--mode linux|mckernel|mckernel_hfi]\n");
  return 2;
}

/// A flag's value as a positive count; 0 when it is missing or anything else.
int count(const char* text) {
  if (text == nullptr) return 0;
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  return ec == std::errc() && ptr == end && value > 0 ? value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<apps::App> app = apps::App::umt;
  int nodes = 8;
  int rpn = 0;  // 0: the table's
  os::OsMode mode = os::OsMode::mckernel_hfi;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--app") {
      const char* v = next();
      app = v != nullptr ? apps::app_named(v) : std::nullopt;
      if (!app) return usage();
    } else if (arg == "--nodes") {
      nodes = count(next());
      if (nodes == 0) return usage();
    } else if (arg == "--rpn") {
      rpn = count(next());
      if (rpn == 0) return usage();
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "linux") == 0)
        mode = os::OsMode::linux;
      else if (std::strcmp(v, "mckernel") == 0)
        mode = os::OsMode::mckernel;
      else if (std::strcmp(v, "mckernel_hfi") == 0)
        mode = os::OsMode::mckernel_hfi;
      else
        return usage();
    } else {
      return usage();
    }
  }

  const apps::PaperApp& spec = apps::paper_app(*app);
  apps::PaperPoint point = apps::paper_point(*app, nodes, mode);
  if (rpn > 0) point.world.ranks_per_node = rpn;
  const auto out = apps::run_app(point.cluster, point.world, spec.body);

  std::printf("app=%s nodes=%d ranks=%d mode=%s\n", spec.name, nodes,
              nodes * point.world.ranks_per_node, to_string(mode));
  std::printf("solve time      : %.6f s (simulated)\n", out.runtime_sec);
  std::printf("total time      : %.6f s (incl. Init/Finalize)\n", out.total_sec);
  std::printf("SDMA descriptors: %llu (mean %.0f bytes)\n",
              static_cast<unsigned long long>(out.sdma_descriptors),
              out.sdma_descriptors
                  ? static_cast<double>(out.sdma_bytes) / out.sdma_descriptors
                  : 0.0);
  if (out.offloads > 0)
    std::printf("offloads        : %llu (queue p50 %.1f / p95 %.1f / max %.1f us)\n",
                static_cast<unsigned long long>(out.offloads), out.offload_queue.p50_us,
                out.offload_queue.p95_us, out.offload_queue.max_us);

  std::printf("\nTop MPI calls (cumulative over ranks):\n");
  for (const auto& row : out.mpi.rows(5))
    std::printf("  MPI_%-12s %10.2f ms  %5.1f%% MPI  %5.1f%% Rt\n", row.call.c_str(),
                row.time_ms, row.pct_mpi, row.pct_runtime);

  std::printf("\nKernel time by syscall (solve region):\n");
  for (const auto& row : out.kernel.rows(7))
    std::printf("  %-10s %10.2f ms  %5.1f%%\n", row.name.c_str(), row.total_us / 1000.0,
                100.0 * row.share);
  return 0;
}
