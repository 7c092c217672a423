// Helper for the weak-scaling application figures (Figs. 5, 6, 7): run one
// paper app across the node axis in all three OS modes and print relative
// performance to Linux (the paper's y-axis; Linux = 100%).
#pragma once

#include <map>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/proxies.hpp"

namespace pd::bench {

/// Print the figure: one row per node count, Linux at 100%.
inline void print_app_figure(apps::App app, const std::vector<int>& nodes) {
  const apps::PaperApp& spec = apps::paper_app(app);
  TextTable table({"Nodes", "Ranks", "Linux", "McKernel", "McKernel+HFI1",
                   "Linux s", "McK s", "HFI s"});
  for (int n : nodes) {
    std::map<os::OsMode, apps::RunOutcome> res;
    for (os::OsMode mode : all_modes()) {
      const apps::PaperPoint point = apps::paper_point(app, n, mode);
      res[mode] = apps::run_app(point.cluster, point.world, spec.body);
    }
    const double linux_s = res[os::OsMode::linux].runtime_sec;
    auto rel = [&](os::OsMode m) {
      return format_double(100.0 * linux_s / res[m].runtime_sec, 1) + "%";
    };
    table.add_row({std::to_string(n), std::to_string(n * spec.ranks_per_node),
                   rel(os::OsMode::linux), rel(os::OsMode::mckernel),
                   rel(os::OsMode::mckernel_hfi), format_double(linux_s, 4),
                   format_double(res[os::OsMode::mckernel].runtime_sec, 4),
                   format_double(res[os::OsMode::mckernel_hfi].runtime_sec, 4)});
  }
  std::printf("%s — relative performance to Linux (higher is better)\n%s\n", spec.label,
              table.to_string().c_str());
}

}  // namespace pd::bench
