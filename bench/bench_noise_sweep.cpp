// OS-noise sensitivity study (the ROADMAP's noise item, ISSUE 10).
//
// The paper's §4.1 argument is that the LWK's advantage is not raw syscall
// speed but *insulation*: every Linux-side detour (daemon tick, IRQ burst,
// kernel-wide stall) is a straggler the whole communicator waits on, so the
// Linux-vs-LWK gap must grow with rank count — and vanish when the noise
// does. This bench measures exactly that surface:
//
//   noise profile (5 presets)  ×  node count  ×  {Linux, McKernel+HFI}
//
// on the two collective-structured mini-apps (src/apps/miniapps.hpp):
// Stencil27 (allreduce-dominated CG) and FftStep (alltoall-dominated
// transposes). For each (profile, app, mode, nodes) cell we report
//
//   slowdown = T(profile) / T(none)          — self-normalized per mode
//   gap      = linux_slowdown − lwk_slowdown — the amplification the paper
//                                              attributes to OS noise
//
// Acceptance (checked here and gated by tools/check_bench.py --suite noise):
//   * under every noisy profile the gap is nonnegative and grows
//     monotonically with rank count (per profile, averaged over both apps);
//   * the `none` profile produces exactly zero gap at every scale;
//   * the LWK side is noise-immune: its slowdown stays 1.0 under every
//     Linux-side profile (silent profiles never consume RNG, so the LWK
//     schedule is bit-identical across profiles).
//
// Emits BENCH_noise.json for tools/check_bench.py --suite noise.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/miniapps.hpp"
#include "src/os/noise.hpp"

namespace {

using namespace pd;

constexpr int kRanksPerNode = 8;

std::vector<int> sweep_nodes() {
  if (bench::quick_mode()) return {2, 16};
  return {2, 4, 8, 16};
}

const std::vector<os::OsMode>& sweep_modes() {
  static const std::vector<os::OsMode> modes = {os::OsMode::linux,
                                                os::OsMode::mckernel_hfi};
  return modes;
}

struct AppSpec {
  const char* name;
  // Weak-scaled per-rank program for a world of `ranks` ranks.
  std::function<std::function<sim::Task<>(mpirt::Rank&)>(int ranks)> body_for;
};

std::vector<AppSpec> sweep_apps() {
  return {
      {"stencil",
       [](int) -> std::function<sim::Task<>(mpirt::Rank&)> {
         apps::StencilParams sp;
         return [sp](mpirt::Rank& r) { return apps::stencil_rank(r, sp); };
       }},
      {"fft",
       [](int ranks) -> std::function<sim::Task<>(mpirt::Rank&)> {
         // Weak scaling: keep the per-pair transpose payload constant so
         // the alltoall stays on one side of the spread/pairwise crossover
         // across the whole rank axis (the sweep measures noise response,
         // not an algorithm switch).
         apps::FftParams fp;
         fp.grid_bytes_per_rank =
             static_cast<std::uint64_t>(ranks) * (64ull << 10);
         return [fp](mpirt::Rank& r) { return apps::fft_rank(r, fp); };
       }},
  };
}

apps::RunOutcome run_cell(const AppSpec& app, os::OsMode mode, int nodes,
                          const os::NoiseProfile& profile,
                          std::uint64_t seed_salt) {
  mpirt::ClusterOptions copts;
  copts.nodes = nodes;
  copts.mode = mode;
  copts.cfg.linux_noise = profile;      // the sweep axis
  copts.cfg.lwk_noise = os::NoiseProfile::none();
  copts.cfg.noise_seed ^= seed_salt * 0x9E3779B97F4A7C15ull;
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = kRanksPerNode;
  wopts.buf_bytes = 8ull << 20;
  return apps::run_app(copts, wopts, app.body_for(nodes * kRanksPerNode));
}

struct Cell {
  double linux_slowdown = 0;
  double lwk_slowdown = 0;
  double gap = 0;
};

const char* mode_key(os::OsMode m) {
  return m == os::OsMode::linux ? "linux" : "lwk";
}

}  // namespace

int main() {
  bench::print_banner(
      "OS-noise sensitivity: profile x ranks x kernel x collective mix",
      "LWK insulation: the Linux-vs-LWK slowdown gap grows with rank count "
      "under every noise shape, and is zero without noise");

  const auto nodes_axis = sweep_nodes();
  const auto apps_axis = sweep_apps();
  const auto& profiles = os::NoiseProfile::presets();

  // T(app, mode, nodes, profile) in seconds. The `none` column is the
  // self-normalization denominator for every profile.
  std::map<std::string, std::map<std::string, double>> runtimes;  // [app|mode|n][profile]
  // Algorithm mix from the largest Linux run of each app (informational:
  // proves the selector exercised the intended algorithms at this scale).
  std::map<std::string, std::uint64_t> algo_mix;

  // Noisy Linux cells are averaged over a few independent noise-seed
  // trials: the gap is a max-over-ranks statistic, and one draw of the
  // heavy-tailed profiles is too jagged to gate a monotonicity claim on.
  // Silent cells (profile `none`, and the LWK side — whose schedule never
  // consumes noise RNG) are seed-invariant, so one trial suffices.
  const int kTrials = bench::quick_mode() ? 1 : 3;
  for (const auto& app : apps_axis) {
    for (os::OsMode mode : sweep_modes()) {
      for (int n : nodes_axis) {
        for (const auto& prof : profiles) {
          if (std::getenv("PD_NOISE_TRACE") != nullptr)
            std::fprintf(stderr, "cell app=%s mode=%s nodes=%d profile=%s\n",
                         app.name, mode_key(mode), n, prof.name.c_str());
          const int trials =
              (mode == os::OsMode::linux && !prof.silent()) ? kTrials : 1;
          double sum = 0;
          for (int t = 0; t < trials; ++t) {
            auto out = run_cell(app, mode, n, prof,
                                static_cast<std::uint64_t>(t));
            sum += out.runtime_sec;
            if (t == 0 && mode == os::OsMode::linux &&
                n == nodes_axis.back() && prof.name == "calibrated") {
              for (const auto& [ak, c] : out.mpi.algo_counts())
                algo_mix[ak] += c;
            }
          }
          const std::string key = std::string(app.name) + "|" + mode_key(mode) +
                                  "|" + std::to_string(n);
          runtimes[key][prof.name] = sum / trials;
        }
      }
    }
  }

  // Per (profile, app, nodes): slowdowns and the gap.
  std::map<std::string, std::map<std::string, std::map<int, Cell>>> cells;
  for (const auto& prof : profiles) {
    for (const auto& app : apps_axis) {
      for (int n : nodes_axis) {
        const auto& lin = runtimes[std::string(app.name) + "|linux|" + std::to_string(n)];
        const auto& lwk = runtimes[std::string(app.name) + "|lwk|" + std::to_string(n)];
        Cell c;
        c.linux_slowdown = lin.at(prof.name) / lin.at("none");
        c.lwk_slowdown = lwk.at(prof.name) / lwk.at("none");
        c.gap = c.linux_slowdown - c.lwk_slowdown;
        cells[prof.name][app.name][n] = c;
      }
    }
  }

  // Print one table per profile.
  for (const auto& prof : profiles) {
    if (prof.name == "none") continue;
    std::printf("\nprofile %-12s (slowdown vs noise-free; gap = linux - lwk)\n",
                prof.name.c_str());
    std::printf("  %-8s %6s | %12s %12s %8s | %12s %12s %8s\n", "", "", "stencil",
                "", "", "fft", "", "");
    std::printf("  %-8s %6s | %12s %12s %8s | %12s %12s %8s\n", "nodes", "ranks",
                "linux", "lwk", "gap", "linux", "lwk", "gap");
    for (int n : nodes_axis) {
      const Cell& s = cells[prof.name]["stencil"][n];
      const Cell& f = cells[prof.name]["fft"][n];
      std::printf("  %-8d %6d | %12.4f %12.4f %8.4f | %12.4f %12.4f %8.4f\n", n,
                  n * kRanksPerNode, s.linux_slowdown, s.lwk_slowdown, s.gap,
                  f.linux_slowdown, f.lwk_slowdown, f.gap);
    }
  }

  // ---- acceptance ---------------------------------------------------------
  bool ok = true;

  // 1) zero noise => zero gap, bit-exact (same binary schedule, so the
  //    ratio is exactly 1.0 on both sides).
  double zero_max_abs_gap = 0;
  for (const auto& app : apps_axis)
    for (int n : nodes_axis)
      zero_max_abs_gap =
          std::max(zero_max_abs_gap, std::fabs(cells["none"][app.name][n].gap));
  if (zero_max_abs_gap != 0.0) {
    std::printf("  FAIL: zero-noise gap is %.3e, want exactly 0\n", zero_max_abs_gap);
    ok = false;
  }

  // 2) LWK immunity: slowdown pinned to 1.0 under every Linux-side profile.
  double lwk_max_abs_dev = 0;
  for (const auto& prof : profiles)
    for (const auto& app : apps_axis)
      for (int n : nodes_axis)
        lwk_max_abs_dev = std::max(
            lwk_max_abs_dev,
            std::fabs(cells[prof.name][app.name][n].lwk_slowdown - 1.0));
  if (lwk_max_abs_dev > 1e-12) {
    std::printf("  FAIL: LWK slowdown deviates by %.3e from 1.0\n", lwk_max_abs_dev);
    ok = false;
  }

  // 3) per noisy profile: mean gap (over both apps) is nonnegative and
  //    monotone nondecreasing along the rank axis.
  std::map<std::string, std::vector<double>> mean_gap;  // profile -> per-node
  for (const auto& prof : profiles) {
    if (prof.name == "none") continue;
    auto& v = mean_gap[prof.name];
    for (int n : nodes_axis) {
      double g = 0;
      for (const auto& app : apps_axis) g += cells[prof.name][app.name][n].gap;
      v.push_back(g / static_cast<double>(apps_axis.size()));
    }
    bool mono = v.front() >= 0;
    for (std::size_t i = 1; i < v.size(); ++i)
      if (v[i] < v[i - 1]) mono = false;
    if (!mono) {
      std::printf("  FAIL: %s gap not monotone in ranks:", prof.name.c_str());
      for (double g : v) std::printf(" %.4f", g);
      std::printf("\n");
      ok = false;
    }
  }

  // ---- JSON ---------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_noise.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "{\n"
               "  \"workload\": {\"ranks_per_node\": %d, \"max_nodes\": %d, "
               "\"apps\": [\"stencil\", \"fft\"], \"quick_mode\": %s},\n"
               "  \"noise\": {\n",
               kRanksPerNode, nodes_axis.back(),
               bench::quick_mode() ? "true" : "false");
  std::fprintf(json, "    \"profiles\": {\n");
  bool first_prof = true;
  for (const auto& prof : profiles) {
    if (prof.name == "none") continue;
    const auto& v = mean_gap[prof.name];
    bool mono = v.front() >= 0;
    for (std::size_t i = 1; i < v.size(); ++i)
      if (v[i] < v[i - 1]) mono = false;
    // Slope of the mean gap per rank-count doubling (least useful at 2
    // points, but stable on the full axis).
    const double slope = (v.back() - v.front()) /
                         static_cast<double>(v.size() > 1 ? v.size() - 1 : 1);
    std::fprintf(json, "%s      \"%s\": {\n", first_prof ? "" : ",\n",
                 prof.name.c_str());
    first_prof = false;
    std::fprintf(json, "        \"mean_gap\": [");
    for (std::size_t i = 0; i < v.size(); ++i)
      std::fprintf(json, "%s%.6f", i ? ", " : "", v[i]);
    std::fprintf(json, "],\n");
    std::fprintf(json, "        \"gap_at_max_ranks\": %.6f,\n", v.back());
    std::fprintf(json, "        \"gap_slope_per_doubling\": %.6f,\n", slope);
    std::fprintf(json, "        \"monotone\": %.1f,\n", mono ? 1.0 : 0.0);
    for (const auto& app : apps_axis) {
      std::fprintf(json, "        \"%s\": {", app.name);
      bool first_n = true;
      for (int n : nodes_axis) {
        const Cell& c = cells[prof.name][app.name][n];
        std::fprintf(json,
                     "%s\"n%d\": {\"linux_slowdown\": %.6f, "
                     "\"lwk_slowdown\": %.6f, \"gap\": %.6f}",
                     first_n ? "" : ", ", n, c.linux_slowdown, c.lwk_slowdown,
                     c.gap);
        first_n = false;
      }
      std::fprintf(json, "}%s\n", app.name == std::string("fft") ? "" : ",");
    }
    std::fprintf(json, "      }");
  }
  std::fprintf(json, "\n    },\n");
  std::fprintf(json, "    \"zero\": {\"max_abs_gap\": %.9f},\n", zero_max_abs_gap);
  std::fprintf(json, "    \"lwk\": {\"max_abs_dev\": %.9f},\n", lwk_max_abs_dev);
  std::fprintf(json, "    \"algos\": {");
  bool first_a = true;
  for (const auto& [k, c] : algo_mix) {
    std::fprintf(json, "%s\"%s\": %llu", first_a ? "" : ", ", k.c_str(),
                 static_cast<unsigned long long>(c));
    first_a = false;
  }
  std::fprintf(json, "}\n  }\n}\n");
  std::fclose(json);
  std::printf("\n  wrote BENCH_noise.json\n");

  if (!ok) {
    std::printf("  FAIL: noise-amplification acceptance violated\n");
    return 1;
  }
  std::printf("  PASS: gap monotone under every profile, zero without noise, "
              "LWK immune\n");
  return 0;
}
