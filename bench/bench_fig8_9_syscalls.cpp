// Figures 8 and 9: kernel-level system-call breakdown for UMT2013 and
// QBOX, comparing McKernel against McKernel+HFI1 (the paper's in-house
// kernel profiler; pie charts rendered here as percentage tables).
//
// Paper results reproduced:
//   * McKernel+HFI1 kernel time is a small fraction of plain McKernel's
//     (7 % for UMT2013, 25 % for QBOX in the paper);
//   * ioctl()+writev() dominate plain McKernel (> 70 % for UMT2013) and
//     collapse below ~30 % with the PicoDriver;
//   * for QBOX with the PicoDriver, munmap() dominates what remains — the
//     McKernel memory-management shortcoming the paper flags as future
//     work.
#include "bench/bench_common.hpp"
#include "src/apps/proxies.hpp"

namespace {

using namespace pd;
using namespace pd::apps;

struct KernelBreakdown {
  os::SyscallProfiler profiler;
  std::uint64_t offloads = 0;
  ikc::QueueingSummary queue;
};

KernelBreakdown run_mode(App app, os::OsMode mode) {
  const PaperPoint point = paper_point(app, 8, mode);
  auto out = run_app(point.cluster, point.world, paper_app(app).body);
  return KernelBreakdown{std::move(out.kernel), out.offloads, out.offload_queue};
}

void print_figure(const char* figure, App app) {
  const auto mck = run_mode(app, os::OsMode::mckernel);
  const auto hfi = run_mode(app, os::OsMode::mckernel_hfi);

  std::printf("--- %s: %s syscall breakdown (8 nodes) ---\n", figure, paper_app(app).label);
  const char* calls[] = {"read", "open", "mmap", "munmap", "ioctl", "writev", "nanosleep"};
  TextTable table({"Syscall", "McKernel %", "McKernel+HFI1 %"});
  for (const char* call : calls) {
    table.add_row({call, format_double(100.0 * mck.profiler.share_of(call), 1),
                   format_double(100.0 * hfi.profiler.share_of(call), 1)});
  }
  std::printf("%s", table.to_string().c_str());

  const double mck_total = to_ms(mck.profiler.total_kernel_time());
  const double hfi_total = to_ms(hfi.profiler.total_kernel_time());
  std::printf("Total kernel time: McKernel %.2f ms, McKernel+HFI1 %.2f ms (%.0f%% of McKernel)\n",
              mck_total, hfi_total, 100.0 * hfi_total / mck_total);
  const double mck_datapath =
      100.0 * (mck.profiler.share_of("ioctl") + mck.profiler.share_of("writev"));
  const double hfi_datapath =
      100.0 * (hfi.profiler.share_of("ioctl") + hfi.profiler.share_of("writev"));
  std::printf("ioctl+writev share: McKernel %.1f%% -> McKernel+HFI1 %.1f%%\n", mck_datapath,
              hfi_datapath);
  std::printf("offload queueing (McKernel): %llu offloads, p50 %.1f / p95 %.1f / max %.1f us\n\n",
              static_cast<unsigned long long>(mck.offloads), mck.queue.p50_us,
              mck.queue.p95_us, mck.queue.max_us);
}

/// The ISSUE-4 acceptance check: 64 ranks on 4 service CPUs, identical
/// offload stream through the legacy direct transport and the batched ring
/// transport. Ring batching amortizes the proxy schedule-in across a whole
/// batch and never pays the cold-wakeup/thrash scaling, so its p95 queueing
/// must come out lower. Non-zero exit if it does not.
int compare_transports() {
  using namespace pd::time_literals;
  std::printf("--- IKC transport: offload queueing, 64 ranks / 4 service CPUs ---\n");
  os::Config cfg;
  const int per_rank = bench::quick_mode() ? 24 : 96;

  cfg.ikc_mode = os::IkcMode::direct;
  const auto legacy = bench::run_offload_storm(cfg, 64, per_rank, from_us(3), from_us(20));
  cfg.ikc_mode = os::IkcMode::ring;
  const auto ring = bench::run_offload_storm(cfg, 64, per_rank, from_us(3), from_us(20));

  TextTable table({"Transport", "Offloads", "Offl/ms", "p50 us", "p95 us", "Max us", "Wake/offl"});
  for (const auto* row : {&legacy, &ring}) {
    table.add_row({row == &legacy ? "legacy direct" : "ring batched",
                   std::to_string(row->offloads), format_double(row->offloads_per_ms, 1),
                   format_double(row->queue.p50_us, 1), format_double(row->queue.p95_us, 1),
                   format_double(row->queue.max_us, 1),
                   format_double(row->wakeups_per_offload, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  // The wakeup split: direct pays proxy+reply wakeups per offload; ring
  // batches submits behind doorbells and completions behind reply rings.
  std::printf("wakeups  direct: proxy=%llu reply=%llu   ring: doorbell=%llu reply=%llu\n",
              static_cast<unsigned long long>(legacy.direct_proxy_wakeups),
              static_cast<unsigned long long>(legacy.direct_reply_wakeups),
              static_cast<unsigned long long>(ring.doorbells),
              static_cast<unsigned long long>(ring.reply_wakeups));
  std::printf("ring degraded=%llu timeouts=%llu\n\n",
              static_cast<unsigned long long>(ring.degraded),
              static_cast<unsigned long long>(ring.timeouts));
  if (legacy.wakeups_per_offload < 1.9) {
    std::printf("FAIL: direct transport should pay ~2 wakeups/offload, got %.2f\n",
                legacy.wakeups_per_offload);
    return 1;
  }
  if (ring.wakeups_per_offload >= legacy.wakeups_per_offload) {
    std::printf("FAIL: ring wakeups/offload %.2f >= direct %.2f\n", ring.wakeups_per_offload,
                legacy.wakeups_per_offload);
    return 1;
  }
  if (ring.queue.p95_us >= legacy.queue.p95_us) {
    std::printf("FAIL: ring p95 %.1f us >= legacy p95 %.1f us\n", ring.queue.p95_us,
                legacy.queue.p95_us);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  bench::print_banner("Figures 8 & 9 — kernel-profiler syscall breakdowns",
                      "HFI1 kernel time 7%/25% of McKernel's; ioctl+writev >70% -> <30%; "
                      "munmap dominates QBOX+HFI1");
  print_figure("Figure 8", App::umt);
  print_figure("Figure 9", App::qbox);
  return compare_transports();
}
