// Ablation: sensitivity of the plain-McKernel collapse to the number of
// Linux service CPUs. The paper attributes the UMT/HACC degradation to
// "high contention on a few Linux CPUs" (4 on OFP, vs 32–64 ranks); this
// sweep shows the collapse easing as CPUs are added.
#include "bench/bench_common.hpp"
#include "src/apps/proxies.hpp"

int main() {
  using namespace pd;
  using namespace pd::apps;
  bench::print_banner("Ablation — Linux service CPUs vs offload collapse (UMT2013, 8 nodes)",
                      "4 CPUs for 32 ranks is the paper's squeeze; more CPUs relieve it");

  const auto body = paper_app(App::umt).body;

  // Linux baseline (service CPU count is irrelevant for native syscalls).
  const PaperPoint base = paper_point(App::umt, 8, os::OsMode::linux);
  const double linux_sec = run_app(base.cluster, base.world, body).runtime_sec;

  TextTable table({"Service CPUs", "McKernel s", "vs Linux", "Queue p95 us"});
  for (int cpus : {1, 2, 4, 8, 16}) {
    PaperPoint point = paper_point(App::umt, 8, os::OsMode::mckernel);
    point.cluster.cfg.linux_service_cpus = cpus;
    auto out = run_app(point.cluster, point.world, body);
    table.add_row({std::to_string(cpus), format_double(out.runtime_sec, 4),
                   format_double(100.0 * linux_sec / out.runtime_sec, 1) + "%",
                   format_double(out.offload_queue.p95_us, 1)});
  }
  std::printf("Linux baseline: %.4f s\n%s\n", linux_sec, table.to_string().c_str());

  // The same squeeze through the isolated storm harness, legacy vs ring:
  // batching relieves the few-service-CPU collapse without adding CPUs.
  using namespace pd::time_literals;
  TextTable ikc_table({"Service CPUs", "Legacy p95 us", "Ring p95 us"});
  const int per_rank = bench::quick_mode() ? 16 : 64;
  for (int cpus : {1, 2, 4, 8}) {
    os::Config cfg;
    cfg.linux_service_cpus = cpus;
    cfg.ikc_mode = os::IkcMode::direct;
    const auto legacy = bench::run_offload_storm(cfg, 32, per_rank, from_us(3), from_us(20));
    cfg.ikc_mode = os::IkcMode::ring;
    const auto ring = bench::run_offload_storm(cfg, 32, per_rank, from_us(3), from_us(20));
    ikc_table.add_row({std::to_string(cpus), format_double(legacy.queue.p95_us, 1),
                       format_double(ring.queue.p95_us, 1)});
  }
  std::printf("Offload storm (32 ranks), legacy direct vs ring-batched transport:\n%s\n",
              ikc_table.to_string().c_str());
  return 0;
}
