// perfbench — the repository benchmark.
//
// Runs one named cluster workload through the public mpirt::Cluster /
// mpirt::MpiWorld / apps::*_rank API, in one process on one thread with the
// single event queue (host_workers = 0). A workload is a closed batch of
// cells (one cluster run per OS mode), run back to back; one "pass" runs
// every cell once. After an untimed warm-up pass, passes repeat for the
// requested number of seconds and the host metrics are medians over them.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--nodes N --rpn R] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics (host wall/set-up/throughput/RSS;
// the readable report beside them gives the headline cell's simulated solve
// time and hfi_speedup, which the seed does not change). --trace 1 alternates
// untraced and traced passes and reports per-layer metrics: host spans
// around the benchmark's own calls into each layer, counters read through
// each layer's public getters, a simulated-time span per rank, and the
// tracing overhead (traced minus untraced pass wall). Spans and per-cell
// counter sets go to --trace-out as JSON.
//
// Every pass is checked: every rank completes, each cell's simulated
// signature (solve time, events, descriptors, offloads) is bit-identical
// to the warm-up pass, no message is dropped, no IKC request times out or
// degrades; at the default shapes the paper's shapes are checked too. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/proxies.hpp"
#include "src/mpirt/cluster.hpp"
#include "src/mpirt/world.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace pd;

// Seeds are free to tune on; claims are re-checked on this one.
constexpr std::uint64_t kHeldOutSeed = 7919;

// Measured passes per run, at least, whatever --seconds asks for.
constexpr std::size_t kMinPasses = 2;

double host_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- workloads --------------------------------------------------------------

struct CellSpec {
  const char* name;
  os::OsMode mode;
  os::IkcMode ikc;
};

constexpr CellSpec kLinux{"linux", os::OsMode::linux, os::IkcMode::direct};
constexpr CellSpec kMck{"mckernel", os::OsMode::mckernel, os::IkcMode::direct};
constexpr CellSpec kMckHfi{"mckernel_hfi", os::OsMode::mckernel_hfi, os::IkcMode::direct};
constexpr CellSpec kMckRing{"mckernel_ring", os::OsMode::mckernel, os::IkcMode::ring};

struct WorkloadSpec {
  const char* name;
  const char* app;  // umt | qbox
  int nodes;
  std::vector<CellSpec> cells;
  std::size_t headline;  // the cell whose solve time is sim_solve_s
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"umt_modes", "umt", 16, {kLinux, kMck, kMckHfi}, 2},
      {"umt_ikc_ring", "umt", 8, {kMckRing}, 0},
      {"qbox_churn", "qbox", 32, {kLinux, kMckHfi}, 1},
  };
  return all;
}

using AppFn = std::function<sim::Task<>(mpirt::Rank&)>;

AppFn make_app(const std::string& app) {
  if (app == "umt") return [](mpirt::Rank& r) { return apps::umt_rank(r, apps::UmtParams{}); };
  return [](mpirt::Rank& r) { return apps::qbox_rank(r, apps::QboxParams{}); };
}

int default_rpn(const std::string& app) {
  return app == "umt" ? apps::kUmtRpn : apps::kQboxRpn;
}

// --- per-rank wrapper -------------------------------------------------------

struct RankLog {
  bool trace = false;
  int done = 0;
  std::vector<std::pair<Time, Time>> spans;  // simulated [begin, end] per rank
};

sim::Task<> logged_rank(mpirt::Rank& rank, const AppFn* app, RankLog* log) {
  sim::Engine& engine = rank.world().cluster().engine();
  const Time begin = engine.now();
  co_await (*app)(rank);
  if (log->trace) log->spans[static_cast<std::size_t>(rank.id())] = {begin, engine.now()};
  ++log->done;
}

// --- per-layer counters -----------------------------------------------------

// Additive raw quantities read through the layers' getters; summing two
// cells' snapshots gives the workload's. Ratios are derived afterwards.
struct Layer {
  std::map<std::string, double> sum;
  Samples queueing;  // offload queueing (µs), pooled over nodes
  void merge(const Layer& o) {
    for (const auto& [k, v] : o.sum) sum[k] += v;
    queueing.merge(o.queueing);
  }
};

constexpr const char* kMpiCalls[] = {"Waitall", "Allreduce", "Bcast", "Alltoallv", "Init"};
constexpr std::pair<const char*, const char*> kAlgos[] = {
    {"Allreduce", "dissemination"}, {"Allreduce", "recursive_doubling"},
    {"Allreduce", "ring"},          {"Bcast", "binomial"},
    {"Bcast", "chain"},             {"Alltoallv", "spread"},
    {"Alltoallv", "pairwise"},
};

void snapshot(mpirt::Cluster& cluster, mpirt::MpiWorld& world, Layer& layer) {
  auto add = [&](const std::string& k, double v) { layer.sum[k] += v; };
  sim::Engine& engine = cluster.engine();
  const sim::Engine::Stats es = engine.stats();
  add("sim.events", static_cast<double>(engine.events_processed()));
  add("sim.calendar_rebuilds", static_cast<double>(es.calendar_rebuilds));
  add("sim.overflow_parked", static_cast<double>(es.overflow_parked));

  for (int i = 0; i < cluster.num_nodes(); ++i) {
    mpirt::Cluster::Node& n = cluster.node(i);
    add("hw.sdma.descriptors", static_cast<double>(n.device->total_descriptors()));
    add("hw.sdma.bytes", static_cast<double>(n.device->total_descriptor_bytes()));
    add("hw.rx_messages", static_cast<double>(n.device->rx_messages()));
    add("hw.dropped_messages", static_cast<double>(n.device->dropped_messages()));

    // IKC counters land on the Linux side's profiler (the proxy's kernel).
    const os::SyscallProfiler& lp = n.linux_kernel->profiler();
    add("ikc.wakeups", static_cast<double>(
                           lp.counter("ikc.direct.proxy_wakeup") + lp.counter("ikc.direct.reply_wakeup") +
                           lp.counter("ikc.ring.doorbell") + lp.counter("ikc.reply.wakeup")));
    add("ikc.ring.enqueue", static_cast<double>(lp.counter("ikc.ring.enqueue")));
    add("ikc.ring.batch_drain", static_cast<double>(lp.counter("ikc.ring.batch_drain")));
    add("ikc.timeouts", static_cast<double>(lp.counter("ikc.ring.timeout")));
    add("ikc.degraded", static_cast<double>(lp.counter("ikc.ring.degraded")));
    if (n.ihk) {
      add("ikc.offloads", static_cast<double>(n.ihk->offload_count()));
      layer.queueing.merge(n.ihk->queueing_samples());
    }

    std::vector<const mem::KernelHeap*> heaps = {&n.linux_kernel->kheap()};
    if (n.mck) heaps.push_back(&n.mck->kheap());
    for (const mem::KernelHeap* h : heaps) {
      const mem::KernelHeap::Stats ks = h->stats();
      add("mem.kheap.slab_reuse", static_cast<double>(ks.slab_reuses));
      add("mem.kheap.cross_socket_drain", static_cast<double>(ks.cross_socket_drains));
      add("mem.kheap.far_alloc", static_cast<double>(ks.far_allocs));
    }

    if (n.pico) {
      const pico::HfiPicoDriver& p = *n.pico;
      add("pico.extent_cache.hits", static_cast<double>(p.extent_cache_hits()));
      add("pico.extent_cache.lookups",
          static_cast<double>(p.extent_cache_hits() + p.extent_cache_misses() +
                              p.extent_cache_range_invalidations() +
                              p.extent_cache_generation_overflows()));
      add("pico.extent_cache.range_invalidated",
          static_cast<double>(p.extent_cache_range_invalidations()));
      add("pico.ring_full_fallback", static_cast<double>(p.ring_full_fallbacks()));
    }
  }
  add("hw.fabric.chunks", static_cast<double>(cluster.fabric().chunks_sent()));
  add("hw.fabric.bytes", static_cast<double>(cluster.fabric().bytes_sent()));

  // The application kernel's profile (solve region; McKernel in the
  // multi-kernel modes): simulated driver-entry and mapping time.
  const os::SyscallProfiler prof = cluster.app_kernel_profile();
  add("hfi.writev_ms", prof.total_us_of("writev") / 1e3);
  add("hfi.writev_calls", static_cast<double>(prof.count_of("writev")));
  add("hfi.ioctl_ms", prof.total_us_of("ioctl") / 1e3);
  add("hfi.ioctl_calls", static_cast<double>(prof.count_of("ioctl")));
  add("mem.mmap_calls", static_cast<double>(prof.count_of("mmap")));
  add("mem.munmap_calls", static_cast<double>(prof.count_of("munmap")));
  add("mem.munmap_ms", prof.total_us_of("munmap") / 1e3);
  double syscalls = 0;
  for (const auto& row : prof.rows()) syscalls += static_cast<double>(row.count);
  add("os.syscalls", syscalls);
  add("os.kernel_ms", to_ms(prof.total_kernel_time()));
  add("os.noise_ms", static_cast<double>(prof.counter("os.noise.time_ns")) / 1e6);

  const mpirt::MpiStatsTable table = world.stats_table();
  for (const char* call : kMpiCalls) {
    const mpirt::MpiStatsRow* row = table.row(call);
    add(std::string("mpirt.mpi_ms.") + call, row != nullptr ? row->time_ms : 0.0);
  }
  for (const auto& [call, algo] : kAlgos)
    add(std::string("mpirt.algo.") + call + "." + algo,
        static_cast<double>(table.algo_count(call, algo)));
  for (int r = 0; r < world.size(); ++r) {
    add("mpirt.msgs", static_cast<double>(world.rank(r).sent_msgs()));
    add("mpirt.bytes", static_cast<double>(world.rank(r).sent_bytes()));
  }
}

// --- one cell run -----------------------------------------------------------

struct HostSpan {
  int pass;
  std::string cell;
  const char* what;
  double begin_s;
  double end_s;
};

struct CellRun {
  // Host seconds of the benchmark's calls into each layer, and coroutine
  // frames that had to touch the host heap during the run.
  double cluster_s = 0, world_s = 0, run_s = 0, teardown_s = 0, wall_s = 0;
  std::uint64_t frame_host_allocs = 0;
  // Simulated signature: bit-identical across passes with one seed.
  Dur solve = 0;
  std::uint64_t events = 0, descriptors = 0, desc_bytes = 0, offloads = 0;
  // Output-check inputs.
  int ranks = 0, ranks_done = 0;
  std::uint64_t mpi_calls = 0, dropped = 0, ikc_timeouts = 0, ikc_degraded = 0;
  // Traced passes only.
  Layer layer;
  std::vector<std::pair<Time, Time>> rank_spans;

  bool same_signature(const CellRun& o) const {
    return solve == o.solve && events == o.events && descriptors == o.descriptors &&
           desc_bytes == o.desc_bytes && offloads == o.offloads;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nodes = 0;  // 0 = the workload's shape
  int rpn = 0;
  std::string trace_out;
};

// The pdcluster configuration: MCDRAM 1 GiB, DDR 2 GiB, 4 MiB comm buffers.
mpirt::ClusterOptions cluster_options(const CellSpec& cell, const Options& o, int nodes) {
  mpirt::ClusterOptions copts;
  copts.nodes = nodes;
  copts.mode = cell.mode;
  copts.mcdram_bytes = 1ull << 30;
  copts.ddr_bytes = 2ull << 30;
  copts.cfg.ikc_mode = cell.ikc;
  copts.cfg.noise_seed = o.seed;
  return copts;
}

mpirt::WorldOptions world_options(int rpn) {
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = rpn;
  wopts.buf_bytes = 4ull << 20;
  return wopts;
}

CellRun run_cell(const CellSpec& cell, const Options& o, int nodes,
                 int rpn, const AppFn& app, bool traced, int pass,
                 std::vector<HostSpan>* spans) {
  const mpirt::ClusterOptions copts = cluster_options(cell, o, nodes);
  const mpirt::WorldOptions wopts = world_options(rpn);

  CellRun r;
  RankLog log;
  log.trace = traced;
  if (traced) log.spans.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(rpn));

  const double t0 = host_now();
  auto cluster = std::make_unique<mpirt::Cluster>(copts);
  const double t1 = host_now();
  auto world = std::make_unique<mpirt::MpiWorld>(*cluster, wopts);
  const double t2 = host_now();
  const std::uint64_t frames0 = sim::detail::frame_pool_counters().host_allocs;
  world->run([&app, &log](mpirt::Rank& rank) { return logged_rank(rank, &app, &log); });
  const double t3 = host_now();
  r.frame_host_allocs = sim::detail::frame_pool_counters().host_allocs - frames0;

  r.solve = world->max_solve();
  r.events = cluster->engine().events_processed();
  r.ranks = world->size();
  r.ranks_done = log.done;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    mpirt::Cluster::Node& n = cluster->node(i);
    r.descriptors += n.device->total_descriptors();
    r.desc_bytes += n.device->total_descriptor_bytes();
    r.dropped += n.device->dropped_messages();
    if (n.ihk) r.offloads += n.ihk->offload_count();
    r.ikc_timeouts += n.linux_kernel->profiler().counter("ikc.ring.timeout");
    r.ikc_degraded += n.linux_kernel->profiler().counter("ikc.ring.degraded");
  }
  for (int i = 0; i < world->size(); ++i)
    for (const auto& [name, e] : world->rank(i).stats().calls()) r.mpi_calls += e.count;
  if (traced) {
    snapshot(*cluster, *world, r.layer);
    r.rank_spans = std::move(log.spans);
  }

  const double t4 = host_now();
  world.reset();
  cluster.reset();
  const double t5 = host_now();

  r.cluster_s = t1 - t0;
  r.world_s = t2 - t1;
  r.run_s = t3 - t2;
  r.teardown_s = t5 - t4;
  r.wall_s = t5 - t0;
  if (traced) {
    spans->push_back({pass, cell.name, "cluster", t0, t1});
    spans->push_back({pass, cell.name, "world", t1, t2});
    spans->push_back({pass, cell.name, "run", t2, t3});
    spans->push_back({pass, cell.name, "collect", t3, t4});
    spans->push_back({pass, cell.name, "teardown", t4, t5});
  }
  return r;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double finish_spread(const std::vector<std::pair<Time, Time>>& spans) {
  std::vector<double> ends;
  ends.reserve(spans.size());
  for (const auto& [b, e] : spans) ends.push_back(static_cast<double>(e));
  if (ends.empty()) return 0.0;
  return ratio(*std::max_element(ends.begin(), ends.end()), median(ends));
}

struct HostSplit {
  double cluster_s = 0, world_s = 0, run_s = 0, teardown_s = 0, frame_host_allocs = 0;
};

std::vector<Metric> per_layer_metrics(const Layer& l, const HostSplit& h, double solve_s,
                                      double spread, std::optional<double> overhead_s) {
  auto get = [&](const std::string& k) {
    const auto it = l.sum.find(k);
    return it == l.sum.end() ? 0.0 : it->second;
  };
  const ikc::QueueingSummary q = ikc::summarize_queueing(l.queueing);
  std::vector<Metric> m = {
      {"sim_solve_s", "s", solve_s},
      {"sim.events", "count", get("sim.events")},
      {"sim.host_ns_per_event", "ns", ratio(h.run_s * 1e9, get("sim.events"))},
      {"sim.calendar_rebuilds", "count", get("sim.calendar_rebuilds")},
      {"sim.overflow_parked", "count", get("sim.overflow_parked")},
      {"sim.frame_host_allocs", "count", h.frame_host_allocs},
      {"sim.run_host_s", "s", h.run_s},
      {"ikc.offloads", "count", get("ikc.offloads")},
      {"ikc.queue_p50_us", "us", q.p50_us},
      {"ikc.queue_p95_us", "us", q.p95_us},
      {"ikc.queue_max_us", "us", q.max_us},
      {"ikc.wakeups_per_offload", "ratio", ratio(get("ikc.wakeups"), get("ikc.offloads"))},
      {"ikc.offloads_per_drain", "ratio",
       ratio(get("ikc.ring.enqueue"), get("ikc.ring.batch_drain"))},
      {"ikc.timeouts", "count", get("ikc.timeouts")},
      {"ikc.degraded", "count", get("ikc.degraded")},
      {"hw.sdma.descriptors", "count", get("hw.sdma.descriptors")},
      {"hw.sdma.mean_desc_bytes", "B", ratio(get("hw.sdma.bytes"), get("hw.sdma.descriptors"))},
      {"hw.fabric.chunks", "count", get("hw.fabric.chunks")},
      {"hw.fabric.bytes", "B", get("hw.fabric.bytes")},
      {"hw.rx_messages", "count", get("hw.rx_messages")},
      {"hw.dropped_messages", "count", get("hw.dropped_messages")},
      {"hfi.writev_ms", "ms", get("hfi.writev_ms")},
      {"hfi.writev_calls", "count", get("hfi.writev_calls")},
      {"hfi.ioctl_ms", "ms", get("hfi.ioctl_ms")},
      {"hfi.ioctl_calls", "count", get("hfi.ioctl_calls")},
      {"pico.extent_cache.lookups", "count", get("pico.extent_cache.lookups")},
      {"pico.extent_cache.hit_ratio", "ratio",
       ratio(get("pico.extent_cache.hits"), get("pico.extent_cache.lookups"))},
      {"pico.extent_cache.range_invalidated", "count", get("pico.extent_cache.range_invalidated")},
      {"pico.ring_full_fallback", "count", get("pico.ring_full_fallback")},
      {"mem.mmap_calls", "count", get("mem.mmap_calls")},
      {"mem.munmap_calls", "count", get("mem.munmap_calls")},
      {"mem.munmap_ms", "ms", get("mem.munmap_ms")},
      {"mem.kheap.slab_reuse", "count", get("mem.kheap.slab_reuse")},
      {"mem.kheap.cross_socket_drain", "count", get("mem.kheap.cross_socket_drain")},
      {"mem.kheap.far_alloc", "count", get("mem.kheap.far_alloc")},
      {"os.syscalls", "count", get("os.syscalls")},
      {"os.kernel_ms", "ms", get("os.kernel_ms")},
      {"os.noise_ms", "ms", get("os.noise_ms")},
  };
  for (const char* call : kMpiCalls) {
    const std::string k = std::string("mpirt.mpi_ms.") + call;
    m.push_back({k, "ms", get(k)});
  }
  m.push_back({"mpirt.msgs", "count", get("mpirt.msgs")});
  m.push_back({"mpirt.bytes", "B", get("mpirt.bytes")});
  for (const auto& [call, algo] : kAlgos) {
    const std::string k = std::string("mpirt.algo.") + call + "." + algo;
    m.push_back({k, "count", get(k)});
  }
  m.push_back({"mpirt.rank_finish_spread", "ratio", spread});
  m.push_back({"setup.cluster_s", "s", h.cluster_s});
  m.push_back({"setup.world_s", "s", h.world_s});
  m.push_back({"teardown_s", "s", h.teardown_s});
  if (overhead_s) m.push_back({"trace.overhead_s", "s", *overhead_s});
  return m;
}

// --- output -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--nodes N --rpn R] [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::atof(v);
    else if (arg == "--trace") o.trace = std::atoi(v) != 0;
    else if (arg == "--nodes") o.nodes = std::atoi(v);
    else if (arg == "--rpn") o.rpn = std::atoi(v);
    else if (arg == "--trace-out") o.trace_out = v;
    else return usage(("unknown option " + arg).c_str());
  }
  const WorkloadSpec* w = nullptr;
  for (const auto& spec : workloads())
    if (o.workload == spec.name) w = &spec;
  if (w == nullptr) return usage(("unknown workload '" + o.workload + "'").c_str());

  const bool full_shape = o.nodes <= 0 && o.rpn <= 0;
  const int nodes = o.nodes > 0 ? o.nodes : w->nodes;
  const int rpn = o.rpn > 0 ? o.rpn : default_rpn(w->app);
  const AppFn app = make_app(w->app);

  std::printf("perfbench workload=%s app=%s nodes=%d ranks=%d seed=%llu held_out_seed=%llu "
              "trace=%d\n",
              w->name, w->app, nodes, nodes * rpn, static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(kHeldOutSeed), o.trace ? 1 : 0);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  };

  std::vector<HostSpan> spans;
  auto run_pass = [&](bool traced, int pass) {
    std::vector<CellRun> cells;
    for (const CellSpec& c : w->cells)
      cells.push_back(run_cell(c, o, nodes, rpn, app, traced, pass, &spans));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellRun& r = cells[i];
      const std::string where = std::string(w->cells[i].name) + " pass " + std::to_string(pass);
      attempted += r.mpi_calls;
      check(r.ranks_done == r.ranks, where + ": " + std::to_string(r.ranks - r.ranks_done) +
                                         " ranks did not complete");
      check(r.dropped == 0, where + ": " + std::to_string(r.dropped) + " dropped messages");
      check(r.ikc_timeouts == 0 && r.ikc_degraded == 0, where + ": IKC timeouts/degrades");
    }
    return cells;
  };

  // Warm-up pass: untimed, and the reference signature for the rest.
  const std::vector<CellRun> ref = run_pass(false, 0);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const CellRun& r = ref[i];
    std::printf("cell %-14s solve %.9f s  events %llu  descriptors %llu (mean %.1f B)  "
                "offloads %llu  mpi_calls %llu\n",
                w->cells[i].name, to_sec(r.solve), static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.descriptors), ratio(r.desc_bytes, r.descriptors),
                static_cast<unsigned long long>(r.offloads),
                static_cast<unsigned long long>(r.mpi_calls));
  }

  // Paper shapes (default shapes only: a tiny test shape need not hold them).
  auto cell_index = [&](const char* name) -> int {
    for (std::size_t i = 0; i < w->cells.size(); ++i)
      if (std::strcmp(w->cells[i].name, name) == 0) return static_cast<int>(i);
    return -1;
  };
  double hfi_speedup = 0;
  const int li = cell_index("linux"), mi = cell_index("mckernel"), hi = cell_index("mckernel_hfi");
  if (li >= 0 && hi >= 0) hfi_speedup = ratio(to_sec(ref[li].solve), to_sec(ref[hi].solve));
  if (full_shape) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const CellRun& r = ref[i];
      const bool pico = w->cells[i].mode == os::OsMode::mckernel_hfi;
      const double mean = ratio(r.desc_bytes, r.descriptors);
      if (r.descriptors == 0) continue;
      if (pico)
        check(mean >= 9500, std::string(w->cells[i].name) + ": mean SDMA descriptor " +
                                std::to_string(mean) + " B < 9.5 kB");
      else
        check(r.desc_bytes == 4096 * r.descriptors,
              std::string(w->cells[i].name) + ": mean SDMA descriptor " +
                  std::to_string(mean) + " B != 4096 B");
    }
    if (li >= 0 && hi >= 0) check(hfi_speedup > 1.0, "hfi_speedup <= 1");
    if (li >= 0 && mi >= 0 && hi >= 0)
      check(ref[hi].solve < ref[li].solve && ref[li].solve < ref[mi].solve,
            "solve-time order McKernel+HFI1 < Linux < McKernel violated");
  }

  // Measured passes: untraced only (--trace 0), or alternating untraced /
  // traced (--trace 1) so the overhead compares like with like.
  std::vector<std::vector<CellRun>> plain, traced;
  const double m0 = host_now();
  double pass_s = 0;
  for (int pass = 1;; ++pass) {
    const double elapsed = host_now() - m0;
    // Passes alternate from untraced, so kMinPasses yields one of each.
    const bool enough = plain.size() + traced.size() >= kMinPasses;
    if (enough && elapsed + pass_s > o.seconds) break;
    const bool t = o.trace && pass % 2 == 0;
    const double p0 = host_now();
    std::vector<CellRun> cells = run_pass(t, pass);
    pass_s = host_now() - p0;
    for (std::size_t i = 0; i < cells.size(); ++i)
      check(cells[i].same_signature(ref[i]),
            std::string(w->cells[i].name) + " pass " + std::to_string(pass) +
                ": simulated results differ from the warm-up pass");
    (t ? traced : plain).push_back(std::move(cells));
  }

  auto pass_sum = [](const std::vector<CellRun>& cells, double CellRun::*f) {
    double s = 0;
    for (const CellRun& c : cells) s += c.*f;
    return s;
  };
  auto median_of = [&](const std::vector<std::vector<CellRun>>& passes, auto fn) {
    std::vector<double> xs;
    for (const auto& p : passes) xs.push_back(fn(p));
    return median(xs);
  };
  auto wall_of = [&](const std::vector<CellRun>& p) { return pass_sum(p, &CellRun::wall_s); };
  // Set-up as each pass meets it: every cell's Cluster + MpiWorld is built
  // right after the previous cell's teardown.
  auto setup_of = [&](const std::vector<CellRun>& p) {
    return pass_sum(p, &CellRun::cluster_s) + pass_sum(p, &CellRun::world_s);
  };

  std::printf("passes untraced=%zu traced=%zu\n  pass wall_s: ", plain.size(), traced.size());
  for (const auto& p : plain) std::printf(" %.4f", wall_of(p));
  std::printf("\n  pass setup_s:");
  for (const auto& p : plain) std::printf(" %.5f", setup_of(p));
  std::printf("\n");

  const double error_rate = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::vector<Metric> e2e = {
      {"wall_s", "s", median_of(plain, wall_of)},
      {"events_per_s", "1/s",
       median_of(plain,
                 [&](const std::vector<CellRun>& p) {
                   double ev = 0;
                   for (const CellRun& c : p) ev += static_cast<double>(c.events);
                   return ratio(ev, pass_sum(p, &CellRun::run_s));
                 })},
      {"setup_s", "s", median_of(plain, setup_of)},
      {"peak_rss_mb", "MB",
       [] {
         rusage ru{};
         getrusage(RUSAGE_SELF, &ru);
         return static_cast<double>(ru.ru_maxrss) / 1024.0;
       }()},
  };
  for (const Metric& m : e2e) std::printf("metric %-14s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("metric %-14s %.9g s\n", "sim_solve_s", to_sec(ref[w->headline].solve));
  if (li >= 0 && hi >= 0) std::printf("metric %-14s %.6g ratio\n", "hfi_speedup", hfi_speedup);
  std::printf("metric %-14s %.6g ratio (%llu failed / %llu attempted)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::vector<Metric> out = e2e;
  if (o.trace) {
    // Per cell: counters of the last traced pass (deterministic), host
    // spans as medians over the traced passes.
    const std::vector<CellRun>& last = traced.back();
    Layer total;
    HostSplit total_h;
    std::string cells_json;
    for (std::size_t i = 0; i < last.size(); ++i) {
      HostSplit h;
      auto med = [&](double CellRun::*f) {
        std::vector<double> xs;
        for (const auto& p : traced) xs.push_back(p[i].*f);
        return median(xs);
      };
      h.cluster_s = med(&CellRun::cluster_s);
      h.world_s = med(&CellRun::world_s);
      h.run_s = med(&CellRun::run_s);
      h.teardown_s = med(&CellRun::teardown_s);
      h.frame_host_allocs = static_cast<double>(last[i].frame_host_allocs);
      const std::vector<Metric> cm =
          per_layer_metrics(last[i].layer, h, to_sec(last[i].solve),
                            finish_spread(last[i].rank_spans), std::nullopt);
      std::printf("layer %s:", w->cells[i].name);
      for (const Metric& m : cm) std::printf(" %s=%.6g", m.name.c_str(), m.value);
      std::printf("\n");
      if (i > 0) cells_json += ", ";
      cells_json += "\"" + std::string(w->cells[i].name) + "\": " + json_metrics(cm);
      total.merge(last[i].layer);
      total_h.frame_host_allocs += h.frame_host_allocs;
    }
    // Workload totals: per-pass sums over cells, median over passes.
    total_h.cluster_s = median_of(traced, [&](const auto& p) { return pass_sum(p, &CellRun::cluster_s); });
    total_h.world_s = median_of(traced, [&](const auto& p) { return pass_sum(p, &CellRun::world_s); });
    total_h.run_s = median_of(traced, [&](const auto& p) { return pass_sum(p, &CellRun::run_s); });
    total_h.teardown_s = median_of(traced, [&](const auto& p) { return pass_sum(p, &CellRun::teardown_s); });
    const double overhead = median_of(traced, wall_of) - median_of(plain, wall_of);
    out = per_layer_metrics(total, total_h, to_sec(last[w->headline].solve),
                            finish_spread(last[w->headline].rank_spans), overhead);
    std::printf("trace overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s\n",
                median_of(traced, wall_of), median_of(plain, wall_of), overhead);

    if (!o.trace_out.empty()) {
      if (FILE* f = std::fopen(o.trace_out.c_str(), "w")) {
        std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"held_out_seed\": %llu,\n",
                     w->name, static_cast<unsigned long long>(o.seed),
                     static_cast<unsigned long long>(kHeldOutSeed));
        std::fprintf(f, " \"cells\": {%s},\n \"host_spans\": [", cells_json.c_str());
        for (std::size_t i = 0; i < spans.size(); ++i)
          std::fprintf(f, "%s\n  {\"pass\": %d, \"cell\": \"%s\", \"span\": \"%s\", \"begin_s\": %.9f, \"end_s\": %.9f}",
                       i ? "," : "", spans[i].pass, spans[i].cell.c_str(), spans[i].what,
                       spans[i].begin_s, spans[i].end_s);
        std::fprintf(f, "],\n \"rank_spans_ps\": {");
        for (std::size_t i = 0; i < last.size(); ++i) {
          std::fprintf(f, "%s\"%s\": [", i ? ", " : "", w->cells[i].name);
          for (std::size_t r = 0; r < last[i].rank_spans.size(); ++r)
            std::fprintf(f, "%s[%lld, %lld]", r ? ", " : "",
                         static_cast<long long>(last[i].rank_spans[r].first),
                         static_cast<long long>(last[i].rank_spans[r].second));
          std::fprintf(f, "]");
        }
        std::fprintf(f, "}}\n");
        std::fclose(f);
      } else {
        check(false, "cannot write " + o.trace_out);
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(out).c_str());
  return failed == 0 ? 0 : 1;
}
