// Elastic CPU repartitioning between the kernels (§8.7).
//
// IHK advertises dynamic reconfiguration, but the seed repo only exercised
// it offline: IhkPartition::grow/shrink_cpus refuse while the LWK is
// booted. This module is the *live* path. A PartitionController moves one
// named core at a time between the Linux service pool and the LWK while
// traffic is in flight:
//
//   shrink (Linux → LWK): the top service CPU's IKC loop is quiesced —
//   it stops claiming, its channels re-shard onto the surviving loops
//   with home-socket affinity preserved, in-flight requests drain — then
//   the Linux kheap drains the core's remote-free queue and re-homes its
//   blocks, the Resource retires a unit (lazily if held), the IHK
//   partition adopts the core, and the LWK schedules it.
//
//   grow (LWK → Linux): the LWK's lowest app core yields (kheap re-home,
//   scheduler removal), leaves the partition, joins the Linux service
//   pool, and a fresh IKC service loop spins up on it.
//
// Both sides keep the prefix invariant: Linux owns exactly [0, count) and
// the transport's loop l serves service CPU l, so cores only join and
// leave at the boundary. The controller can be driven two ways: scripted
// (tests and benches call shrink/grow directly) or closed-loop — a
// monitor coroutine samples the offload queueing p95 every
// `elastic_check_interval`, folds it into an EWMA, and repartitions when
// the EWMA breaches a threshold for `elastic_hysteresis_checks`
// consecutive samples, with an `elastic_cooldown` floor between moves so
// an oscillating load never makes it flap.
#pragma once

#include <cstdint>

#include "src/common/status.hpp"
#include "src/common/time.hpp"
#include "src/os/config.hpp"
#include "src/os/ihk.hpp"
#include "src/os/mckernel.hpp"
#include "src/os/partition.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace pd::os {

class PartitionController {
 public:
  struct Stats {
    std::uint64_t shrinks = 0;          // service CPUs handed to the LWK
    std::uint64_t grows = 0;            // LWK cores pulled into the pool
    std::uint64_t flap_suppressed = 0;  // breaches ignored (cooldown window)
    std::uint64_t monitor_checks = 0;   // monitor samples taken
    Dur last_quiesce = 0;               // retire_loop() latency, last shrink
    double p95_ewma_us = 0.0;           // current EWMA of the queueing p95
  };

  /// `partition`, when non-null, is the LWK's IHK reservation and tracks
  /// core ownership alongside the kernels (tests without a partition pass
  /// null). The controller only borrows the references; the usual
  /// construction order (kernels → Ihk → controller) keeps them alive.
  PartitionController(sim::Engine& engine, const Config& cfg, Ihk& ihk, McKernel& mck,
                      IhkPartition* partition = nullptr);

  /// --- scripted repartitioning --------------------------------------------
  /// Retire the top `n` Linux service CPUs into the LWK, one at a time.
  /// Each step quiesces the core's IKC loop before the handover. Stops at
  /// the first failure: EBUSY at the `elastic_min_service_cpus` floor.
  sim::Task<Status> shrink_service_cpus(int n = 1);
  /// Pull `n` cores from the LWK into the service pool, one at a time.
  /// EBUSY at the elastic ceiling (`elastic_max_service_cpus`, or the boot
  /// shape when that is 0), or when the LWK would lose its last core.
  sim::Task<Status> grow_service_cpus(int n = 1);

  /// --- closed-loop monitor -------------------------------------------------
  /// Spawn the EWMA/hysteresis monitor (idempotent). It keeps scheduling
  /// wake-ups, so tests must stop_monitor() before expecting the engine to
  /// run dry.
  void start_monitor();
  void stop_monitor() { monitoring_ = false; }

  int service_cpu_count() const { return ihk_.linux_kernel().service_cpu_count(); }
  /// The grow ceiling actually in force (resolves the 0 = boot-shape knob).
  int max_service_cpus() const;
  const Stats& stats() const { return stats_; }

 private:
  sim::Task<Status> shrink_one();
  sim::Task<Status> grow_one();
  sim::Task<> monitor();

  sim::Engine& engine_;
  const Config& cfg_;
  Ihk& ihk_;
  McKernel& mck_;
  IhkPartition* partition_;
  Stats stats_;
  bool monitoring_ = false;
  bool ewma_seeded_ = false;
  int grow_streak_ = 0;
  int shrink_streak_ = 0;
  Dur cooldown_until_ = 0;
};

}  // namespace pd::os
