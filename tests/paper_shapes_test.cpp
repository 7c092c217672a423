// Paper-shape regression tests: miniature versions of the headline
// comparisons from EXPERIMENTS.md, pinned as orderings (not magnitudes) so
// calibration drift that would silently flip a conclusion fails CI.
#include <gtest/gtest.h>

#include "src/apps/proxies.hpp"
#include "src/common/units.hpp"

namespace pd {
namespace {

using namespace pd::time_literals;

struct ModeTimes {
  double linux_s = 0;
  double mck_s = 0;
  double hfi_s = 0;
};

/// `app`'s 4-node paper point in each mode, running `body`.
template <typename Body>
ModeTimes run_modes(apps::App app, const Body& body) {
  ModeTimes t;
  for (os::OsMode mode :
       {os::OsMode::linux, os::OsMode::mckernel, os::OsMode::mckernel_hfi}) {
    const apps::PaperPoint point = apps::paper_point(app, 4, mode);
    const auto out = apps::run_app(point.cluster, point.world, body);
    if (mode == os::OsMode::linux)
      t.linux_s = out.runtime_sec;
    else if (mode == os::OsMode::mckernel)
      t.mck_s = out.runtime_sec;
    else
      t.hfi_s = out.runtime_sec;
  }
  return t;
}

TEST(PaperShapes, Fig6aUmtOrderingAtFourNodes) {
  apps::UmtParams umt;
  umt.steps = 1;
  const auto t =
      run_modes(apps::App::umt, [umt](mpirt::Rank& r) { return apps::umt_rank(r, umt); });
  // Plain McKernel collapses; the PicoDriver beats Linux.
  EXPECT_GT(t.mck_s, 1.5 * t.linux_s) << "UMT multi-node collapse missing";
  EXPECT_LT(t.hfi_s, t.linux_s) << "PicoDriver must beat Linux on UMT";
}

TEST(PaperShapes, Fig6bHaccOrderingAtFourNodes) {
  apps::HaccParams hacc;
  hacc.steps = 2;
  const auto t =
      run_modes(apps::App::hacc, [hacc](mpirt::Rank& r) { return apps::hacc_rank(r, hacc); });
  EXPECT_GT(t.mck_s, 1.1 * t.linux_s) << "HACC degradation missing";
  EXPECT_LT(t.mck_s, 3.0 * t.linux_s) << "HACC must degrade, not collapse like UMT";
  EXPECT_LE(t.hfi_s, 1.02 * t.linux_s) << "PicoDriver HACC at or above Linux";
}

TEST(PaperShapes, Fig5LammpsParityAtFourNodes) {
  apps::LammpsParams lammps;
  lammps.steps = 3;
  const auto t = run_modes(apps::App::lammps,
                           [lammps](mpirt::Rank& r) { return apps::lammps_rank(r, lammps); });
  // PIO-path app: every mode within a few percent.
  EXPECT_NEAR(t.mck_s / t.linux_s, 1.0, 0.06);
  EXPECT_NEAR(t.hfi_s / t.linux_s, 1.0, 0.06);
}

TEST(PaperShapes, Fig7QboxOrderingAtFourNodes) {
  apps::QboxParams qbox;
  qbox.scf_iterations = 2;
  const auto t =
      run_modes(apps::App::qbox, [qbox](mpirt::Rank& r) { return apps::qbox_rank(r, qbox); });
  // McKernel mildly behind, PicoDriver ahead of both.
  EXPECT_GT(t.mck_s, t.linux_s);
  EXPECT_LT(t.mck_s, 1.6 * t.linux_s) << "QBOX must not collapse like UMT";
  EXPECT_LT(t.hfi_s, t.linux_s);
}

TEST(PaperShapes, Fig4DescriptorSizesExact) {
  // The §4.3 instrumentation claim, pinned exactly.
  for (os::OsMode mode :
       {os::OsMode::linux, os::OsMode::mckernel, os::OsMode::mckernel_hfi}) {
    mpirt::ClusterOptions copts;
    copts.nodes = 2;
    copts.mode = mode;
    mpirt::Cluster cluster(copts);
    mpirt::WorldOptions wopts;
    wopts.ranks_per_node = 1;
    mpirt::MpiWorld world(cluster, wopts);
    world.run([](mpirt::Rank& rank) -> sim::Task<> {
      co_await rank.init();
      if (rank.id() == 0)
        co_await rank.send(1, 1, 1_MiB);
      else
        co_await rank.recv(0, 1, 1_MiB);
      co_await rank.finalize();
    });
    std::uint64_t descs = 0, bytes = 0;
    for (int n = 0; n < 2; ++n) {
      descs += cluster.node(n).device->total_descriptors();
      bytes += cluster.node(n).device->total_descriptor_bytes();
    }
    ASSERT_GT(descs, 0u);
    const double mean = static_cast<double>(bytes) / static_cast<double>(descs);
    if (mode == os::OsMode::mckernel_hfi) {
      EXPECT_GT(mean, 10000.0) << "PicoDriver must exploit ~10 KiB descriptors";
    } else {
      EXPECT_DOUBLE_EQ(mean, 4096.0) << "Linux driver is PAGE_SIZE-limited";
    }
  }
}

}  // namespace
}  // namespace pd
