// /proc/pd/jobs — read-only introspection of per-job IKC statistics.
//
// A procfs-style text file on the simulated VFS: open() snapshots the
// transport's per-job stats (submitted/completed/eagain/inflight and the
// queueing p50/p95) into the open file, read() consumes the rendered text
// through the normal CharDevice read path, close() drops the snapshot.
// Snapshot-at-open gives procfs semantics: a reader paging through the file
// sees one consistent table even while jobs keep completing underneath it.
//
// The model's read() moves byte *counts*, not payloads, so tests assert
// against snapshot() — the rendered text backing those counts.
#pragma once

#include <string>

#include "src/ikc/transport.hpp"
#include "src/os/kernel.hpp"

namespace pd::os {

class ProcJobsFile final : public CharDevice {
 public:
  /// `transport` is the node's IKC transport whose per-job stats the file
  /// renders. Registers itself on `linux_kernel`'s VFS.
  ProcJobsFile(LinuxKernel& linux_kernel, ikc::IkcTransport& transport);

  std::string dev_name() const override { return "/proc/pd/jobs"; }

  // Read-only: writev, ioctl and mmap keep CharDevice's EINVAL.
  sim::Task<Result<long>> open(OpenFile& f) override;
  sim::Task<Result<long>> read(OpenFile& f, std::uint64_t len) override;
  sim::Task<Result<long>> lseek(OpenFile& f, long offset, int whence) override;
  sim::Task<Result<long>> close(OpenFile& f) override;

  /// The text snapshot rendered at open() (nullptr before open / after
  /// close). What read()'s byte counts walk through.
  static const std::string* snapshot(const OpenFile& f);

  /// Render the table once, without a file (what open() stores).
  std::string render() const;

 private:
  struct FileCtx {
    std::string text;
    std::size_t off = 0;
  };

  LinuxKernel& linux_;
  ikc::IkcTransport& transport_;
};

}  // namespace pd::os
