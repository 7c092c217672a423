#include "src/os/proc_jobs.hpp"

#include <algorithm>
#include <cstdio>

namespace pd::os {

using namespace pd::time_literals;

ProcJobsFile::ProcJobsFile(LinuxKernel& linux_kernel, ikc::IkcTransport& transport)
    : linux_(linux_kernel), transport_(transport) {
  linux_.register_device(*this);
}

std::string ProcJobsFile::render() const {
  std::string out = "job weight submitted completed eagain credit_waits inflight"
                    " q_p50_us q_p95_us\n";
  char line[192];
  for (const ikc::JobId job : transport_.jobs_seen()) {
    const ikc::IkcTransport::JobStats* st = transport_.job_stats(job);
    if (st == nullptr) continue;
    const ikc::QueueingSummary q = ikc::summarize_queueing(st->queueing_us);
    std::snprintf(line, sizeof line, "%u %.2f %llu %llu %llu %llu %d %.2f %.2f\n",
                  static_cast<unsigned>(job), transport_.job_weight(job),
                  static_cast<unsigned long long>(st->submitted),
                  static_cast<unsigned long long>(st->completed),
                  static_cast<unsigned long long>(st->eagain),
                  static_cast<unsigned long long>(st->credit_waits), st->inflight,
                  q.p50_us, q.p95_us);
    out += line;
  }
  return out;
}

const std::string* ProcJobsFile::snapshot(const OpenFile& f) {
  const auto* ctx = static_cast<const FileCtx*>(f.driver_ctx);
  return ctx == nullptr ? nullptr : &ctx->text;
}

sim::Task<Result<long>> ProcJobsFile::open(OpenFile& f) {
  // seq_file show(): render the whole table into the open file's buffer.
  co_await linux_.engine().delay(from_us(2.0));
  auto* ctx = new FileCtx;
  ctx->text = render();
  f.driver_ctx = ctx;
  f.driver_ctx_dtor = [](void* p) { delete static_cast<FileCtx*>(p); };
  co_return 0L;
}

sim::Task<Result<long>> ProcJobsFile::read(OpenFile& f, std::uint64_t len) {
  auto* ctx = static_cast<FileCtx*>(f.driver_ctx);
  if (ctx == nullptr) co_return Errno::ebadf;
  co_await linux_.engine().delay(from_ns(600));
  const std::uint64_t remaining = ctx->text.size() - ctx->off;
  const std::uint64_t take = std::min(len, remaining);
  ctx->off += take;
  co_return static_cast<long>(take);  // 0 at EOF
}

sim::Task<Result<long>> ProcJobsFile::lseek(OpenFile& f, long offset, int whence) {
  // Only rewind-to-start (the procfs re-read idiom); re-snapshot the table.
  auto* ctx = static_cast<FileCtx*>(f.driver_ctx);
  if (ctx == nullptr) co_return Errno::ebadf;
  if (whence != 0 || offset != 0) co_return Errno::espipe;
  co_await linux_.engine().delay(from_us(2.0));
  ctx->text = render();
  ctx->off = 0;
  co_return 0L;
}

sim::Task<Result<long>> ProcJobsFile::close(OpenFile& f) {
  auto* ctx = static_cast<FileCtx*>(f.driver_ctx);
  if (ctx == nullptr) co_return Errno::ebadf;
  co_await linux_.engine().delay(from_ns(500));
  delete ctx;
  f.driver_ctx = nullptr;
  co_return 0L;
}

}  // namespace pd::os
