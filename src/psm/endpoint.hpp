// Performance Scaled Messaging (PSM) library model (paper §2.2.1).
//
// An Endpoint is a rank's user-space communication context over the HFI:
// matched queues (tag matching), three transfer protocols chosen by size —
//
//   * PIO      (≤ pio_threshold):    user-space only, CPU-copied, no syscall;
//   * eager    (≤ sdma_threshold):   one SDMA writev() per message; data
//                                    lands in eager buffers and is copied
//                                    out by the receiving CPU;
//   * expected (>  sdma_threshold):  rendezvous. RTS → receiver programs
//                                    RcvArray TIDs per window (ioctl) and
//                                    returns CTS → sender writev()s each
//                                    window → direct data placement, TIDs
//                                    freed per window (ioctl).
//
// The syscalls in the eager/expected paths are exactly the ones PicoDriver
// accelerates; on plain McKernel each is an offload.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>

#include "src/hw/hfi_device.hpp"
#include "src/os/process.hpp"
#include "src/pico/hfi_picodriver.hpp"

namespace pd::psm {

struct EndpointId {
  int node = 0;
  int ctxt = 0;
  friend bool operator==(const EndpointId&, const EndpointId&) = default;
};

/// One outstanding matched-queue operation.
struct PsmRequest {
  enum class Kind { send, recv };
  PsmRequest(sim::Engine& engine, Kind k) : kind(k), done(engine) {}

  Kind kind;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;
  mem::VirtAddr buf = 0;
  EndpointId peer;

  sim::Latch done;  // triggered once the request completes

  // Send-side rendezvous state.
  std::uint64_t msg_id = 0;
  std::uint32_t windows_total = 0;
  std::uint32_t windows_completed = 0;

  // Receive-side rendezvous state.
  std::uint32_t windows_granted = 0;
  std::uint32_t windows_received = 0;
  std::map<std::uint32_t, std::vector<std::uint32_t>> window_tids;
};

using PsmHandle = std::shared_ptr<PsmRequest>;

class Endpoint {
 public:
  /// `pico` may be null (Linux or plain-McKernel configurations); when set
  /// its per-rank init cost is charged inside init().
  Endpoint(os::Process& proc, hw::HfiDevice& local_dev, pico::HfiPicoDriver* pico);
  ~Endpoint();

  /// Open the device, run the admin handshake (ioctls, CSR mmap, read) and
  /// start the progress loop. The MPI_Init component of Table 1.
  sim::Task<Status> init();
  /// Stop progress and close the device file.
  sim::Task<Status> finalize();

  EndpointId id() const { return EndpointId{proc_.node(), proc_.ctxt()}; }
  os::Process& process() { return proc_; }

  PsmHandle isend(EndpointId dst, std::uint64_t tag, std::uint64_t bytes, mem::VirtAddr buf);
  PsmHandle irecv(EndpointId src, std::uint64_t tag, std::uint64_t bytes, mem::VirtAddr buf);
  sim::Task<> wait(PsmHandle h);

  /// --- protocol instrumentation ------------------------------------------
  std::uint64_t pio_sends() const { return pio_sends_; }
  std::uint64_t eager_sends() const { return eager_sends_; }
  std::uint64_t expected_sends() const { return expected_sends_; }

 private:
  struct RecvKey {
    int src_node;
    int src_ctxt;
    std::uint64_t msg_id;
    auto operator<=>(const RecvKey&) const = default;
  };

  sim::Task<> progress_loop();
  sim::Task<> run_send(PsmHandle h);
  sim::Task<> send_window(PsmHandle h, std::uint32_t window, std::uint32_t tid);
  sim::Task<> handle_rts(hw::RxEvent ev, PsmHandle recv);
  sim::Task<> grant_window(PsmHandle recv, const hw::RxEvent& rts, std::uint32_t window);
  sim::Task<> finish_grant(PsmHandle recv, const hw::RxEvent& rts, std::uint32_t window,
                           std::vector<std::uint32_t> tids);
  sim::Task<> handle_expected_data(hw::RxEvent ev);
  void complete(PsmHandle& h);
  void deliver_eager(PsmHandle recv, const hw::RxEvent& ev);
  PsmHandle match_posted(const hw::RxEvent& ev);

  hw::WireMessage base_msg(EndpointId dst) const;
  std::uint64_t window_bytes() const;

  os::Process& proc_;
  hw::HfiDevice& dev_;
  pico::HfiPicoDriver* pico_;
  sim::Engine& engine_;
  const os::Config& cfg_;

  int fd_ = -1;
  bool running_ = false;
  sim::Channel<hw::RxEvent>* rx_ = nullptr;
  sim::Latch stopped_;

  std::uint64_t next_msg_id_ = 1;
  std::list<PsmHandle> posted_recvs_;
  std::deque<hw::RxEvent> unexpected_;
  std::map<std::uint64_t, PsmHandle> active_sends_;   // by msg_id
  std::map<RecvKey, PsmHandle> active_recvs_;         // rendezvous in flight

  std::uint64_t pio_sends_ = 0;
  std::uint64_t eager_sends_ = 0;
  std::uint64_t expected_sends_ = 0;
};

}  // namespace pd::psm
