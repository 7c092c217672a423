// User-space ABI of the simulated HFI1 driver (what PSM calls).
//
// Mirrors the shape of the real driver interface (paper §2.2.2): writev()
// with a metadata first-vector for SDMA sends, and ioctl() commands of
// which exactly three concern expected-receive (TID) registration — those
// three are what the PicoDriver fast-paths.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/wire.hpp"
#include "src/mem/types.hpp"

namespace pd::hfi {

inline constexpr const char* kDeviceName = "/dev/hfi1_0";

/// ioctl command numbers (subset of the real driver's dozen-plus).
enum IoctlCmd : unsigned long {
  // Expected-receive registration — the fast-path trio (paper §2.2.2).
  kTidUpdate = 0xB101,    // register user buffers, program RcvArray
  kTidFree = 0xB102,      // unregister by TID list
  kTidInvalRead = 0xB103, // read invalidation events

  // Administrative commands that always stay on the Linux path.
  kCtxtInfo = 0xB110,
  kUserInfo = 0xB111,
  kRecvCtrl = 0xB112,
  kPollType = 0xB113,
  kAckEvent = 0xB114,
  kSetPkey = 0xB115,
  kCtxtReset = 0xB116,
  kGetVers = 0xB117,
};

inline bool is_tid_cmd(unsigned long cmd) {
  return cmd == kTidUpdate || cmd == kTidFree || cmd == kTidInvalRead;
}

/// Contents of writev()'s first I/O vector: request metadata. The model
/// carries the wire header and a host-side completion hook (standing in
/// for the completion-queue entry the real PSM polls).
struct SdmaReqHeader {
  hw::WireMessage wire;                 // routing + matching + payload size
  std::function<void()> on_complete;    // fired from the completion IRQ path
};

/// kTidUpdate argument: in = user buffer range, out = the TIDs this call
/// programmed (the driver clears `tids` first, so it may be reused).
struct TidUpdateArgs {
  mem::VirtAddr vaddr = 0;
  std::uint64_t length = 0;
  std::vector<std::uint32_t> tids;  // out
};

/// kTidFree argument.
struct TidFreeArgs {
  std::vector<std::uint32_t> tids;
};

}  // namespace pd::hfi
