// HFI1 driver structure layouts, versioned like vendor releases.
//
// The driver's internal structures (`hfi1_filedata`, `hfi1_ctxtdata`,
// `sdma_engine`, `sdma_state`) live as raw byte images in the Linux kernel
// heap. The *driver* accesses them through the dwarf::LayoutTable it builds
// from the spec below. The *PicoDriver* never sees this header: it learns
// the same offsets by running dwarf-extract-struct over the module binary
// that `LayoutTable::ship_module()` produces — which is how the paper
// survives vendor updates that shuffle fields (§3.2). Each release here
// deliberately moves fields around to exercise exactly that.
#pragma once

#include <cstdint>

#include "src/dwarf/layout_table.hpp"

namespace pd::hfi {

/// Enum the driver stores in sdma_state::current_state.
enum class SdmaStates : std::uint32_t {
  s00_hw_down = 0,
  s10_hw_start_up_halt_wait = 1,
  s15_hw_start_up_clean_wait = 2,
  s20_idle = 3,
  s30_sw_clean_up_wait = 4,
  s40_hw_clean_up_wait = 5,
  s50_hw_halt_wait = 6,
  s60_idle_halt_wait = 7,
  s80_hw_freeze = 8,
  s99_running = 9,
};

/// The hfi1 module's structures in releases "10.8-0", "10.9-5" and "11.0-2".
const dwarf::LayoutSpec& layout_spec();

}  // namespace pd::hfi
