// pd-doom driver structure layouts, versioned like vendor releases.
//
// Second proof point for §3.2: a *different* driver's internal structures
// (`doom_devdata` with an embedded `doom_ringstate`, per-open `doom_ctx`)
// live as raw byte images in the Linux kernel heap, the driver reads them
// through the dwarf::LayoutTable it builds from the spec below, and the
// PicoDriver side learns the same offsets exclusively from the DWARF info
// inside the module binary that `LayoutTable::ship_module()` produces. The
// releases deliberately shuffle fields so the extraction — not the header —
// is what keeps the fast path correct.
#pragma once

#include <cstdint>

#include "src/dwarf/layout_table.hpp"

namespace pd::doom {

/// Device run state the driver stores in doom_ringstate::run_state.
enum class DoomRunState : std::uint32_t {
  halted = 0,
  running = 1,
  error = 2,  // bad PTE parked the device; reset required
};

/// The pd_doom module's structures in releases "0.9-d6", "1.1-d2" and "2.0-d1".
const dwarf::LayoutSpec& layout_spec();

}  // namespace pd::doom
