// Listing 1 + §3.2: regenerate the dwarf-extract-struct output for the
// HFI sdma_state structure from the shipped module binary — for every
// driver release the repository models — and report the porting effort
// (extraction wall time: "on the order of hours" in the paper becomes
// milliseconds when the tool drives it).
#include <chrono>

#include "bench/bench_common.hpp"
#include "src/dwarf/extract.hpp"
#include "src/hfi/layouts.hpp"

int main() {
  using namespace pd;
  bench::print_banner("Listing 1 — DWARF-extracted sdma_state header",
                      "padded-union header generated from module debug info only");

  for (const dwarf::Release& release : hfi::layout_spec().releases) {
    const char* version = release.version.c_str();
    auto layouts = dwarf::LayoutTable::for_version(hfi::layout_spec(), release.version);
    if (!layouts.ok()) continue;
    const auto t0 = std::chrono::steady_clock::now();
    const dwarf::ModuleBinary module = layouts->ship_module();
    auto view = module.debug_info();
    if (!view.ok()) {
      std::printf("parse failed for %s\n", version);
      return 1;
    }
    auto header = dwarf::extract_struct_header(
        *view, "sdma_state", {"current_state", "go_s99_running", "previous_state"});
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!header.ok()) {
      std::printf("extraction failed for %s\n", version);
      return 1;
    }
    std::printf("--- driver %s (extracted in %.3f ms) ---\n%s\n", version, ms,
                header->c_str());
  }
  std::printf(
      "Porting effort across vendor releases: re-run the extraction, done\n"
      "(paper: \"with the DWARF based header generation the porting effort\n"
      "has been on the order of hours\").\n");
  return 0;
}
