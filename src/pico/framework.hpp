// The PicoDriver framework (the paper's §3, generically).
//
// Binding a PicoDriver to a Linux driver requires, in order:
//   1. the kernel VA layouts to be unified (§3.1) — checked, and the LWK
//      image mapped into Linux via a vmap_area reservation so Linux can
//      invoke LWK callbacks;
//   2. compatible spin-lock implementations (§3.3) — checked by ABI id;
//   3. the driver structure layouts — extracted from the *shipped module
//      binary's* DWARF info (§3.2), never from driver headers.
//
// The result is a `PicoBinding`: validated structure layouts plus helpers
// to build LWK-resident kernel callbacks. Driver-specific fast paths (e.g.
// hfi_picodriver.hpp) are built on top of this.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/dwarf/extract.hpp"
#include "src/dwarf/module_binary.hpp"
#include "src/os/mckernel.hpp"

namespace pd::pico {

/// One structure the fast path needs, with the fields it touches.
struct StructRequest {
  std::string name;
  std::vector<std::string> fields;
};

/// Everything a bound PicoDriver knows.
class PicoBinding {
 public:
  /// Perform the full §3 binding procedure. Fails with:
  ///   EPERM  — VA layouts not unified (boot McKernel with the new layout);
  ///   EEXIST — vmap_area reservation collision on the Linux side;
  ///   ENOSYS — spin-lock ABI mismatch;
  ///   ENOENT/EINVAL — requested structure/field missing from debug info.
  static Result<PicoBinding> bind(os::McKernel& mck, os::LinuxKernel& linux_kernel,
                                  const dwarf::ModuleBinary& module,
                                  const std::vector<StructRequest>& requests);

  const std::string& driver_version() const { return driver_version_; }

  /// Extracted layout for a bound structure (nullptr if not requested).
  const dwarf::StructLayout* layout(const std::string& struct_name) const;

  /// Generated Listing-1 style header for a bound structure.
  Result<std::string> generated_header(const std::string& struct_name) const;

  /// A callback whose text lives in the LWK image — invocable from Linux
  /// only because bind() reserved the vmap_area (§3.1 requirement 3).
  os::KernelCallback lwk_callback(std::function<void()> fn) const;

  os::LinuxKernel& linux_kernel() const { return *linux_; }

 private:
  PicoBinding() = default;

  os::McKernel* mck_ = nullptr;
  os::LinuxKernel* linux_ = nullptr;
  std::string driver_version_;
  std::map<std::string, dwarf::StructLayout> layouts_;
  // Keep the parsed view alive for generated_header().
  std::shared_ptr<dwarf::DebugInfoView> view_;
};

}  // namespace pd::pico
