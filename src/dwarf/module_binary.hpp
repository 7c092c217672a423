// Kernel-module binary container.
//
// The paper's workflow inspects the DWARF headers of the module binary
// *shipped by Intel*. Our simulated HFI1 driver ships the same way: a
// section container holding (at least) `.debug_abbrev` and `.debug_info`
// produced by pd::dwarf::InfoBuilder, and whatever else a module carries
// (a `.modinfo` with the version string, a fake `.text`). The extract tool
// operates on this container only — never on the driver's C++ headers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.hpp"

namespace pd::dwarf {

class ModuleBinary {
 public:
  void set_section(const std::string& name, std::vector<std::uint8_t> bytes);
  const std::vector<std::uint8_t>* section(const std::string& name) const;

  /// Serialize to the on-disk format (magic + section table).
  std::vector<std::uint8_t> serialize() const;
  static Result<ModuleBinary> deserialize(const std::vector<std::uint8_t>& bytes);

  Status save(const std::string& path) const;
  static Result<ModuleBinary> load(const std::string& path);

  /// Convenience for the `.modinfo` version string.
  void set_version(const std::string& version);
  std::optional<std::string> version() const;

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Section> sections_;
};

}  // namespace pd::dwarf
