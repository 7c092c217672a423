// Kernel-module binary container.
//
// The paper's workflow inspects the DWARF headers of the module binary
// *shipped by Intel*. Our simulated drivers ship the same way: a section
// container holding debug info produced by pd::dwarf::InfoBuilder and
// whatever else a module carries (a `.modinfo` with the version string, a
// fake `.text`). This class is the one place that names the debug-info
// sections: `set_debug_info()` writes them and `debug_info()` parses them,
// so the PicoDriver bind, the extract tool and the benches read a module
// only through it — never through the driver's C++ headers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/dwarf/reader.hpp"
#include "src/dwarf/writer.hpp"

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

  /// Store `dbg` as the `.debug_abbrev`, `.debug_info` and, unless its
  /// string table is empty, `.debug_str` sections.
  void set_debug_info(const DebugInfo& dbg);
  /// Parse the debug-info sections: ENOENT when `.debug_abbrev` or
  /// `.debug_info` is missing, otherwise DebugInfoView::parse's result.
  Result<DebugInfoView> debug_info() const;

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
