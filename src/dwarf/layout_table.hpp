// Compiled-in structure layout tables, shared by every simulated driver.
//
// A driver's internal structures live as raw byte images in the Linux
// kernel heap; the driver itself reads them through a table of
// (name, offset, size) rows — its "headers". Each driver versions its table
// like vendor releases (fields move between versions), ships the same
// information as DWARF debug info in its module binary, and the PicoDriver
// side re-learns the offsets from that binary alone (§3.2).
//
// A driver's layouts.cpp holds only data: a `LayoutSpec` naming its module,
// its enums, its baseline structs and its releases. `LayoutTable` is the
// one code path from a spec to a release's structures, their images and the
// module binary that release ships, for the HFI1 driver (src/hfi) and the
// pd-doom driver (src/doom) alike.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/dwarf/module_binary.hpp"
#include "src/dwarf/writer.hpp"

namespace pd::dwarf {

struct FieldDef {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::string type_name;  // "u16", "u32", "u64", "enum <name>" or "struct <name>"
};

struct StructDef {
  std::string name;
  std::uint64_t byte_size = 0;
  std::vector<FieldDef> fields;

  const FieldDef* field(const std::string& fname) const;
};

struct EnumDef {
  std::string name;
  std::uint64_t byte_size = 0;
  std::vector<InfoBuilder::Enumerator> values;
};

/// Per-version padding shift, emulating vendor releases that grow or move
/// fields. Keyed by struct name; added to every field offset at or beyond
/// `from_offset` (and to the struct size).
struct VersionShift {
  std::string struct_name;
  std::uint64_t from_offset;
  std::uint64_t delta;
};

/// One vendor release: its version string and the shifts it applies to the
/// baseline structs.
struct Release {
  std::string version;
  std::vector<VersionShift> shifts;
};

/// Everything a driver's layouts.cpp states about its structures.
struct LayoutSpec {
  std::string module;    // ships as "<module>.ko", `.modinfo` "<module> <version>"
  std::string producer;  // DW_AT_producer, followed by the version
  std::vector<EnumDef> enums;
  std::vector<StructDef> structs;  // baseline release, embedded structs declared first
  std::vector<Release> releases;
};

/// Typed accessor over a raw structure image using a layout table — the
/// driver's own (compiled-in) view of its structures.
class StructImage {
 public:
  StructImage() = default;
  StructImage(std::span<std::uint8_t> bytes, const StructDef* def) : bytes_(bytes), def_(def) {}

  /// The struct `inner` embedded at `field`.
  StructImage member(const std::string& field, const StructDef& inner) const {
    return StructImage(bytes_.subspan(def_->field(field)->offset, inner.byte_size), &inner);
  }

  template <typename T>
  T read(const std::string& field) const {
    const FieldDef* f = def_->field(field);
    T value{};
    if (f == nullptr || f->size != sizeof(T) || f->offset + f->size > bytes_.size()) return value;
    __builtin_memcpy(&value, bytes_.data() + f->offset, sizeof(T));
    return value;
  }

  template <typename T>
  bool write(const std::string& field, T value) {
    const FieldDef* f = def_->field(field);
    if (f == nullptr || f->size != sizeof(T) || f->offset + f->size > bytes_.size()) return false;
    __builtin_memcpy(bytes_.data() + f->offset, &value, sizeof(T));
    return true;
  }

 private:
  std::span<std::uint8_t> bytes_;
  const StructDef* def_ = nullptr;
};

/// One release of a driver's layouts.
class LayoutTable {
 public:
  /// `spec` at release `version`: the baseline structs with that release's
  /// shifts applied, each embedded struct field sized as its (possibly
  /// grown) type. ENOENT when `spec` lists no such release. The table
  /// refers to `spec`, which must outlive it.
  static Result<LayoutTable> for_version(const LayoutSpec& spec, const std::string& version);

  const StructDef* structure(const std::string& name) const;
  /// `bytes` viewed as the structure `name`.
  StructImage image(std::span<std::uint8_t> bytes, const std::string& name) const {
    return StructImage(bytes, structure(name));
  }

  /// The module binary this release ships: `.modinfo` version, a `.text`
  /// stub, and DWARF debug info (DW_FORM_strp strings) declaring the
  /// unsigned base types the structs use in ascending size, then the
  /// enums, then the structs in declaration order.
  ModuleBinary ship_module() const;

 private:
  const LayoutSpec* spec_ = nullptr;
  std::vector<StructDef> structs_;  // spec_->structs as of version_
  std::string version_;
};

}  // namespace pd::dwarf
