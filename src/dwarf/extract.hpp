// Structure extraction from DWARF debug info (paper §3.2).
//
// Given the debug info of a "shipped" driver module, a structure name, and
// the list of fields the LWK fast path touches, produce:
//
//   * a `StructLayout` — machine-readable offsets/sizes the PicoDriver
//     binds its field accessors to at runtime, and
//   * a generated C header in the paper's Listing-1 style: an unnamed union
//     of a whole-struct-sized char array plus, per field, an anonymous
//     struct of `char paddingN[offset]` followed by the field declaration.
//
// The point (as in the paper) is that nothing here depends on the driver's
// headers: layout knowledge comes exclusively from the binary's debug info,
// so driver updates only require re-running the extraction.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/dwarf/reader.hpp"

namespace pd::dwarf {

/// One extracted field.
struct FieldLayout {
  std::string name;
  std::uint64_t offset = 0;     // bytes from struct start
  std::uint64_t size = 0;       // sizeof(field / storage unit)
  std::string type_decl;        // C declaration, e.g. "enum sdma_states current_state"
  // Bitfield members: width and LSB offset inside the storage unit at
  // `offset`; bit_size == 0 for ordinary fields.
  std::uint32_t bit_size = 0;
  std::uint32_t bit_offset = 0;

  bool is_bitfield() const { return bit_size > 0; }
};

/// Machine-readable extraction result.
struct StructLayout {
  std::string struct_name;
  std::uint64_t byte_size = 0;
  std::vector<FieldLayout> fields;

  const FieldLayout* field(const std::string& name) const;
};

/// Extract the named fields of `struct_name` from parsed debug info.
/// Fails with ENOENT if the struct or any requested field is missing,
/// EINVAL if the debug info is malformed for a needed type.
Result<StructLayout> extract_struct(const DebugInfoView& view, const std::string& struct_name,
                                    const std::vector<std::string>& fields);

/// Render the Listing-1 style header for an extracted layout. Auxiliary
/// declarations (enum definitions, forward struct declarations) referenced
/// by the extracted fields are emitted above the struct.
std::string generate_header(const DebugInfoView& view, const StructLayout& layout);

/// Convenience: extract + generate in one step.
Result<std::string> extract_struct_header(const DebugInfoView& view,
                                          const std::string& struct_name,
                                          const std::vector<std::string>& fields);

/// Runtime accessor bound to an extracted field: reads/writes a value of
/// type T at the extracted offset inside a raw structure image. This is how
/// the LWK-side PicoDriver touches Linux driver state without the driver's
/// headers. It binds only to a field of exactly sizeof(T) bytes: T over a
/// narrower field would read and write past the field's end (and past the
/// image when the field is last). Callers must check bound() before use;
/// read() and write() assert it.
template <typename T>
class FieldAccessor {
 public:
  FieldAccessor() = default;
  explicit FieldAccessor(const FieldLayout& layout)
      : offset_(layout.offset), bound_(layout.size == sizeof(T)) {}
  /// `field` of struct `inner`, embedded in the outer struct at `member`:
  /// binds only when that member spans the whole of `inner`.
  FieldAccessor(const FieldLayout& member, const StructLayout& inner, const FieldLayout& field)
      : offset_(member.offset + field.offset),
        bound_(member.size == inner.byte_size && field.size == sizeof(T)) {}

  bool bound() const { return bound_; }
  std::uint64_t offset() const { return offset_; }

  T read(const void* struct_base) const {
    assert(bound_);
    T value;
    __builtin_memcpy(&value, static_cast<const std::uint8_t*>(struct_base) + offset_, sizeof(T));
    return value;
  }

  void write(void* struct_base, const T& value) const {
    assert(bound_);
    __builtin_memcpy(static_cast<std::uint8_t*>(struct_base) + offset_, &value, sizeof(T));
  }

 private:
  std::uint64_t offset_ = 0;
  bool bound_ = false;
};

/// Accessor for an extracted bitfield: reads/writes the `bit_size`-wide
/// value at `bit_offset` within the storage unit of type T at the field's
/// byte offset.
template <typename T>
class BitfieldAccessor {
 public:
  BitfieldAccessor() = default;
  explicit BitfieldAccessor(const FieldLayout& layout)
      : offset_(layout.offset), bit_offset_(layout.bit_offset),
        bit_size_(layout.bit_size), bound_(layout.is_bitfield()) {}

  bool bound() const { return bound_; }

  T read(const void* struct_base) const {
    T unit;
    __builtin_memcpy(&unit, static_cast<const std::uint8_t*>(struct_base) + offset_,
                     sizeof(T));
    return static_cast<T>((unit >> bit_offset_) & mask());
  }

  void write(void* struct_base, T value) const {
    T unit;
    auto* p = static_cast<std::uint8_t*>(struct_base) + offset_;
    __builtin_memcpy(&unit, p, sizeof(T));
    unit = static_cast<T>((unit & ~(mask() << bit_offset_)) |
                          ((value & mask()) << bit_offset_));
    __builtin_memcpy(p, &unit, sizeof(T));
  }

 private:
  T mask() const {
    // Shifting by the full width of T is undefined; a full-width field
    // (`unsigned x : 32`) takes every bit.
    if (bit_size_ >= sizeof(T) * 8) return static_cast<T>(~T{0});
    return static_cast<T>((T{1} << bit_size_) - 1);
  }

  std::uint64_t offset_ = 0;
  std::uint32_t bit_offset_ = 0;
  std::uint32_t bit_size_ = 0;
  bool bound_ = false;
};

}  // namespace pd::dwarf
