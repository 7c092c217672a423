// DWARF debug-info writer.
//
// `InfoBuilder` assembles a type graph (base types, enums, pointers, arrays,
// typedefs, structs, unions) and serializes it as a DWARF4-style
// `.debug_abbrev` + `.debug_info` pair. The simulated HFI1 kernel module is
// "shipped" with this debug info, and the dwarf-extract-struct tool (paper
// §3.2) consumes it without any knowledge of how it was produced.
//
// Forward references are legal: `forward_struct()` returns a TypeRef that a
// pointer may target before `define_struct()` fills it in, which is how
// self-referential driver structures (lists, rings) are expressed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.hpp"

namespace pd::dwarf {

/// Handle to a type node inside one InfoBuilder (index, 1-based; 0 invalid).
struct TypeRef {
  std::uint32_t id = 0;
  bool valid() const { return id != 0; }
};

/// A serialized compile unit.
struct DebugInfo {
  std::vector<std::uint8_t> abbrev;  // .debug_abbrev
  std::vector<std::uint8_t> info;    // .debug_info
  std::vector<std::uint8_t> str;     // .debug_str (empty unless strp used)
};

/// How strings are stored in .debug_info.
enum class StringForm {
  inline_string,  // DW_FORM_string: NUL-terminated in place
  strp,           // DW_FORM_strp: 4-byte offsets into .debug_str (deduplicated)
};

class InfoBuilder {
 public:
  struct Member {
    std::string name;
    TypeRef type;
    std::uint64_t offset = 0;  // DW_AT_data_member_location
    // Bitfield members (bit_size > 0): DW_AT_bit_offset counts from the
    // least-significant bit of the storage unit at `offset` (the
    // little-endian convention this library fixes).
    std::uint64_t bit_size = 0;
    std::uint64_t bit_offset = 0;
  };
  struct Enumerator {
    std::string name;
    std::int64_t value = 0;
  };

  TypeRef add_base_type(std::string name, std::uint64_t byte_size, std::uint8_t encoding);
  TypeRef add_pointer(TypeRef pointee);  // invalid pointee => `void *`
  TypeRef add_enum(std::string name, std::uint64_t byte_size, std::vector<Enumerator> values);
  TypeRef add_array(TypeRef element, std::uint64_t count);
  /// Multi-dimensional array: one DW_TAG_subrange_type child per dimension.
  TypeRef add_array_md(TypeRef element, std::vector<std::uint64_t> counts);
  TypeRef add_typedef(std::string name, TypeRef target);
  /// Type qualifiers (DW_TAG_const_type / DW_TAG_volatile_type).
  TypeRef add_const(TypeRef target);
  TypeRef add_volatile(TypeRef target);

  /// Declare a struct whose layout will be provided later (or never, for
  /// pointer-only opaque types).
  TypeRef forward_struct(std::string name);
  /// Fill in a forward-declared struct. Asserts it is still undefined.
  void define_struct(TypeRef ref, std::uint64_t byte_size, std::vector<Member> members);
  /// Declare-and-define in one step.
  TypeRef add_struct(std::string name, std::uint64_t byte_size, std::vector<Member> members);
  TypeRef add_union(std::string name, std::uint64_t byte_size, std::vector<Member> members);

  /// Serialize everything added so far into one compile unit.
  DebugInfo build(const std::string& producer, const std::string& cu_name,
                  StringForm strings = StringForm::inline_string) const;

 private:
  enum class Kind {
    base,
    pointer,
    enumeration,
    array,
    type_def,
    structure,
    union_type,
    const_qual,
    volatile_qual,
  };

  struct Node {
    Kind kind;
    std::string name;
    std::uint64_t byte_size = 0;
    std::uint8_t encoding = 0;
    std::vector<std::uint64_t> counts;  // array dimensions
    TypeRef referent;            // pointer / array / typedef / qualifier target
    bool defined = true;         // false for forward-declared structs
    std::vector<Member> members;
    std::vector<Enumerator> enumerators;
  };

  TypeRef push(Node node);
  const Node& node(TypeRef ref) const { return nodes_[ref.id - 1]; }
  Node& node(TypeRef ref) { return nodes_[ref.id - 1]; }

  std::vector<Node> nodes_;
};

}  // namespace pd::dwarf
