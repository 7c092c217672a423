#include "src/dwarf/extract.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "src/dwarf/constants.hpp"

namespace pd::dwarf {

namespace {

/// Most DW_AT_type links a walk follows from a field's type. Declarator
/// chains in real C stay within a handful of links (typedefs, qualifiers,
/// pointers, array dimensions); a longer one can only be a cycle in
/// malformed debug info, and the walks below treat it as malformed.
constexpr int kMaxTypeDepth = 64;

/// sizeof() a type DIE; 0 when unknown (malformed info).
std::uint64_t type_size(const DebugInfoView& view, const Die* type, int depth = 0) {
  if (type == nullptr || depth > kMaxTypeDepth) return 0;
  switch (type->tag) {
    case DW_TAG_base_type:
    case DW_TAG_enumeration_type:
    case DW_TAG_structure_type:
    case DW_TAG_union_type:
      return type->unsigned_attr(DW_AT_byte_size).value_or(0);
    case DW_TAG_pointer_type:
      return type->unsigned_attr(DW_AT_byte_size).value_or(kAddressSize);
    case DW_TAG_typedef:
    case DW_TAG_const_type:
    case DW_TAG_volatile_type:
      return type_size(view, view.type_of(*type), depth + 1);
    case DW_TAG_array_type: {
      // Multi-dimensional arrays carry one subrange per dimension. A size
      // that does not fit 64 bits is malformed.
      std::uint64_t total = type_size(view, view.type_of(*type), depth + 1);
      for (const auto& child : type->children) {
        if (child->tag == DW_TAG_subrange_type &&
            __builtin_mul_overflow(total, child->unsigned_attr(DW_AT_count).value_or(0), &total))
          return 0;
      }
      return total;
    }
    default:
      return 0;
  }
}

/// Build the C declaration "type name" for a field, handling the pointer
/// and array declarator syntax. Returns empty string when the type graph is
/// not printable (treated as malformed).
std::string format_decl(const DebugInfoView& view, const Die* type, const std::string& varname,
                        int depth = 0) {
  if (type == nullptr || depth > kMaxTypeDepth) return "";
  switch (type->tag) {
    case DW_TAG_base_type:
    case DW_TAG_typedef: {
      auto n = type->name();
      if (!n) return "";
      return *n + " " + varname;
    }
    case DW_TAG_enumeration_type: {
      auto n = type->name();
      const std::string tag = n ? "enum " + *n : "int /* anonymous enum */";
      return tag + " " + varname;
    }
    case DW_TAG_structure_type: {
      auto n = type->name();
      if (!n) return "";
      return "struct " + *n + " " + varname;
    }
    case DW_TAG_union_type: {
      auto n = type->name();
      if (!n) return "";
      return "union " + *n + " " + varname;
    }
    case DW_TAG_pointer_type: {
      const Die* pointee = view.type_of(*type);
      if (pointee == nullptr) return "void *" + varname;
      return format_decl(view, pointee, "*" + varname, depth + 1);
    }
    case DW_TAG_array_type: {
      const Die* elem = view.type_of(*type);
      std::string decl = varname;
      for (const auto& child : type->children) {
        if (child->tag == DW_TAG_subrange_type) {
          decl += '[';
          decl += std::to_string(child->unsigned_attr(DW_AT_count).value_or(0));
          decl += ']';
        }
      }
      return format_decl(view, elem, decl, depth + 1);
    }
    case DW_TAG_const_type: {
      const Die* inner = view.type_of(*type);
      const std::string d = format_decl(view, inner, varname, depth + 1);
      return d.empty() ? d : "const " + d;
    }
    case DW_TAG_volatile_type: {
      const Die* inner = view.type_of(*type);
      const std::string d = format_decl(view, inner, varname, depth + 1);
      return d.empty() ? d : "volatile " + d;
    }
    default:
      return "";
  }
}

/// Collect auxiliary declarations (enums, opaque structs/unions) that the
/// extracted field types reference so the generated header is standalone.
void collect_aux_decls(const DebugInfoView& view, const Die* type,
                       std::set<std::string>& emitted, std::ostringstream& out, int depth = 0) {
  if (type == nullptr || depth > kMaxTypeDepth) return;
  switch (type->tag) {
    case DW_TAG_enumeration_type: {
      auto n = type->name();
      if (!n || emitted.count("enum " + *n)) return;
      emitted.insert("enum " + *n);
      out << "enum " << *n << " {\n";
      for (const auto& child : type->children) {
        if (child->tag != DW_TAG_enumerator) continue;
        auto en = child->name();
        auto ev = child->signed_attr(DW_AT_const_value);
        if (en && ev) out << "\t" << *en << " = " << *ev << ",\n";
      }
      out << "};\n\n";
      return;
    }
    case DW_TAG_structure_type:
    case DW_TAG_union_type: {
      auto n = type->name();
      if (!n) return;
      const char* kw = type->tag == DW_TAG_structure_type ? "struct" : "union";
      const std::string key = std::string(kw) + " " + *n;
      if (emitted.count(key)) return;
      emitted.insert(key);
      out << kw << " " << *n << ";\n\n";
      return;
    }
    case DW_TAG_pointer_type:
    case DW_TAG_array_type:
    case DW_TAG_typedef:
    case DW_TAG_const_type:
    case DW_TAG_volatile_type:
      collect_aux_decls(view, view.type_of(*type), emitted, out, depth + 1);
      return;
    default:
      return;
  }
}

/// Does `type`'s chain of typedef, qualifier, pointer and array links reach
/// a base, enum, struct or union type (or void) within kMaxTypeDepth links?
/// type_size and format_decl stop at a pointer or a typedef name, so a cycle
/// through one (`typedef loop_t *loop_t;`) passes both.
bool chain_terminates(const DebugInfoView& view, const Die* type) {
  for (int links = 0; type != nullptr; ++links, type = view.type_of(*type)) {
    const auto tag = type->tag;
    if (tag != DW_TAG_typedef && tag != DW_TAG_const_type && tag != DW_TAG_volatile_type &&
        tag != DW_TAG_pointer_type && tag != DW_TAG_array_type)
      return true;
    if (links == kMaxTypeDepth) return false;
  }
  return true;  // void
}

const Die* find_member(const Die& struct_die, const std::string& field) {
  for (const auto& child : struct_die.children) {
    if (child->tag != DW_TAG_member) continue;
    auto n = child->name();
    if (n && *n == field) return child.get();
  }
  return nullptr;
}

}  // namespace

const FieldLayout* StructLayout::field(const std::string& name) const {
  auto it = std::find_if(fields.begin(), fields.end(),
                         [&](const FieldLayout& f) { return f.name == name; });
  return it == fields.end() ? nullptr : &*it;
}

Result<StructLayout> extract_struct(const DebugInfoView& view, const std::string& struct_name,
                                    const std::vector<std::string>& fields) {
  const Die* struct_die = view.find_named(DW_TAG_structure_type, struct_name);
  // Skip forward declarations: a declaration-only DIE has no byte size.
  if (struct_die != nullptr && !struct_die->unsigned_attr(DW_AT_byte_size)) {
    for (const Die* candidate : view.all_with_tag(DW_TAG_structure_type)) {
      auto n = candidate->name();
      if (n && *n == struct_name && candidate->unsigned_attr(DW_AT_byte_size)) {
        struct_die = candidate;
        break;
      }
    }
  }
  if (struct_die == nullptr) return Errno::enoent;
  auto byte_size = struct_die->unsigned_attr(DW_AT_byte_size);
  if (!byte_size) return Errno::enoent;

  StructLayout layout;
  layout.struct_name = struct_name;
  layout.byte_size = *byte_size;

  for (const std::string& field : fields) {
    const Die* member = find_member(*struct_die, field);
    if (member == nullptr) return Errno::enoent;
    auto offset = member->unsigned_attr(DW_AT_data_member_location);
    if (!offset) return Errno::einval;
    const Die* type = view.type_of(*member);
    if (!chain_terminates(view, type)) return Errno::einval;
    const std::uint64_t size = type_size(view, type);
    std::string decl = format_decl(view, type, field);
    if (size == 0 || decl.empty()) return Errno::einval;
    // Written so that no sum can wrap: the field must lie inside the struct.
    if (size > layout.byte_size || *offset > layout.byte_size - size) return Errno::einval;
    FieldLayout fl{field, *offset, size, std::move(decl), 0, 0};
    if (auto bits = member->unsigned_attr(DW_AT_bit_size)) {
      // Checked in 64 bits before narrowing: a zero width, a wrapping sum or
      // a truncated offset must not pass as a field inside its storage unit.
      // The unit's width is capped so both 32-bit narrowings stay exact.
      constexpr std::uint64_t kMaxUnitBytes = std::numeric_limits<std::uint32_t>::max() / 8;
      const std::uint64_t unit_bits = std::min(size, kMaxUnitBytes) * 8;
      const std::uint64_t bit_offset = member->unsigned_attr(DW_AT_bit_offset).value_or(0);
      if (*bits == 0 || *bits > unit_bits || bit_offset > unit_bits - *bits)
        return Errno::einval;
      fl.bit_size = static_cast<std::uint32_t>(*bits);
      fl.bit_offset = static_cast<std::uint32_t>(bit_offset);
    }
    layout.fields.push_back(std::move(fl));
  }
  return layout;
}

std::string generate_header(const DebugInfoView& view, const StructLayout& layout) {
  std::ostringstream out;
  out << "/* Generated by dwarf-extract-struct; do not edit.\n"
      << " * Source struct: " << layout.struct_name << " (" << layout.byte_size
      << " bytes). Field offsets extracted from module debug info.\n"
      << " */\n";

  // Auxiliary declarations so field types resolve.
  std::set<std::string> emitted;
  std::ostringstream aux;
  const Die* struct_die = view.find_named(DW_TAG_structure_type, layout.struct_name);
  if (struct_die != nullptr) {
    for (const auto& f : layout.fields) {
      const Die* member = find_member(*struct_die, f.name);
      if (member != nullptr) collect_aux_decls(view, view.type_of(*member), emitted, aux);
    }
  }
  out << aux.str();

  out << "struct " << layout.struct_name << " {\n";
  out << "\tunion {\n";
  out << "\t\tchar whole_struct[" << layout.byte_size << "];\n";
  int pad_index = 0;
  for (const auto& f : layout.fields) {
    out << "\t\tstruct {\n";
    if (f.offset > 0)
      out << "\t\t\tchar padding" << pad_index << "[" << f.offset << "];\n";
    ++pad_index;
    if (f.is_bitfield()) {
      // A leading anonymous bitfield positions the member at the right
      // bit within the storage unit.
      const std::string unit =
          f.type_decl.substr(0, f.type_decl.rfind(' '));  // strip the name
      if (f.bit_offset > 0) out << "\t\t\t" << unit << " : " << f.bit_offset << ";\n";
      out << "\t\t\t" << f.type_decl << " : " << f.bit_size << ";\n";
    } else {
      out << "\t\t\t" << f.type_decl << ";\n";
    }
    out << "\t\t};\n";
  }
  out << "\t};\n";
  out << "};\n";
  return out.str();
}

Result<std::string> extract_struct_header(const DebugInfoView& view,
                                          const std::string& struct_name,
                                          const std::vector<std::string>& fields) {
  auto layout = extract_struct(view, struct_name, fields);
  if (!layout) return layout.error();
  return generate_header(view, *layout);
}

}  // namespace pd::dwarf
