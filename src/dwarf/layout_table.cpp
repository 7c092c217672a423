#include "src/dwarf/layout_table.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "src/dwarf/constants.hpp"

namespace pd::dwarf {

namespace {

struct BaseType {
  const char* type_name;
  const char* c_name;
  std::uint64_t byte_size;
};

// In ascending size, the order ship_module() declares them in.
constexpr BaseType kBaseTypes[] = {
    {"u16", "short unsigned int", 2},
    {"u32", "unsigned int", 4},
    {"u64", "long unsigned int", 8},
};

}  // namespace

const FieldDef* StructDef::field(const std::string& fname) const {
  auto it = std::find_if(fields.begin(), fields.end(),
                         [&](const FieldDef& f) { return f.name == fname; });
  return it == fields.end() ? nullptr : &*it;
}

Result<LayoutTable> LayoutTable::for_version(const LayoutSpec& spec, const std::string& version) {
  auto release = std::find_if(spec.releases.begin(), spec.releases.end(),
                              [&](const Release& r) { return r.version == version; });
  if (release == spec.releases.end()) return Errno::enoent;
  LayoutTable table;
  table.spec_ = &spec;
  table.structs_ = spec.structs;
  table.version_ = version;
  for (const auto& shift : release->shifts) {
    for (auto& s : table.structs_) {
      if (s.name != shift.struct_name) continue;
      s.byte_size += shift.delta;
      for (auto& f : s.fields)
        if (f.offset >= shift.from_offset) f.offset += shift.delta;
    }
  }
  for (auto& s : table.structs_) {
    for (auto& f : s.fields) {
      if (f.type_name.rfind("struct ", 0) != 0) continue;
      if (const StructDef* inner = table.structure(f.type_name.substr(7)))
        f.size = inner->byte_size;
    }
  }
  return table;
}

const StructDef* LayoutTable::structure(const std::string& name) const {
  auto it = std::find_if(structs_.begin(), structs_.end(),
                         [&](const StructDef& s) { return s.name == name; });
  return it == structs_.end() ? nullptr : &*it;
}

ModuleBinary LayoutTable::ship_module() const {
  std::set<std::string> used;
  for (const auto& s : structs_)
    for (const auto& f : s.fields) used.insert(f.type_name);

  InfoBuilder b;
  std::map<std::string, TypeRef> types;  // FieldDef::type_name → ref
  for (const BaseType& t : kBaseTypes)
    if (used.count(t.type_name) != 0)
      types[t.type_name] = b.add_base_type(t.c_name, t.byte_size, DW_ATE_unsigned);
  for (const auto& e : spec_->enums)
    types["enum " + e.name] = b.add_enum(e.name, e.byte_size, e.values);
  for (const auto& s : structs_) {
    std::vector<InfoBuilder::Member> members;
    members.reserve(s.fields.size());
    for (const auto& f : s.fields)
      members.push_back(InfoBuilder::Member{f.name, types.at(f.type_name), f.offset});
    types["struct " + s.name] = b.add_struct(s.name, s.byte_size, std::move(members));
  }
  // Real modules keep their strings in a string table (DW_FORM_strp).
  const DebugInfo dbg =
      b.build(spec_->producer + " " + version_, spec_->module + ".ko", StringForm::strp);

  ModuleBinary mod;
  mod.set_version(spec_->module + " " + version_);
  mod.set_section(".text", std::vector<std::uint8_t>(64, 0x90));  // stub
  mod.set_debug_info(dbg);
  return mod;
}

}  // namespace pd::dwarf
