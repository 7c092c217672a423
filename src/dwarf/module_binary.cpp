#include "src/dwarf/module_binary.hpp"

#include <cstring>
#include <fstream>

#include "src/dwarf/leb128.hpp"

namespace pd::dwarf {

namespace {

constexpr char kMagic[8] = {'P', 'D', 'M', 'O', 'D', '0', '0', '1'};

void write_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

void ModuleBinary::set_section(const std::string& name, std::vector<std::uint8_t> bytes) {
  for (auto& s : sections_) {
    if (s.name == name) {
      s.bytes = std::move(bytes);
      return;
    }
  }
  sections_.push_back(Section{name, std::move(bytes)});
}

const std::vector<std::uint8_t>* ModuleBinary::section(const std::string& name) const {
  for (const auto& s : sections_)
    if (s.name == name) return &s.bytes;
  return nullptr;
}

std::vector<std::uint8_t> ModuleBinary::serialize() const {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof kMagic);
  write_u64(out, sections_.size());
  for (const auto& s : sections_) {
    write_u64(out, s.name.size());
    out.insert(out.end(), s.name.begin(), s.name.end());
    write_u64(out, s.bytes.size());
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  }
  return out;
}

Result<ModuleBinary> ModuleBinary::deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof kMagic || std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    return Errno::einval;
  ByteCursor cur(bytes.data(), bytes.size());
  cur.seek(sizeof kMagic);
  auto count = cur.read_u64();
  if (!count) return count.error();

  ModuleBinary mod;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto name_len = cur.read_u64();
    if (!name_len || *name_len > cur.remaining()) return Errno::einval;
    std::string name;
    for (std::uint64_t c = 0; c < *name_len; ++c) {
      auto ch = cur.read_u8();
      if (!ch) return ch.error();
      name.push_back(static_cast<char>(*ch));
    }
    auto size = cur.read_u64();
    if (!size || *size > cur.remaining()) return Errno::einval;
    std::vector<std::uint8_t> data;
    data.reserve(*size);
    for (std::uint64_t b = 0; b < *size; ++b) {
      auto byte = cur.read_u8();
      if (!byte) return byte.error();
      data.push_back(*byte);
    }
    mod.set_section(name, std::move(data));
  }
  return mod;
}

Status ModuleBinary::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Errno::eio;
  const auto bytes = serialize();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out ? Status::success() : Status(Errno::eio);
}

Result<ModuleBinary> ModuleBinary::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Errno::enoent;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

void ModuleBinary::set_debug_info(const DebugInfo& dbg) {
  set_section(".debug_abbrev", dbg.abbrev);
  set_section(".debug_info", dbg.info);
  if (!dbg.str.empty()) set_section(".debug_str", dbg.str);
}

Result<DebugInfoView> ModuleBinary::debug_info() const {
  const auto* abbrev = section(".debug_abbrev");
  const auto* info = section(".debug_info");
  if (abbrev == nullptr || info == nullptr) return Errno::enoent;
  static const std::vector<std::uint8_t> kNoStr;
  const auto* str = section(".debug_str");
  return DebugInfoView::parse(*abbrev, *info, str != nullptr ? *str : kNoStr);
}

void ModuleBinary::set_version(const std::string& version) {
  set_section(".modinfo", std::vector<std::uint8_t>(version.begin(), version.end()));
}

std::optional<std::string> ModuleBinary::version() const {
  const auto* bytes = section(".modinfo");
  if (bytes == nullptr) return std::nullopt;
  return std::string(bytes->begin(), bytes->end());
}

}  // namespace pd::dwarf
