// LEB128 variable-length integer coding as used by DWARF (DWARF4 §7.6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.hpp"

namespace pd::dwarf {

/// Append unsigned LEB128.
inline void write_uleb128(std::vector<std::uint8_t>& out, std::uint64_t value) {
  do {
    std::uint8_t byte = value & 0x7F;
    value >>= 7;
    if (value != 0) byte |= 0x80;
    out.push_back(byte);
  } while (value != 0);
}

/// Append signed LEB128.
inline void write_sleb128(std::vector<std::uint8_t>& out, std::int64_t value) {
  bool more = true;
  while (more) {
    std::uint8_t byte = value & 0x7F;
    value >>= 7;  // arithmetic shift keeps the sign
    const bool sign_bit = (byte & 0x40) != 0;
    if ((value == 0 && !sign_bit) || (value == -1 && sign_bit)) more = false;
    if (more) byte |= 0x80;
    out.push_back(byte);
  }
}

/// Bounded cursor over an encoded byte stream. All reads fail softly with
/// EINVAL instead of running past the end — the reader treats debug info as
/// untrusted input (it nominally comes from a vendor-shipped binary).
class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  void seek(std::size_t pos) { pos_ = pos <= size_ ? pos : size_; }

  Result<std::uint8_t> read_u8() {
    if (pos_ + 1 > size_) return Errno::einval;
    return data_[pos_++];
  }

  Result<std::uint16_t> read_u16() {
    if (pos_ + 2 > size_) return Errno::einval;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  Result<std::uint32_t> read_u32() {
    if (pos_ + 4 > size_) return Errno::einval;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  Result<std::uint64_t> read_u64() {
    if (pos_ + 8 > size_) return Errno::einval;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  Result<std::uint64_t> read_uleb128() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_ || shift > 63) return Errno::einval;
      const std::uint8_t byte = data_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return value;
  }

  Result<std::int64_t> read_sleb128() {
    // Accumulate and sign-extend in uint64_t: a 9-byte encoding ends at
    // shift 63, where the signed form would have to negate INT64_MIN.
    std::uint64_t value = 0;
    int shift = 0;
    std::uint8_t byte = 0;
    while (true) {
      if (pos_ >= size_ || shift > 63) return Errno::einval;
      byte = data_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      shift += 7;
      if ((byte & 0x80) == 0) break;
    }
    if (shift < 64 && (byte & 0x40) != 0) value |= ~std::uint64_t{0} << shift;
    return static_cast<std::int64_t>(value);
  }

  /// NUL-terminated string (DW_FORM_string).
  Result<std::string> read_cstring() {
    std::string s;
    while (true) {
      if (pos_ >= size_) return Errno::einval;
      const char c = static_cast<char>(data_[pos_++]);
      if (c == '\0') break;
      s.push_back(c);
    }
    return s;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace pd::dwarf
