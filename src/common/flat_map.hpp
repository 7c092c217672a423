// FlatMap: an open-addressed hash map from a 64-bit integer key to a small
// trivially copyable value, for hot bookkeeping keyed by dense integers
// (4 KiB frame numbers, RcvArray TIDs).
//
// Linear probing from a Fibonacci-hashed home slot, backward-shift deletion
// (no tombstones, so probe runs never lengthen with churn), and storage that
// doubles at 3/4 load and is never given back. Inserting and erasing
// therefore allocate nothing once the map has reached its working size. The
// all-ones key marks an empty slot and cannot be stored.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pd {

template <class V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// The value stored under `key`, value-initialized first when absent.
  /// Inserting may grow the table, which invalidates pointers from find().
  V& operator[](std::uint64_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) i = (i + 1) & mask_;
    if (slots_[i].key == kEmptyKey) {
      slots_[i] = Slot{key, V{}};
      ++size_;
    }
    return slots_[i].value;
  }

  V* find(std::uint64_t key) {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* find(std::uint64_t key) const {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// Removes `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    std::size_t hole = slot_of(key);
    if (hole == kAbsent) return false;
    --size_;
    // Pull each later entry of the probe run back into the hole unless its
    // home lies cyclically after the hole.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey; j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  /// The slot `key`'s probe run starts at (capacity() must be > 0).
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ull) >> shift_);
  }

  /// Calls fn(key, value) for every entry, in slot order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) fn(s.key, s.value);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kInitialSlots = 16;

  std::size_t slot_of(std::uint64_t key) const {
    assert(key != kEmptyKey);
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return i;
      if (slots_[i].key == kEmptyKey) return kAbsent;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kInitialSlots : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace pd
