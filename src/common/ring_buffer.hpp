// Fixed-capacity FIFO ring: the IKC transport's per-channel request rings
// (src/ikc). Capacity is fixed at construction, as in a shared-memory ring
// region: when full, the producer must back off (ring-full), the ring never
// grows on its own.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace pd {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) { assert(capacity > 0); }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == slots_.size(); }

  /// Returns false (and leaves the ring untouched) when full.
  [[nodiscard]] bool push(T item) {
    if (full()) return false;
    slots_[tail_] = std::move(item);
    tail_ = advance(tail_);
    ++count_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T item = std::move(slots_[head_]);
    head_ = advance(head_);
    --count_;
    return item;
  }

  /// Peek without consuming; undefined when empty (asserted).
  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }

  /// Visit every queued item, oldest first, without consuming.
  template <typename F>
  void for_each(F&& visit) const {
    for (std::size_t i = 0; i < count_; ++i) visit(slots_[(head_ + i) % slots_.size()]);
  }

 private:
  std::size_t advance(std::size_t i) const { return (i + 1) % slots_.size(); }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pd
