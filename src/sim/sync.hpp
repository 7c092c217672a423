// Synchronization primitives for simulated processes.
//
//   Latch    — one-shot broadcast event (completion notification).
//   Channel  — unbounded FIFO with awaitable receive (IKC message queues).
//   Resource — counted FIFO semaphore (models exclusive/limited hardware
//              or CPU service capacity; the Linux-CPU offload contention in
//              the paper is a Resource with `linux_cpus` units).
//
// All primitives schedule resumptions through the engine queue instead of
// resuming inline, so a trigger/release never reenters the caller and
// event ordering stays strictly time/sequence based.
//
// Channel and Resource queue items and waiters in a `detail::Fifo`, which
// allocates nothing until its first push. Most of these queues stay empty
// for their whole life (an IKC request's reply doorbell, an uncontended
// spin-lock), and libstdc++'s deque allocates a 512-byte node and its map
// on construction, in each of them (DESIGN.md §8.13).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/engine.hpp"

namespace pd::sim {

namespace detail {

/// FIFO queue on a power-of-two ring buffer: empty until the first push,
/// doubled when full, never shrunk.
template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& front() { return buf_[head_]; }

  void push_back(T item) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(item);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T item = std::move(buf_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return item;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 4 : 2 * cap_;
    auto buf = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) buf[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// One-shot broadcast: waiters before trigger() suspend, waiters after
/// proceed immediately. Reusable objects should use Channel instead.
class Latch {
 public:
  explicit Latch(Engine& engine) : engine_(&engine) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) engine_->schedule_resume(0, h);
    waiters_.clear();
  }

  struct Awaiter {
    Latch& latch;
    bool await_ready() const noexcept { return latch.triggered_; }
    void await_suspend(std::coroutine_handle<> h) { latch.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Engine* engine_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel. send() never blocks; recv() suspends until an
/// item arrives. Items are handed to waiters in FIFO order.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T item) {
    if (!waiters_.empty()) {
      Waiter w = waiters_.pop_front();
      *w.slot = std::move(item);
      engine_->schedule_resume(0, w.h);
      return;
    }
    items_.push_back(std::move(item));
  }

  std::size_t pending() const { return items_.size(); }
  std::size_t waiting_receivers() const { return waiters_.size(); }

  struct Awaiter {
    Channel& ch;
    std::optional<T> slot;

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back(Waiter{h, &slot});
    }
    T await_resume() {
      assert(slot.has_value());
      return std::move(*slot);
    }
  };
  Awaiter recv() { return Awaiter{*this, std::nullopt}; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::optional<T>* slot;
  };

  Engine* engine_;
  detail::Fifo<T> items_;
  detail::Fifo<Waiter> waiters_;
};

/// Counted FIFO semaphore. acquire(n) suspends until n units are free and
/// grants strictly in arrival order (no barging), which makes queueing
/// delay under contention reproducible. Capacity is elastic: grow() adds
/// units immediately, shrink() retires them — taking free units first and
/// absorbing the remainder as debt out of future release() calls, so a
/// unit currently held is never yanked from under its holder.
class Resource {
 public:
  Resource(Engine& engine, std::size_t capacity) : engine_(&engine), free_(capacity), capacity_(capacity) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return free_; }
  std::size_t queue_length() const { return waiters_.size(); }
  /// Units shrink() could not take from the free pool: retired lazily as
  /// their current holders release them.
  std::size_t shrink_debt() const { return debt_; }

  /// Add `n` units at runtime (a CPU handed to this pool). Queued waiters
  /// are granted immediately, in arrival order.
  void grow(std::size_t n) {
    capacity_ += n;
    free_ += n;
    grant();
  }

  /// Retire `n` units at runtime (a CPU leaving this pool). Units are taken
  /// from the free pool when possible; units currently held become debt and
  /// are retired by the next release() calls instead of re-entering the
  /// pool. Returns false (untouched) when `n` exceeds the capacity.
  bool shrink(std::size_t n) {
    if (n > capacity_) return false;
    capacity_ -= n;
    const std::size_t from_free = std::min(free_, n);
    free_ -= from_free;
    debt_ += n - from_free;
    return true;
  }

  struct Awaiter {
    Resource& res;
    std::size_t n;
    bool await_ready() {
      // FIFO: even if units are free, queued waiters go first.
      if (res.waiters_.empty() && res.free_ >= n) {
        res.free_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      res.waiters_.push_back(Waiter{h, n});
    }
    void await_resume() const noexcept {}
  };
  Awaiter acquire(std::size_t n = 1) {
    assert(n <= capacity_);
    return Awaiter{*this, n};
  }

  void release(std::size_t n = 1) {
    // Shrink debt eats released units before they re-enter the pool: the
    // holder of a retired unit finishes its work, then the unit vanishes.
    const std::size_t absorbed = std::min(debt_, n);
    debt_ -= absorbed;
    n -= absorbed;
    if (n == 0) return;
    free_ += n;
    assert(free_ <= capacity_);
    grant();
  }

  /// RAII unit holder for the common acquire-1/release-1 pattern.
  class Hold {
   public:
    explicit Hold(Resource& res) : res_(&res) {}
    Hold(Hold&& o) noexcept : res_(std::exchange(o.res_, nullptr)) {}
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    Hold& operator=(Hold&&) = delete;
    ~Hold() {
      if (res_ != nullptr) res_->release(1);
    }

   private:
    Resource* res_;
  };

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::size_t n;
  };

  void grant() {
    while (!waiters_.empty() && waiters_.front().n <= free_) {
      const Waiter w = waiters_.pop_front();
      free_ -= w.n;
      engine_->schedule_resume(0, w.h);
    }
  }

  Engine* engine_;
  std::size_t free_;
  std::size_t capacity_;
  std::size_t debt_ = 0;  // held units shrink() is still owed
  detail::Fifo<Waiter> waiters_;
};

}  // namespace pd::sim
