// Coroutine task type for simulated processes.
//
// `Task<T>` is a lazy coroutine: creating it does not run anything. It is
// consumed in exactly one of two ways:
//
//   1. `co_await` it from another coroutine — the child starts via symmetric
//      transfer and the parent resumes when the child finishes (normal
//      structured call).
//   2. `spawn(engine, std::move(task))` — detach it as a top-level simulated
//      process; the engine counts it and the frame self-destroys at
//      completion.
//
// Tasks always run to completion; there is no cancellation (simulated OS
// work is never abandoned half-way in this model), which keeps waiter lists
// in the synchronization primitives free of dangling handles.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/engine.hpp"

namespace pd::sim {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  Engine* detached_owner = nullptr;  // non-null once detached via spawn()
  DetachedLink detached;             // in detached_owner's list while live
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }

  // Coroutine frames recycle through the size-class pool instead of the
  // host heap: per-message tasks (PSM sends, IKC offloads) churn frames at
  // event rate, and frame_alloc keeps that off the allocator.
  static void* operator new(std::size_t size) { return frame_alloc(size); }
  static void operator delete(void* p, std::size_t) noexcept { frame_free(p); }
  static void operator delete(void* p) noexcept { frame_free(p); }
};

/// At the final suspend point either resume whoever co_awaited us, or — for
/// detached tasks — destroy the frame and notify the engine.
template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.detached_owner != nullptr) {
      // A detached simulated process has nobody to rethrow into.
      assert(!p.exception && "unhandled exception escaped a detached Task");
      p.detached_owner->note_task_done(p.detached);
      h.destroy();
      return std::noop_coroutine();
    }
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  // Awaitable interface: starting the child lazily on first await.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(*h_.promise().value);
  }

 private:
  template <typename U>
  friend void spawn(Engine& engine, Task<U> task);

  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_void() {}
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  template <typename U>
  friend void spawn(Engine& engine, Task<U> task);

  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

/// Detach a task as a top-level simulated process. Ownership of the frame
/// transfers to the coroutine itself; it starts running immediately (up to
/// its first suspension) in the caller's context.
template <typename U>
void spawn(Engine& engine, Task<U> task) {
  assert(task.valid());
  auto h = std::exchange(task.h_, {});
  h.promise().detached_owner = &engine;
  engine.note_task_spawned(h.promise().detached, h);
  h.resume();
}

}  // namespace pd::sim
