// Discrete-event simulation engine — the paper-scale core (DESIGN.md §8.5).
//
// Events are (time, sequence, callback) triples; ties break in insertion
// order so the simulation is deterministic. Simulated entities are written
// as C++20 coroutines (`Task<T>`, see task.hpp) that `co_await` delays and
// synchronization primitives; the engine resumes them from the event loop.
//
// Two mechanisms keep 256-node sweeps tractable:
//
//   * Calendar queue. The engine keeps one "year" of buckets — sorted
//     intrusive lists covering [base, base + nbuckets*width) — plus a
//     min-heap for far-future overflow events. Enqueue/dequeue are O(1)
//     amortized. The bucket count doubles when the whole pending
//     population (buckets plus overflow) passes twice the bucket count and
//     halves below an eighth. Each rebuild sets the width to twice the mean
//     gap, duplicates included, among the 64 earliest pending events
//     (Brown's rule), so ms-scale IKC watchdog timers park in the overflow
//     heap instead of stretching the buckets that ns-spaced traffic walks.
//     When out-of-order inserts walk more than 8 list nodes per dequeue
//     since the last rebuild, the width is stale and the queue rebuilds.
//     On the ring-transport UMT workload this cut insert walk steps from
//     ~334 M to ~2.2 M per pass and `bucket_insert` from 37 % to 4 % of
//     host time (DESIGN.md §8.5).
//
//   * Pooled event frames. Events are fixed-size nodes from a slab (the
//     kheap slab idiom applied host-side); callbacks up to kInlineBytes are
//     stored inline, and `schedule_resume` of a coroutine handle stores
//     only the handle address — the steady-state event path never touches
//     the host heap. Oversized callbacks fall back to a counted heap box.
//     Coroutine frames themselves recycle through a size-class pool
//     (detail::frame_alloc below).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/time.hpp"

namespace pd::sim {

namespace detail {

/// Size-class recycling pool for coroutine frames (process-global with
/// thread-local free lists, so a Task may outlive the Engine that ran it).
/// Frames up to 4 KiB recycle through free lists in 64-byte classes;
/// larger frames go straight to the host heap.
void* frame_alloc(std::size_t bytes);
void frame_free(void* p) noexcept;

struct FramePoolCounters {
  std::uint64_t host_allocs;  ///< frames that had to touch ::operator new
  std::uint64_t pool_hits;    ///< frames served from a free list
};
FramePoolCounters frame_pool_counters() noexcept;

/// A detached task's place in its engine's list of live detached frames.
/// It lives in the task's promise (task.hpp), so a spawn costs no host
/// allocation.
struct DetachedLink {
  DetachedLink* prev = nullptr;
  DetachedLink* next = nullptr;
  void* frame = nullptr;  // coroutine frame holding this link
};

}  // namespace detail

class Engine {
 public:
  /// Scheduler-internal accounting. `pool_chunks` + `boxed_callbacks` +
  /// `calendar_rebuilds` are the only event-path host allocations;
  /// bench_sim_scale gates their sum per event.
  struct Stats {
    std::uint64_t pool_chunks = 0;        ///< event-node slab growths
    std::uint64_t boxed_callbacks = 0;    ///< callbacks too big for the SBO
    std::uint64_t calendar_rebuilds = 0;  ///< bucket-array rebuilds (resize or new width)
    std::uint64_t overflow_parked = 0;    ///< events parked past the horizon
    std::uint64_t insert_steps = 0;       ///< list nodes out-of-order inserts walked past
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  // --- Scheduling ----------------------------------------------------------

  /// Current simulated time.
  Time now() const { return now_; }

  /// Run `fn` at absolute simulated time `t` (>= now, asserted). Accepts
  /// any callable, including move-only ones.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    assert(t >= now_ && "cannot schedule into the simulated past");
    EventNode* n = acquire();
    set_payload(*n, std::forward<F>(fn));
    push(n, t);
  }

  /// Run `fn` after `d` picoseconds of simulated time.
  template <typename F>
  void schedule_after(Dur d, F&& fn) {
    schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Resume a suspended coroutine after `d` (used by awaitables). Stores
  /// only the handle address in a pooled node — no host allocation.
  void schedule_resume(Dur d, std::coroutine_handle<> h);

  /// Awaitable: `co_await engine.delay(10_us);`
  struct DelayAwaiter {
    Engine& engine;
    Dur d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine.schedule_resume(d, h); }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(Dur d) { return DelayAwaiter{*this, d}; }

  /// Awaitable that reschedules the coroutine at the current time, behind
  /// everything already queued for `now()` — a cooperative yield.
  DelayAwaiter yield() { return DelayAwaiter{*this, 0}; }

  // --- Execution -----------------------------------------------------------

  /// Process events until the queue drains. Returns the number processed.
  std::uint64_t run() { return run_until(kNever); }

  /// Process events until the queue drains or `deadline` is passed (events
  /// at exactly `deadline` still run; the clock lands on `deadline` if the
  /// queue drained early).
  std::uint64_t run_until(Time deadline);

  /// Pop and execute a single event. False when the queue is empty.
  bool step();

  bool idle() const { return cal_size_ == 0 && overflow_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  Stats stats() const { return stats_; }

  // --- Detached-task bookkeeping (see spawn in task.hpp) -------------------
  // The engine links each detached frame into a list so immortal service
  // loops (device engines that `while (true)` forever) are destroyed with
  // the engine rather than leaked when the simulation ends.

  void note_task_spawned(detail::DetachedLink& link, std::coroutine_handle<> h) {
    link.frame = h.address();
    link.prev = nullptr;
    link.next = detached_;
    if (detached_ != nullptr) detached_->prev = &link;
    detached_ = &link;
    ++live_tasks_;
  }
  void note_task_done(detail::DetachedLink& link) {
    (link.prev != nullptr ? link.prev->next : detached_) = link.next;
    if (link.next != nullptr) link.next->prev = link.prev;
    --live_tasks_;
  }
  std::int64_t live_tasks() const { return live_tasks_; }

 private:
  struct EventNode {
    /// Sized so a fabric delivery closure (WireChunk plus a port pointer,
    /// ~120 bytes) stays inline; whole node = 3 cache lines.
    static constexpr std::size_t kInlineBytes = 144;

    Time t = 0;
    std::uint64_t seq = 0;
    EventNode* next = nullptr;             // bucket / free-list link
    void (*invoke)(EventNode&) = nullptr;  // run payload, then destroy it
    void (*drop)(EventNode&) = nullptr;    // destroy payload without running
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };

  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// Total event order: (t, seq) ascending.
  static bool later(const EventNode& a, const EventNode& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
  /// `later` on pointers doubles as the std::*_heap comparator: make_heap
  /// with a "greater" comparator keeps the minimum on top.
  static bool heap_later(const EventNode* a, const EventNode* b) { return later(*a, *b); }

  EventNode* acquire() {
    if (free_list_ == nullptr) grow_pool();
    EventNode* n = free_list_;
    free_list_ = n->next;
    n->next = nullptr;
    return n;
  }

  void release(EventNode* n) {
    n->invoke = nullptr;
    n->drop = nullptr;
    n->next = free_list_;
    free_list_ = n;
  }

  void push(EventNode* n, Time t) {
    n->t = t;
    n->seq = next_seq_++;
    insert(n);
  }

  /// Install a callable into a node: inline when it fits the SBO buffer,
  /// boxed on the heap (and counted) otherwise.
  template <typename F>
  void set_payload(EventNode& n, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<D&>, "event callback must be invocable with no arguments");
    if constexpr (sizeof(D) <= EventNode::kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n.buf)) D(std::forward<F>(fn));
      n.invoke = [](EventNode& e) {
        D* f = std::launder(reinterpret_cast<D*>(e.buf));
        (*f)();
        f->~D();
      };
      if constexpr (!std::is_trivially_destructible_v<D>) {
        n.drop = [](EventNode& e) { std::launder(reinterpret_cast<D*>(e.buf))->~D(); };
      }
    } else {
      auto* boxed = new D(std::forward<F>(fn));
      ++stats_.boxed_callbacks;
      std::memcpy(n.buf, &boxed, sizeof(boxed));
      n.invoke = [](EventNode& e) {
        D* p;
        std::memcpy(&p, e.buf, sizeof(p));
        (*p)();
        delete p;
      };
      n.drop = [](EventNode& e) {
        D* p;
        std::memcpy(&p, e.buf, sizeof(p));
        delete p;
      };
    }
  }

  // Calendar-queue mechanics (engine.cpp).
  void grow_pool();
  void bucket_insert(Bucket& b, EventNode* n);
  static EventNode* bucket_pop(Bucket& b);
  void insert(EventNode* n);
  Time next_time();  // kNever when the queue is empty
  EventNode* pop_min();
  void rebase();  // re-anchor the year at the overflow min
  void rebuild(std::size_t nbuckets);
  void dispatch(EventNode* n);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;

  // One calendar year: [base_, base_ + buckets_.size() * width_).
  std::vector<Bucket> buckets_;
  Dur width_ = 100'000;  // 100 ns to start; rebuilds adapt it to the workload
  Time base_ = 0;
  std::size_t cur_ = 0;       // min-scan cursor: buckets below are empty
  std::size_t cal_size_ = 0;  // events currently in buckets
  std::uint64_t pops_since_resize_ = 0;
  std::uint64_t steps_at_resize_ = 0;  // stats_.insert_steps when the width was set

  // Far-future fallback: min-heap on (t, seq) of events past the horizon.
  std::vector<EventNode*> overflow_;

  // Event-node slab pool.
  EventNode* free_list_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;

  detail::DetachedLink* detached_ = nullptr;  // live detached tasks, newest first
  std::int64_t live_tasks_ = 0;
  Stats stats_;
};

}  // namespace pd::sim
