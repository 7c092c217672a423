#include "src/sim/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>

namespace pd::sim {

// ---------------------------------------------------------------------------
// Coroutine-frame pool.
//
// Process-global (a Task may outlive its Engine) with thread-local free
// lists, so independent engines on separate host threads never share one.
// A 16-byte header in front of each frame records its size class; class 0
// means "too big, plain heap".
// ---------------------------------------------------------------------------

namespace detail {
namespace {

constexpr std::size_t kFrameHeader = 16;  // keeps the frame max_align_t-aligned
constexpr std::size_t kClassStride = 64;
constexpr std::size_t kNumClasses = 64;  // pool frames up to 4 KiB

struct FreeFrame {
  FreeFrame* next;
};

std::atomic<std::uint64_t> g_frame_host_allocs{0};
std::atomic<std::uint64_t> g_frame_pool_hits{0};

// No destructor: frames cached at thread exit are reclaimed by the OS.
thread_local std::array<FreeFrame*, kNumClasses> t_frame_cache{};

void write_class(unsigned char* base, std::uint64_t cls) {
  std::memcpy(base, &cls, sizeof(cls));
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t total = bytes + kFrameHeader;
  const std::size_t cls = (total + kClassStride - 1) / kClassStride;
  if (cls <= kNumClasses) {
    FreeFrame*& head = t_frame_cache[cls - 1];
    if (head != nullptr) {
      FreeFrame* f = head;
      head = f->next;
      g_frame_pool_hits.fetch_add(1, std::memory_order_relaxed);
      auto* base = reinterpret_cast<unsigned char*>(f);
      write_class(base, cls);
      return base + kFrameHeader;
    }
    g_frame_host_allocs.fetch_add(1, std::memory_order_relaxed);
    auto* base = static_cast<unsigned char*>(::operator new(cls * kClassStride));
    write_class(base, cls);
    return base + kFrameHeader;
  }
  g_frame_host_allocs.fetch_add(1, std::memory_order_relaxed);
  auto* base = static_cast<unsigned char*>(::operator new(total));
  write_class(base, 0);
  return base + kFrameHeader;
}

void frame_free(void* p) noexcept {
  auto* base = static_cast<unsigned char*>(p) - kFrameHeader;
  std::uint64_t cls;
  std::memcpy(&cls, base, sizeof(cls));
  if (cls == 0) {
    ::operator delete(base);
    return;
  }
  auto* f = reinterpret_cast<FreeFrame*>(base);
  f->next = t_frame_cache[cls - 1];
  t_frame_cache[cls - 1] = f;
}

FramePoolCounters frame_pool_counters() noexcept {
  return {g_frame_host_allocs.load(std::memory_order_relaxed),
          g_frame_pool_hits.load(std::memory_order_relaxed)};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kChunkNodes = 256;
constexpr std::size_t kInitBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
constexpr std::size_t kHeadSample = 64;  // earliest events that set the width
constexpr std::uint64_t kStaleWalk = 8;  // insert steps per pop that mean a stale width
}  // namespace

Engine::Engine() { buckets_.resize(kInitBuckets); }

Engine::~Engine() {
  // Destroy pending payloads without running them (a drained simulation
  // has none; run_until can leave some behind).
  for (std::size_t i = cur_; i < buckets_.size(); ++i)
    for (EventNode* n = buckets_[i].head; n != nullptr; n = n->next)
      if (n->drop != nullptr) n->drop(*n);
  for (EventNode* n : overflow_)
    if (n->drop != nullptr) n->drop(*n);
  // Detached service coroutines (device engines etc.) loop forever and
  // are still suspended when the simulation ends; reclaim their frames.
  // Nothing resumes during teardown, so destroying in list order is safe —
  // detached frames are top-level and never own one another. Each link
  // lives in the frame it names: read the next one before destroying it.
  for (detail::DetachedLink* link = detached_; link != nullptr;) {
    detail::DetachedLink* next = link->next;
    std::coroutine_handle<>::from_address(link->frame).destroy();
    link = next;
  }
}

void Engine::schedule_resume(Dur d, std::coroutine_handle<> h) {
  assert(d >= 0);
  EventNode* n = acquire();
  void* addr = h.address();
  std::memcpy(n->buf, &addr, sizeof(addr));
  n->invoke = [](EventNode& e) {
    void* a;
    std::memcpy(&a, e.buf, sizeof(a));
    std::coroutine_handle<>::from_address(a).resume();
  };
  // drop stays null: an unresumed coroutine is reclaimed by its owner
  // (Task destructor or the detached-frame sweep), not by the event queue.
  push(n, now_ + d);
}

void Engine::grow_pool() {
  auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunk[i].next = free_list_;
    free_list_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
  ++stats_.pool_chunks;
}

void Engine::bucket_insert(Bucket& b, EventNode* n) {
  n->next = nullptr;
  if (b.head == nullptr) {
    b.head = b.tail = n;
    return;
  }
  if (!later(*b.tail, *n)) {
    // Fast path: events overwhelmingly arrive in (t, seq) order.
    b.tail->next = n;
    b.tail = n;
    return;
  }
  if (later(*b.head, *n)) {
    n->next = b.head;
    b.head = n;
    return;
  }
  EventNode* p = b.head;
  while (p->next != nullptr && !later(*p->next, *n)) {
    p = p->next;
    ++stats_.insert_steps;
  }
  n->next = p->next;
  p->next = n;  // tail unchanged: n landed strictly before the old tail
}

Engine::EventNode* Engine::bucket_pop(Bucket& b) {
  EventNode* n = b.head;
  b.head = n->next;
  if (b.head == nullptr) b.tail = nullptr;
  n->next = nullptr;
  return n;
}

void Engine::insert(EventNode* n) {
  const Time horizon = base_ + static_cast<Time>(buckets_.size()) * width_;
  if (n->t >= horizon) {
    overflow_.push_back(n);
    std::push_heap(overflow_.begin(), overflow_.end(), heap_later);
    ++stats_.overflow_parked;
    return;
  }
  if (n->t < base_) {
    // The calendar was re-anchored past this time (a rebase to a far-future
    // overflow event while the near term was empty); park the event and
    // rebuild, which re-anchors the year at the earliest pending time.
    overflow_.push_back(n);
    std::push_heap(overflow_.begin(), overflow_.end(), heap_later);
    rebuild(buckets_.size());
    return;
  }
  const auto idx = static_cast<std::size_t>((n->t - base_) / width_);
  bucket_insert(buckets_[idx], n);
  if (idx < cur_) cur_ = idx;
  ++cal_size_;
  const std::size_t pending = cal_size_ + overflow_.size();
  if (pending > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    rebuild(buckets_.size() * 2);
  } else if (stats_.insert_steps - steps_at_resize_ > kStaleWalk * pops_since_resize_ + pending) {
    // Inserts keep walking long lists: the width was set while the head
    // looked different (only far timers pending, say). The walks have
    // already paid for a rebuild, which re-derives it from today's head.
    rebuild(buckets_.size());
  }
}

Time Engine::next_time() {
  if (cal_size_ == 0) {
    if (overflow_.empty()) return kNever;
    rebase();
  }
  std::size_t i = cur_;
  while (buckets_[i].head == nullptr) ++i;  // cal_size_ > 0 bounds the scan
  cur_ = i;
  return buckets_[i].head->t;
}

Engine::EventNode* Engine::pop_min() {
  if (next_time() == kNever) return nullptr;
  EventNode* n = bucket_pop(buckets_[cur_]);
  --cal_size_;
  ++pops_since_resize_;
  if (pops_since_resize_ >= buckets_.size() / 2 && buckets_.size() > kInitBuckets &&
      cal_size_ + overflow_.size() < buckets_.size() / 8)
    rebuild(std::max(kInitBuckets, buckets_.size() / 2));
  return n;
}

void Engine::rebase() {
  // Calendar year drained; re-anchor it at the earliest overflow event and
  // migrate everything that now falls inside the horizon.
  EventNode* top = overflow_.front();
  base_ = top->t - (top->t % width_);
  cur_ = 0;
  const Time horizon = base_ + static_cast<Time>(buckets_.size()) * width_;
  while (!overflow_.empty() && overflow_.front()->t < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), heap_later);
    EventNode* n = overflow_.back();
    overflow_.pop_back();
    const auto idx = static_cast<std::size_t>((n->t - base_) / width_);
    bucket_insert(buckets_[idx], n);
    ++cal_size_;
  }
}

void Engine::rebuild(std::size_t nbuckets) {
  ++stats_.calendar_rebuilds;
  pops_since_resize_ = 0;

  std::vector<EventNode*> all;
  all.reserve(cal_size_ + overflow_.size());
  for (std::size_t i = cur_; i < buckets_.size(); ++i)
    for (EventNode* n = buckets_[i].head; n != nullptr;) {
      EventNode* next = n->next;
      all.push_back(n);
      n = next;
    }
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();

  // Width: twice the mean gap, duplicates included, among the kHeadSample
  // earliest pending events (Brown's rule). They are the ones about to be
  // dequeued, while the whole population is dominated by ms-scale
  // watchdog timers. A same-time burst at the head (span 0) says nothing
  // about spacing, so the width stays.
  if (all.size() >= 2) {
    const auto earlier = [](const EventNode* a, const EventNode* b) { return later(*b, *a); };
    const std::size_t take = std::min(all.size(), kHeadSample);
    const auto last = all.begin() + static_cast<std::ptrdiff_t>(take - 1);
    std::nth_element(all.begin(), last, all.end(), earlier);
    const Dur span = (*last)->t - (*std::min_element(all.begin(), last + 1, earlier))->t;
    if (span > 0) width_ = std::max<Dur>(1, 2 * span / static_cast<Dur>(take - 1));
  }

  buckets_.assign(nbuckets, Bucket{});
  cal_size_ = 0;
  cur_ = 0;
  Time lo = now_;
  for (EventNode* n : all) lo = std::min(lo, n->t);
  base_ = lo - (lo % width_);
  const Time horizon = base_ + static_cast<Time>(nbuckets) * width_;
  for (EventNode* n : all) {
    if (n->t >= horizon) {
      overflow_.push_back(n);
    } else {
      bucket_insert(buckets_[static_cast<std::size_t>((n->t - base_) / width_)], n);
      ++cal_size_;
    }
  }
  std::make_heap(overflow_.begin(), overflow_.end(), heap_later);
  steps_at_resize_ = stats_.insert_steps;
}

void Engine::dispatch(EventNode* n) {
  now_ = n->t;
  ++processed_;
  n->invoke(*n);
  release(n);
}

bool Engine::step() {
  EventNode* n = pop_min();
  if (n == nullptr) return false;
  dispatch(n);
  return true;
}

std::uint64_t Engine::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (true) {
    const Time t = next_time();
    if (t == kNever || t > deadline) break;
    dispatch(pop_min());
    ++n;
  }
  if (deadline != kNever && now_ < deadline && idle()) now_ = deadline;
  return n;
}

}  // namespace pd::sim
