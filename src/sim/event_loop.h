// Single-threaded discrete-event loop with a nanosecond clock. Every distributed
// component in this repo (replicas, shards, clients, the control plane) runs as event
// handlers on one EventLoop, which makes whole-cluster executions deterministic and
// lets tests inject failures at exact instants.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace lazylog {

// Move-only `void()` callable for event handlers. A callable of up to kInlineBytes
// (with a non-throwing move) lives inline, so scheduling a typical closure allocates
// nothing; larger ones fall back to one heap allocation. Lambdas and
// std::function<void()> convert implicitly; an empty std::function and nullptr give an
// empty EventFn.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 88;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      if (!f) {
        return;
      }
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      Reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  // Calls the callable; must not be empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs the callable into `dst` and destroys the one in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  // The object of type T that lives in `buf` (the callable, or the pointer to it).
  template <typename T>
  static T* As(void* buf) {
    return std::launder(static_cast<T*>(buf));
  }
  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*As<D>(buf))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*As<D>(src)));
        As<D>(src)->~D();
      },
      [](void* buf) noexcept { As<D>(buf)->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (**As<D*>(buf))(); },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*As<D*>(src)); },
      [](void* buf) noexcept { delete *As<D*>(buf); },
  };

  // Clears ops_ before destroying, so a destructor that reaches this EventFn again
  // sees it empty.
  void Reset() noexcept {
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops != nullptr) {
      ops->destroy(buf_);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventLoop;

// Handle for a scheduled event; lets the scheduler cancel it before it fires. It names
// a slot of its loop plus the slot's generation, so it goes stale once the event fires
// or is cancelled, even after the slot is reused. Must not be used after its loop is
// destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled (false while it runs).
  bool Pending() const;
  // Prevents the event from firing and destroys its callable. Safe to call repeatedly,
  // on a stale handle or on an empty handle.
  void Cancel();

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, uint32_t slot, uint32_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}
  EventLoop* loop_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

// The event loop. Events scheduled for the same instant fire in scheduling order.
// Pending events live in a slab of reusable slots; a binary heap ordered by
// (time, scheduling sequence) indexes them and tracks each entry's position, so
// cancelling removes the entry and frees the slot at once.
class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time (ns since simulation start).
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay_ns` from now. Returns a cancellable handle.
  EventHandle Schedule(uint64_t delay_ns, EventFn fn) {
    return ScheduleAt(now_ + delay_ns, std::move(fn));
  }
  // Schedules `fn` at an absolute time (clamped to now if in the past). An empty `fn`
  // schedules nothing and returns an empty handle.
  EventHandle ScheduleAt(SimTime at, EventFn fn);

  // Runs the single earliest pending event; returns false if none remain.
  bool RunOne();
  // Runs events until the clock would pass `deadline`; the clock ends at exactly
  // `deadline` (events at later times stay pending).
  void RunUntil(SimTime deadline);
  // Runs until no events remain. `max_events` guards against runaway self-rescheduling.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Number of pending events (cancelled events leave the queue at once).
  size_t QueuedEvents() const { return heap_.size(); }

  // Total events executed since construction (cancelled events excluded). The
  // harness-throughput bench divides this by wall-clock time to measure simulator speed.
  uint64_t events_run() const { return events_run_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    EventFn fn;
    uint32_t gen = 0;  // bumped whenever the slot is freed; stale handles mismatch
    uint32_t link = 0;  // heap_ index while pending, next free slot while free
  };
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  bool IsPending(uint32_t slot, uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void Cancel(uint32_t slot, uint32_t gen);
  // Removes heap_[pos], frees its slot and returns the event's callable. The caller
  // runs or destroys it after the heap and slab are consistent again, so the callable
  // may itself schedule or cancel events.
  EventFn Take(size_t pos);
  void Place(size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].link = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos, HeapEntry e);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;
};

inline bool EventHandle::Pending() const {
  return loop_ != nullptr && loop_->IsPending(slot_, gen_);
}

inline void EventHandle::Cancel() {
  if (loop_ != nullptr) {
    loop_->Cancel(slot_, gen_);
  }
}

}  // namespace lazylog

#endif  // SRC_SIM_EVENT_LOOP_H_
