// Single-threaded discrete-event loop with a nanosecond clock. Every distributed
// component in this repo (replicas, shards, clients, the control plane) runs as event
// handlers on one EventLoop, which makes whole-cluster executions deterministic and
// lets tests inject failures at exact instants.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/types.h"

namespace lazylog {

// Event handler: a move-only `void()` callable stored inline when it fits (see
// inline_fn.h), so scheduling a typical closure allocates nothing.
using EventFn = InlineFn<void()>;

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
