#include "src/sim/event_loop.h"

#include "src/common/logging.h"

namespace lazylog {

EventLoop::~EventLoop() {
  // Destroy pending callables one at a time while the slab is intact: a callable's
  // destructor may cancel (or schedule) other events on this loop.
  while (!heap_.empty()) {
    Take(heap_.size() - 1);
  }
}

EventHandle EventLoop::ScheduleAt(SimTime at, EventFn fn) {
  if (!fn) {
    return EventHandle();
  }
  if (at < now_) {
    at = now_;
  }
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].link;
  } else {
    LL_CHECK(slots_.size() < kNoSlot, "event slab exhausted");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapEntry{at, next_seq_++, slot});
  return EventHandle(this, slot, slots_[slot].gen);
}

void EventLoop::Cancel(uint32_t slot, uint32_t gen) {
  if (IsPending(slot, gen)) {
    Take(slots_[slot].link);  // the callable is destroyed here, after the removal
  }
}

EventFn EventLoop::Take(size_t pos) {
  const uint32_t slot = heap_[pos].slot;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // Walk the hole down to a leaf along the smaller children, then sift the former
    // last entry up from there: about half the comparisons of a plain sift-down.
    const size_t n = heap_.size();
    for (size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      Place(pos, heap_[child]);
      pos = child;
    }
    SiftUp(pos, last);
  }
  Slot& s = slots_[slot];
  EventFn fn = std::move(s.fn);
  ++s.gen;
  s.link = free_head_;
  free_head_ = slot;
  return fn;
}

void EventLoop::SiftUp(size_t pos, HeapEntry e) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

bool EventLoop::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  const SimTime at = heap_.front().at;
  LL_CHECK(at >= now_, "event scheduled in the past");
  now_ = at;
  EventFn fn = Take(0);
  ++events_run_;
  fn();
  return true;
}

void EventLoop::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventLoop::RunUntilIdle(uint64_t max_events) {
  uint64_t ran = 0;
  while (ran < max_events && RunOne()) {
    ++ran;
  }
  LL_CHECK(ran < max_events, "RunUntilIdle exceeded max_events; runaway rescheduling?");
}

}  // namespace lazylog
