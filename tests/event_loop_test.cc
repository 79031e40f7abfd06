// EventLoop tests: time advancement, ordering, same-instant FIFO, cancellation,
// RunUntil clamping, runaway protection hooks, slot reuse with stale handles, EventFn
// captures, and a randomized comparison against a (time, sequence)-ordered model.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <random>
#include <utility>

#include "src/sim/event_loop.h"

namespace lazylog {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0u);
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoop, AdvancesToEventTime) {
  EventLoop loop;
  SimTime fired_at = 0;
  loop.Schedule(1000, [&]() { fired_at = loop.Now(); });
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(fired_at, 1000u);
  EXPECT_EQ(loop.Now(), 1000u);
}

TEST(EventLoop, OrdersByTime) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(300, [&]() { order.push_back(3); });
  loop.Schedule(100, [&]() { order.push_back(1); });
  loop.Schedule(200, [&]() { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(500, [&order, i]() { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.Schedule(100, [&]() { fired = true; });
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  loop.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelAfterFireIsSafe) {
  EventLoop loop;
  EventHandle h = loop.Schedule(1, []() {});
  loop.RunUntilIdle();
  EXPECT_FALSE(h.Pending());
  h.Cancel();  // no-op
}

TEST(EventLoop, EmptyHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.Pending());
  h.Cancel();
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  bool late_fired = false;
  loop.Schedule(100, []() {});
  loop.Schedule(10'000, [&]() { late_fired = true; });
  loop.RunUntil(5'000);
  EXPECT_EQ(loop.Now(), 5'000u);
  EXPECT_FALSE(late_fired);
  loop.RunUntil(20'000);
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(loop.Now(), 20'000u);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      loop.Schedule(10, recurse);
    }
  };
  loop.Schedule(10, recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), 50u);
}

TEST(EventLoop, ScheduleAtPastClampsToNow) {
  EventLoop loop;
  loop.Schedule(1000, []() {});
  loop.RunUntilIdle();
  SimTime fired_at = 0;
  loop.ScheduleAt(10, [&]() { fired_at = loop.Now(); });  // in the past
  loop.RunUntilIdle();
  EXPECT_EQ(fired_at, 1000u);
}

TEST(EventLoop, ManyEventsStressOrdering) {
  EventLoop loop;
  SimTime last = 0;
  int count = 0;
  for (int i = 0; i < 10'000; ++i) {
    loop.Schedule((i * 7919) % 100'000, [&]() {
      EXPECT_GE(loop.Now(), last);
      last = loop.Now();
      count++;
    });
  }
  loop.RunUntilIdle();
  EXPECT_EQ(count, 10'000);
}

TEST(EventLoop, StaleHandleDoesNotTouchReusedSlot) {
  EventLoop loop;
  EventHandle fired = loop.Schedule(10, []() {});
  loop.RunUntilIdle();
  EventHandle cancelled = loop.Schedule(10, []() {});
  cancelled.Cancel();
  // Both stale handles name the slot that `a` now reuses.
  int runs = 0;
  EventHandle a = loop.Schedule(10, [&]() { ++runs; });
  EventHandle b = loop.Schedule(20, [&]() { ++runs; });
  EXPECT_FALSE(fired.Pending());
  EXPECT_FALSE(cancelled.Pending());
  fired.Cancel();
  cancelled.Cancel();
  EXPECT_TRUE(a.Pending());
  EXPECT_TRUE(b.Pending());
  EXPECT_EQ(loop.QueuedEvents(), 2u);
  loop.RunUntilIdle();
  EXPECT_EQ(runs, 2);
}

TEST(EventLoop, CancelRemovesFromQueue) {
  EventLoop loop;
  EventHandle a = loop.Schedule(10, []() {});
  EventHandle b = loop.Schedule(20, []() {});
  loop.Schedule(30, []() {});
  EXPECT_EQ(loop.QueuedEvents(), 3u);
  b.Cancel();
  EXPECT_EQ(loop.QueuedEvents(), 2u);
  b.Cancel();
  EXPECT_EQ(loop.QueuedEvents(), 2u);
  EventHandle copy = a;
  copy.Cancel();
  EXPECT_FALSE(a.Pending());
  EXPECT_EQ(loop.QueuedEvents(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.QueuedEvents(), 0u);
  EXPECT_EQ(loop.events_run(), 1u);
}

TEST(EventLoop, EmptyCallableSchedulesNothing) {
  EventLoop loop;
  EventHandle h = loop.Schedule(10, std::function<void()>());
  EXPECT_FALSE(h.Pending());
  EXPECT_EQ(loop.QueuedEvents(), 0u);
}

TEST(EventLoop, HandlerCancelsItselfAndAnother) {
  EventLoop loop;
  EventHandle self;
  EventHandle other;
  bool other_fired = false;
  bool self_pending_inside = true;
  self = loop.Schedule(10, [&]() {
    self_pending_inside = self.Pending();
    self.Cancel();  // already running: a no-op
    other.Cancel();
  });
  other = loop.Schedule(10, [&]() { other_fired = true; });
  loop.RunUntilIdle();
  EXPECT_FALSE(self_pending_inside);
  EXPECT_FALSE(other_fired);
  EXPECT_EQ(loop.events_run(), 1u);
}

// Cancels a handle when destroyed; held by closures to exercise callables whose
// destructors reach back into the loop.
struct CancelOnDestroy {
  EventHandle* target;
  ~CancelOnDestroy() { target->Cancel(); }
};

TEST(EventLoop, CallableDestructorMayCancelDuringLoopTeardown) {
  auto token = std::make_shared<int>(0);
  EventHandle first;
  EventHandle second;
  {
    EventLoop loop;
    // Each closure's destructor cancels the other's handle, whichever dies first.
    auto c1 = std::make_shared<CancelOnDestroy>(CancelOnDestroy{&second});
    auto c2 = std::make_shared<CancelOnDestroy>(CancelOnDestroy{&first});
    first = loop.Schedule(10, [c1, token]() {});
    second = loop.Schedule(20, [c2, token]() {});
    c1.reset();
    c2.reset();
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);  // both closures destroyed exactly once
}

TEST(EventLoop, MoveOnlyAndLargeCaptures) {
  EventLoop loop;
  int got = 0;
  auto owned = std::make_unique<int>(7);
  loop.Schedule(10, [&got, p = std::move(owned)]() { got += *p; });
  std::array<uint64_t, 32> big{};
  big[31] = 5;
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  auto token = std::make_shared<int>(0);
  loop.Schedule(20, [&got, big, token]() { got += static_cast<int>(big[31]); });
  EventHandle cancelled = loop.Schedule(30, [big, token]() {});
  EXPECT_EQ(token.use_count(), 3);
  cancelled.Cancel();
  EXPECT_EQ(token.use_count(), 2);  // cancelling releases the captures at once
  loop.RunUntilIdle();
  EXPECT_EQ(got, 12);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventLoop, EventFnMovesBetweenOwners) {
  int calls = 0;
  EventFn a = [&calls]() { ++calls; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

// Random schedules (many same-instant ties), cancels of live and stale handles, runs,
// and handlers that schedule more events, checked step by step against a model keyed
// by (time, scheduling order).
TEST(EventLoop, RandomizedMatchesOrderedModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    EventLoop loop;
    std::map<std::pair<SimTime, uint64_t>, int> model;
    struct Scheduled {
      EventHandle handle;
      std::pair<SimTime, uint64_t> key;
    };
    std::vector<Scheduled> scheduled;
    std::vector<int> fired;
    uint64_t seq = 0;
    std::function<void(uint64_t)> schedule = [&](uint64_t delay) {
      const int id = static_cast<int>(scheduled.size());
      const std::pair<SimTime, uint64_t> key{loop.Now() + delay, seq++};
      EventHandle h = loop.Schedule(delay, [&, id]() {
        fired.push_back(id);
        if (id % 7 == 0) {
          schedule(rng() % 4);  // handlers schedule too, often at the same instant
        }
      });
      model.emplace(key, id);
      scheduled.push_back(Scheduled{h, key});
    };
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng() % 10;
      if (op < 5) {
        schedule(rng() % 50);
      } else if (op < 7 && !scheduled.empty()) {
        Scheduled& s = scheduled[rng() % scheduled.size()];
        const bool live = model.count(s.key) > 0;
        EXPECT_EQ(s.handle.Pending(), live);
        s.handle.Cancel();
        model.erase(s.key);
      } else {
        const bool ran = loop.RunOne();
        ASSERT_EQ(ran, !model.empty());
        if (ran) {
          // A handler may have scheduled more; the fired event is the model's earliest
          // entry that existed before the run.
          auto first = model.begin();
          ASSERT_EQ(fired.back(), first->second);
          EXPECT_EQ(loop.Now(), first->first.first);
          model.erase(first);
        }
      }
      ASSERT_EQ(loop.QueuedEvents(), model.size());
    }
    while (loop.RunOne()) {
      ASSERT_FALSE(model.empty());
      ASSERT_EQ(fired.back(), model.begin()->second);
      model.erase(model.begin());
    }
    EXPECT_TRUE(model.empty());
  }
}

}  // namespace
}  // namespace lazylog
