// Engine + CoTask semantics: ordering, determinism, nesting, exceptions,
// deadlock detection, triggers, and predicate waits.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"
#include "sim/wait.hpp"

namespace srm::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.call_at(us(30), [&] { order.push_back(3); });
  eng.call_at(us(10), [&] { order.push_back(1); });
  eng.call_at(us(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), us(30));
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.call_at(us(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CancelledEventDoesNotFire) {
  Engine eng;
  bool fired = false;
  auto id = eng.call_at(us(5), [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine eng;
  int count = 0;
  Engine::EventId id = eng.call_at(us(1), [&] { ++count; });
  eng.run();
  eng.cancel(id);  // harmless
  EXPECT_EQ(count, 1);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine eng;
  eng.call_at(us(10), [&] {
    EXPECT_THROW(eng.call_at(us(5), [] {}), util::CheckError);
  });
  eng.run();
}

CoTask sleeper(Engine& eng, Duration d, Time& woke) {
  co_await eng.sleep(d);
  woke = eng.now();
}

TEST(Engine, SpawnedTaskSleeps) {
  Engine eng;
  Time woke = 0;
  eng.spawn(sleeper(eng, us(42), woke));
  eng.run();
  EXPECT_EQ(woke, us(42));
  EXPECT_EQ(eng.live_processes(), 0u);
}

CoTask nested_child(Engine& eng, std::vector<std::string>& log) {
  log.push_back("child-start@" + std::to_string(eng.now()));
  co_await eng.sleep(us(5));
  log.push_back("child-end@" + std::to_string(eng.now()));
}

CoTask nested_parent(Engine& eng, std::vector<std::string>& log) {
  log.push_back("parent-start");
  co_await nested_child(eng, log);
  log.push_back("parent-resumed@" + std::to_string(eng.now()));
}

TEST(CoTask, NestedAwaitRunsChildToCompletion) {
  Engine eng;
  std::vector<std::string> log;
  eng.spawn(nested_parent(eng, log));
  eng.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "parent-start");
  EXPECT_EQ(log[1], "child-start@0");
  EXPECT_EQ(log[2], "child-end@" + std::to_string(us(5)));
  EXPECT_EQ(log[3], "parent-resumed@" + std::to_string(us(5)));
}

CoTask deep(Engine& eng, int depth, int& leaf_count) {
  if (depth == 0) {
    co_await eng.sleep(ns(1));
    ++leaf_count;
    co_return;
  }
  co_await deep(eng, depth - 1, leaf_count);
}

TEST(CoTask, DeepNestingDoesNotOverflow) {
  // Symmetric transfer: 20k-deep await chains must not grow the stack.
  Engine eng;
  int leaves = 0;
  eng.spawn(deep(eng, 20000, leaves));
  eng.run();
  EXPECT_EQ(leaves, 1);
}

CoTask thrower(Engine& eng) {
  co_await eng.sleep(us(1));
  throw std::runtime_error("boom");
}

CoTask rethrow_checker(Engine& eng, bool& caught) {
  try {
    co_await thrower(eng);
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(CoTask, ExceptionPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  eng.spawn(rethrow_checker(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(CoTask, ExceptionFromRootTaskEscapesRun) {
  Engine eng;
  eng.spawn(thrower(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

CoTask wait_forever(Trigger& t) { co_await t.wait(); }

TEST(Engine, DeadlockDetected) {
  Engine eng;
  Trigger never(eng);
  eng.spawn(wait_forever(never));
  EXPECT_THROW(eng.run(), util::CheckError);
}

CoTask fire_later(Engine& eng, Trigger& t, Duration d) {
  co_await eng.sleep(d);
  t.fire();
}

CoTask await_trigger(Trigger& t, Engine& eng, Time& when) {
  co_await t.wait();
  when = eng.now();
}

TEST(Trigger, WakesAllWaitersAtFireTime) {
  Engine eng;
  Trigger t(eng);
  Time w1 = 0, w2 = 0;
  eng.spawn(await_trigger(t, eng, w1));
  eng.spawn(await_trigger(t, eng, w2));
  eng.spawn(fire_later(eng, t, us(7)));
  eng.run();
  EXPECT_EQ(w1, us(7));
  EXPECT_EQ(w2, us(7));
}

TEST(Trigger, AwaitAfterFireDoesNotSuspend) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  Time when = 123;
  eng.spawn(await_trigger(t, eng, when));
  eng.run();
  EXPECT_EQ(when, 0u);  // resumed synchronously at t=0
}

TEST(Trigger, DoubleFireThrows) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  EXPECT_THROW(t.fire(), util::CheckError);
}

TEST(Trigger, ResetReArms) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  t.reset();
  EXPECT_FALSE(t.fired());
  t.fire();
  EXPECT_TRUE(t.fired());
}

CoTask producer(Engine& eng, int& value, WaitQueue& wq) {
  co_await eng.sleep(us(3));
  value = 1;
  wq.notify();
  co_await eng.sleep(us(3));
  value = 2;
  wq.notify();
}

CoTask consumer(Engine& eng, int& value, WaitQueue& wq, int want, Time& when) {
  co_await wq.wait_until([&] { return value >= want; });
  when = eng.now();
}

TEST(WaitQueue, PredicateWaitsResumeWhenSatisfied) {
  Engine eng;
  int value = 0;
  WaitQueue wq(eng);
  Time t1 = 0, t2 = 0;
  eng.spawn(consumer(eng, value, wq, 1, t1));
  eng.spawn(consumer(eng, value, wq, 2, t2));
  eng.spawn(producer(eng, value, wq));
  eng.run();
  EXPECT_EQ(t1, us(3));
  EXPECT_EQ(t2, us(6));
}

TEST(WaitQueue, AlreadySatisfiedPredicateDoesNotSuspend) {
  Engine eng;
  int value = 5;
  WaitQueue wq(eng);
  Time when = 99;
  eng.spawn(consumer(eng, value, wq, 1, when));
  eng.run();
  EXPECT_EQ(when, 0u);
}

TEST(Engine, CancelOneOfSeveralSameTimestampEvents) {
  Engine eng;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(eng.call_at(us(5), [&order, i] { order.push_back(i); }));
  }
  eng.cancel(ids[2]);
  eng.cancel(ids[5]);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
}

TEST(Engine, CancelFromInsideASameTimestampEvent) {
  // An event may cancel a sibling scheduled at the same instant that has
  // not fired yet; the sibling must not run.
  Engine eng;
  std::vector<int> order;
  Engine::EventId victim = 0;
  eng.call_at(us(5), [&] {
    order.push_back(0);
    eng.cancel(victim);
  });
  victim = eng.call_at(us(5), [&] { order.push_back(1); });
  eng.call_at(us(5), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Engine, CancelledResumeDoesNotLeakIntoDeadlockCheck) {
  // Cancelling a plain event must not corrupt the engine's liveness
  // accounting: a subsequent run with real work still completes.
  Engine eng;
  auto id = eng.call_at(us(1), [] { FAIL() << "cancelled event fired"; });
  eng.cancel(id);
  Time woke = 0;
  eng.spawn(sleeper(eng, us(2), woke));
  eng.run();
  EXPECT_EQ(woke, us(2));
}

TEST(Engine, RandomTieBreakPermutesSameTimestampEvents) {
  // Events 0-15 are scheduled ahead for t = 5 us; events 16-31 are
  // scheduled at 6 us for that same instant, by one event. The random
  // tie-break permutes both kinds.
  auto order_with_seed = [](std::uint64_t seed, bool random) {
    Engine eng;
    if (random) eng.set_tiebreak(TieBreak::random, seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      eng.call_at(us(5), [&order, i] { order.push_back(i); });
    }
    eng.call_at(us(6), [&eng, &order] {
      for (int i = 16; i < 32; ++i) {
        eng.call_at(eng.now(), [&order, i] { order.push_back(i); });
      }
    });
    eng.run();
    return order;
  };
  std::vector<int> fifo = order_with_seed(0, false);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fifo[static_cast<size_t>(i)], i);
  // Each seed is internally deterministic...
  EXPECT_EQ(order_with_seed(7, true), order_with_seed(7, true));
  // ...and some of a handful of seeds deviate from FIFO order, among the
  // events scheduled ahead and among those scheduled at now().
  auto among = [](const std::vector<int>& o, int lo, int hi) {
    std::vector<int> a;
    for (int e : o) {
      if (e >= lo && e < hi) a.push_back(e);
    }
    return a;
  };
  bool ahead_permuted = false, now_permuted = false;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    std::vector<int> o = order_with_seed(s, true);
    ahead_permuted = ahead_permuted || among(o, 0, 16) != among(fifo, 0, 16);
    now_permuted = now_permuted || among(o, 16, 32) != among(fifo, 16, 32);
  }
  EXPECT_TRUE(ahead_permuted);
  EXPECT_TRUE(now_permuted);
}

TEST(Engine, EventAtNowRunsAfterEveryEventScheduledEarlierForThatInstant) {
  // Under FIFO an event scheduled at now() joins the same-time lane; it must
  // still run after each event the calendar holds for that instant, and
  // before any later one.
  Engine eng;
  std::vector<int> order;
  eng.call_at(us(5), [&] {
    order.push_back(0);
    eng.call_at(eng.now(), [&] {
      order.push_back(3);
      eng.call_at(eng.now(), [&] { order.push_back(5); });
    });
    eng.call_at(us(6), [&] { order.push_back(6); });
  });
  eng.call_at(us(5), [&] {
    order.push_back(1);
    eng.call_at(eng.now(), [&] { order.push_back(4); });
  });
  eng.call_at(us(5), [&] { order.push_back(2); });
  eng.call_at(us(7), [&] { order.push_back(7); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.events_processed(), 8u);
}

TEST(Engine, CancelAnEventScheduledAtNow) {
  Engine eng;
  std::vector<int> order;
  eng.call_at(us(5), [&] {
    order.push_back(0);
    Engine::EventId victim =
        eng.call_at(eng.now(), [&] { order.push_back(1); });
    eng.call_at(eng.now(), [&] { order.push_back(2); });
    eng.cancel(victim);
  });
  // Cancelled before the run starts: the lane holds it at t = 0.
  Engine::EventId early = eng.call_at(0, [&] { order.push_back(-1); });
  eng.cancel(early);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Engine, RandomTieBreakNeverReordersAcrossTimestamps) {
  Engine eng;
  eng.set_tiebreak(TieBreak::random, 99);
  std::vector<int> order;
  eng.call_at(us(30), [&] { order.push_back(3); });
  eng.call_at(us(10), [&] { order.push_back(1); });
  eng.call_at(us(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DeadlockMessageCountsProcessesAndTime) {
  Engine eng;
  Trigger never(eng, "the_missing_signal");
  eng.spawn(wait_forever(never));
  eng.spawn(wait_forever(never));
  try {
    eng.run();
    FAIL() << "expected deadlock";
  } catch (const util::CheckError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 process"), std::string::npos) << msg;
    EXPECT_NE(msg.find("the_missing_signal"), std::string::npos) << msg;
  }
}

CoTask park(WaitQueue& wq, int who) {
  co_await wq.wait_until([] { return false; }, who);
}

TEST(Engine, DeadlockDumpListsWaitPointsInRegistrationOrder) {
  // Wait-points unregistered out of order leave the survivors in the order
  // they registered, and a late registration goes last.
  Engine eng;
  auto a = std::make_unique<WaitQueue>(eng, "wp_a");
  auto b = std::make_unique<WaitQueue>(eng, "wp_b");
  auto c = std::make_unique<WaitQueue>(eng, "wp_c");
  auto d = std::make_unique<WaitQueue>(eng, Label{"wp_d", 7});
  auto e = std::make_unique<WaitQueue>(eng, "wp_e");
  c.reset();
  a.reset();
  e.reset();
  WaitQueue f(eng, "wp_f");
  eng.spawn(park(f, 3));
  eng.spawn(park(*d, 2));
  eng.spawn(park(*b, 1));
  try {
    eng.run();
    FAIL() << "expected deadlock";
  } catch (const util::CheckError& err) {
    const std::string msg = err.what();
    const std::size_t pb = msg.find("wait-point 'wp_b': 1 blocked (task 1)");
    const std::size_t pd = msg.find("wait-point 'wp_d@7': 1 blocked (task 2)");
    const std::size_t pf = msg.find("wait-point 'wp_f': 1 blocked (task 3)");
    ASSERT_NE(pb, std::string::npos) << msg;
    ASSERT_NE(pd, std::string::npos) << msg;
    ASSERT_NE(pf, std::string::npos) << msg;
    EXPECT_LT(pb, pd) << msg;
    EXPECT_LT(pd, pf) << msg;
    for (const char* gone : {"wp_a", "wp_c", "wp_e"}) {
      EXPECT_EQ(msg.find(gone), std::string::npos) << msg;
    }
  }
  // The run left no waiter behind in the surviving wait-points.
  EXPECT_EQ(b->waiting(), 0u);
  EXPECT_EQ(eng.describe_deadlock().find("wait-point"), std::string::npos);
}

// Two identical runs must be bitwise identical in event count and end time.
TEST(Engine, Determinism) {
  auto run_once = [] {
    Engine eng;
    int value = 0;
    WaitQueue wq(eng);
    Time t1 = 0, t2 = 0;
    eng.spawn(consumer(eng, value, wq, 1, t1));
    eng.spawn(producer(eng, value, wq));
    eng.spawn(consumer(eng, value, wq, 2, t2));
    eng.run();
    return std::tuple{eng.now(), eng.events_processed(), t1, t2};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace srm::sim
