// Unit tests for the virtual-time fiber scheduler.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/time.h"

namespace platinum::sim {
namespace {

constexpr SimTime kQuantum = 20 * kMicrosecond;

// Recurses until the stack runs out. The volatile frame buffer, read after
// the recursive call, keeps the compiler from turning the recursion into a
// loop.
int RecurseWithoutBound(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) {
    return 0;
  }
  return RecurseWithoutBound(depth + 1) + frame[0];
}

// 1/3 rounded in the current rounding mode. The volatile operands and result
// keep the division between the mode changes around the call.
double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  volatile double quotient = one / three;
  return quotient;
}

// Whether a 16-byte aligned local really is 16-byte aligned. The compiler
// places it assuming the ABI's stack alignment at function entry; reading the
// address through a volatile keeps the check from being folded away.
[[gnu::noinline]] bool LocalIsAligned16() {
  alignas(16) char local[16];
  char* volatile address = local;
  return reinterpret_cast<std::uintptr_t>(address) % 16 == 0;
}

TEST(SchedulerTest, RunsSingleFiberToCompletion) {
  Scheduler sched(2, kQuantum);
  bool ran = false;
  sched.Spawn(0, "solo", [&] {
    sched.Advance(5 * kMicrosecond);
    ran = true;
  });
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.global_now(), 5 * kMicrosecond);
}

TEST(SchedulerTest, InterleavesByVirtualTime) {
  Scheduler sched(2, kQuantum);
  std::vector<int> order;
  // Fiber A advances in large steps, B in small ones; with yields between
  // steps, B's events must come first in virtual-time order.
  sched.Spawn(0, "A", [&] {
    for (int i = 0; i < 3; ++i) {
      sched.Advance(100 * kMicrosecond);
      order.push_back(1);
      sched.Yield();
    }
  });
  sched.Spawn(1, "B", [&] {
    for (int i = 0; i < 3; ++i) {
      sched.Advance(10 * kMicrosecond);
      order.push_back(2);
      sched.Yield();
    }
  });
  sched.Run();
  ASSERT_EQ(order.size(), 6u);
  // A (spawned first) runs its first step to the yield at t=100us, after
  // which the scheduler prefers B until B's clock passes A's: the recorded
  // order is A, B, B, B, A, A.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 2, 2, 1, 1}));
  // Each fiber's first dispatch plus one per yield, whether the yielder is
  // picked again or the other fiber runs.
  EXPECT_EQ(sched.context_switches(), 8u);
}

TEST(SchedulerTest, MaybeYieldHonorsQuantum) {
  Scheduler sched(1, kQuantum);
  sched.Spawn(0, "f", [&] {
    sched.Advance(kQuantum / 2);
    EXPECT_FALSE(sched.MaybeYield());
    sched.Advance(kQuantum);
    EXPECT_TRUE(sched.MaybeYield());
  });
  sched.Run();
}

TEST(SchedulerTest, SameProcessorFibersSerialize) {
  Scheduler sched(1, kQuantum);
  // Two fibers on one processor, each consuming 50us of CPU; total elapsed
  // must be at least 100us even though both start at t=0.
  for (int i = 0; i < 2; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    sched.Spawn(0, name, [&] { sched.Advance(50 * kMicrosecond); });
  }
  sched.Run();
  EXPECT_EQ(sched.global_now(), 100 * kMicrosecond);
}

TEST(SchedulerTest, DifferentProcessorsRunInParallel) {
  Scheduler sched(2, kQuantum);
  for (int i = 0; i < 2; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    sched.Spawn(i, name, [&] { sched.Advance(50 * kMicrosecond); });
  }
  sched.Run();
  EXPECT_EQ(sched.global_now(), 50 * kMicrosecond);
}

TEST(SchedulerTest, SleepReleasesProcessor) {
  Scheduler sched(1, kQuantum);
  SimTime b_done = 0;
  sched.Spawn(0, "sleeper", [&] { sched.Sleep(1 * kMillisecond); });
  sched.Spawn(0, "worker", [&] {
    sched.Advance(100 * kMicrosecond);
    b_done = sched.now();
  });
  sched.Run();
  // The worker must not wait for the sleeper's wakeup.
  EXPECT_EQ(b_done, 100 * kMicrosecond);
  EXPECT_EQ(sched.global_now(), 1 * kMillisecond);
}

TEST(SchedulerTest, BlockAndWake) {
  Scheduler sched(2, kQuantum);
  Fiber* blocked = nullptr;
  SimTime resumed_at = 0;
  blocked = sched.Spawn(0, "blocked", [&] {
    sched.Block();
    resumed_at = sched.now();
  });
  sched.Spawn(1, "waker", [&] {
    sched.Advance(300 * kMicrosecond);
    sched.Wake(blocked, sched.now());
  });
  sched.Run();
  EXPECT_EQ(resumed_at, 300 * kMicrosecond);
}

TEST(SchedulerTest, JoinAdvancesJoinerClock) {
  Scheduler sched(2, kQuantum);
  Fiber* worker = sched.Spawn(0, "worker", [&] { sched.Advance(500 * kMicrosecond); });
  SimTime join_time = 0;
  sched.Spawn(1, "joiner", [&] {
    sched.Join(worker);
    join_time = sched.now();
  });
  sched.Run();
  EXPECT_EQ(join_time, 500 * kMicrosecond);
}

TEST(SchedulerTest, JoinFinishedFiberReturnsImmediately) {
  Scheduler sched(2, kQuantum);
  Fiber* worker = sched.Spawn(0, "worker", [&] { sched.Advance(10 * kMicrosecond); });
  sched.Spawn(1, "late-joiner", [&] {
    sched.Advance(1 * kMillisecond);
    sched.Join(worker);
    EXPECT_EQ(sched.now(), 1 * kMillisecond);  // no extra wait
  });
  sched.Run();
}

TEST(SchedulerTest, DaemonDoesNotKeepRunAlive) {
  Scheduler sched(1, kQuantum);
  int daemon_iterations = 0;
  sched.Spawn(
      0, "daemon",
      [&] {
        for (;;) {
          sched.Sleep(10 * kMicrosecond);
          ++daemon_iterations;
        }
      },
      /*daemon=*/true);
  sched.Spawn(0, "app", [&] { sched.Sleep(35 * kMicrosecond); });
  sched.Run();
  // The daemon ticked while the app was alive, then Run() stopped.
  EXPECT_GE(daemon_iterations, 2);
  EXPECT_LE(daemon_iterations, 4);
}

TEST(SchedulerTest, InterruptCostChargedToNextOccupant) {
  Scheduler sched(1, kQuantum);
  sched.AddInterruptCost(0, 7 * kMicrosecond);
  sched.Spawn(0, "victim", [&] { EXPECT_EQ(sched.now(), 7 * kMicrosecond); });
  sched.Run();
}

TEST(SchedulerTest, MigrateCurrentMovesProcessor) {
  Scheduler sched(2, kQuantum);
  // Processor 1 is busy until t=200us.
  sched.Spawn(1, "busy", [&] { sched.Advance(200 * kMicrosecond); });
  sched.Spawn(0, "migrant", [&] {
    sched.Advance(50 * kMicrosecond);
    sched.MigrateCurrent(1);
    EXPECT_EQ(sched.current_processor(), 1);
    // Arrival waits for the busy fiber to release the node.
    EXPECT_GE(sched.now(), 200 * kMicrosecond);
  });
  sched.Run();
}

// A migrant leaves its old node at once but occupies the new one only from
// its dispatch there: a fiber bound to the destination that wakes first is
// not held back.
TEST(SchedulerTest, MigrantDoesNotHoldDestinationBeforeArrival) {
  Scheduler sched(2, kQuantum);
  SimTime woke_at = 0;
  SimTime arrived_at = 0;
  sched.Spawn(1, "sleeper", [&] {
    sched.Sleep(10 * kMicrosecond);
    woke_at = sched.now();
  });
  sched.Spawn(0, "migrant", [&] {
    sched.Advance(100 * kMicrosecond);
    sched.MigrateCurrent(1);
    arrived_at = sched.now();
  });
  sched.Run();
  EXPECT_EQ(woke_at, 10 * kMicrosecond);
  EXPECT_EQ(arrived_at, 100 * kMicrosecond);
}

// Run() returns while the daemon is suspended in a sleep; the next Run()
// resumes it where it stopped.
TEST(SchedulerTest, SecondRunResumesSuspendedDaemon) {
  Scheduler sched(1, kQuantum);
  std::vector<SimTime> ticks;
  sched.Spawn(
      0, "daemon",
      [&] {
        for (;;) {
          sched.Sleep(10 * kMicrosecond);
          ticks.push_back(sched.now());
        }
      },
      /*daemon=*/true);
  sched.Spawn(0, "first", [&] { sched.Sleep(35 * kMicrosecond); });
  sched.Run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10 * kMicrosecond, 20 * kMicrosecond,
                                         30 * kMicrosecond}));
  EXPECT_EQ(sched.global_now(), 35 * kMicrosecond);
  EXPECT_EQ(sched.context_switches(), 6u);

  sched.Spawn(0, "second", [&] { sched.Sleep(25 * kMicrosecond); });
  sched.Run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10 * kMicrosecond, 20 * kMicrosecond,
                                         30 * kMicrosecond, 40 * kMicrosecond,
                                         50 * kMicrosecond}));
  EXPECT_EQ(sched.global_now(), 60 * kMicrosecond);
  EXPECT_EQ(sched.context_switches(), 10u);
}

// context_switches() counts dispatches. A lone fiber that yields is picked
// again each time, which counts as a dispatch but needs no switch.
TEST(SchedulerTest, LoneYielderIsDispatchedOncePerYield) {
  Scheduler sched(1, kQuantum);
  constexpr uint64_t kYields = 5;
  std::vector<uint64_t> after_yield;
  sched.Spawn(0, "alone", [&] {
    for (uint64_t i = 0; i < kYields; ++i) {
      sched.Yield();
      after_yield.push_back(sched.context_switches());
    }
  });
  sched.Run();
  EXPECT_EQ(after_yield, (std::vector<uint64_t>{2, 3, 4, 5, 6}));
  EXPECT_EQ(sched.context_switches(), kYields + 1);
  EXPECT_EQ(sched.global_now(), 0);
}

// Records every advance of global_now() the scheduler reports.
class RecordingObserver : public TimeObserver {
 public:
  explicit RecordingObserver(const Scheduler* sched) : sched_(sched) {}
  void OnTimeAdvance(SimTime now) override {
    EXPECT_EQ(now, sched_->global_now());
    seen.push_back(now);
  }
  std::vector<SimTime> seen;

 private:
  const Scheduler* sched_;
};

TEST(SchedulerTest, TimeObserverSeesEveryAdvanceInOrder) {
  Scheduler sched(2, kQuantum);
  RecordingObserver observer(&sched);
  sched.SetTimeObserver(&observer);
  sched.Spawn(0, "late", [&] {
    sched.Sleep(30 * kMicrosecond);
    sched.Advance(5 * kMicrosecond);
  });
  sched.Spawn(1, "early", [&] {
    sched.Advance(10 * kMicrosecond);
    sched.Sleep(10 * kMicrosecond);
    sched.Advance(7 * kMicrosecond);
  });
  sched.Run();
  // Releases at 10 (early sleeps), 27 (early ends) and 35 (late ends);
  // dispatches at 20 (early wakes) and 30 (late wakes).
  EXPECT_EQ(observer.seen,
            (std::vector<SimTime>{10 * kMicrosecond, 20 * kMicrosecond, 27 * kMicrosecond,
                                  30 * kMicrosecond, 35 * kMicrosecond}));
  EXPECT_EQ(sched.global_now(), 35 * kMicrosecond);
}

TEST(SchedulerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched(4, kQuantum);
    std::vector<uint32_t> order;
    for (int p = 0; p < 4; ++p) {
      sched.Spawn(p, "f", [&, p] {
        for (int i = 0; i < 10; ++i) {
          sched.Advance((p + 1) * 7 * kMicrosecond);
          order.push_back(static_cast<uint32_t>(p));
          sched.Yield();
        }
      });
    }
    sched.Run();
    return std::pair(order, sched.global_now());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SchedulerDeathTest, DeadlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1, kQuantum);
        sched.Spawn(0, "stuck", [&] { sched.Block(); });
        sched.Run();
      },
      "deadlock");
}

TEST(SchedulerDeathTest, StackOverflowHitsGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1, kQuantum);
        sched.Spawn(0, "deep", [] { RecurseWithoutBound(0); });
        sched.Run();
      },
      "");
}

// A switch keeps each fiber's floating-point control state: the x87 control
// word (what fegetround reads) and MXCSR (what SSE division rounds by).
TEST(SchedulerTest, RoundingModeIsPerFiber) {
  std::fesetround(FE_UPWARD);
  const double upward = OneThird();
  std::fesetround(FE_TONEAREST);
  const double nearest = OneThird();
  ASSERT_NE(upward, nearest);

  Scheduler sched(2, kQuantum);
  int other_mode = -1;
  double other_quotient = 0;
  int resumed_mode = -1;
  double resumed_quotient = 0;
  sched.Spawn(0, "rounds-up", [&] {
    std::fesetround(FE_UPWARD);
    sched.Yield();  // "other" runs here
    resumed_mode = std::fegetround();
    resumed_quotient = OneThird();
    std::fesetround(FE_TONEAREST);
  });
  sched.Spawn(1, "other", [&] {
    other_mode = std::fegetround();
    other_quotient = OneThird();
  });
  sched.Run();
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(other_quotient, nearest);
  EXPECT_EQ(resumed_mode, FE_UPWARD);
  EXPECT_EQ(resumed_quotient, upward);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(SchedulerTest, FiberStackIsAbiAligned) {
  Scheduler sched(1, kQuantum);
  bool at_entry = false;
  bool after_yield = false;
  sched.Spawn(0, "f", [&] {
    at_entry = LocalIsAligned16();
    sched.Yield();
    after_yield = LocalIsAligned16();
  });
  sched.Run();
  EXPECT_TRUE(at_entry);
  EXPECT_TRUE(after_yield);
}

TEST(SchedulerTest, SpawnFromFiberStartsAtSpawnerClock) {
  Scheduler sched(2, kQuantum);
  SimTime child_start = 0;
  sched.Spawn(0, "parent", [&] {
    sched.Advance(123 * kMicrosecond);
    sched.Spawn(1, "child", [&] { child_start = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(child_start, 123 * kMicrosecond);
}

}  // namespace
}  // namespace platinum::sim
