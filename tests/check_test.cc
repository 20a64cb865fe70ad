// Tests for the correctness-analysis layer (src/check): the simulated race
// detector, the transition-level invariant oracle, and the protocol explorer.
#include <gtest/gtest.h>

#include <string>

#include "src/check/explorer.h"
#include "src/check/oracle.h"
#include "src/check/race_detector.h"
#include "src/mem/cpage.h"
#include "src/obs/page_trace.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using test::RunInThread;
using test::TestSystem;

TEST(RaceDetectorTest, FlagsUnsynchronizedReadModifyWrite) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("racy");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "racy-counter", 1);

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  rt::RunOnProcessors(sys.kernel, space, 2, "racy", [&](int) {
    for (int i = 0; i < 16; ++i) {
      shared.Set(0, shared.Get(0) + 1);
    }
  });

  EXPECT_GT(detector.races_found(), 0u);
  ASSERT_FALSE(detector.reports().empty());
  const check::RaceReport& report = detector.reports().front();
  EXPECT_EQ(report.zone, "racy-counter");
  EXPECT_NE(report.fiber, report.prior_fiber);
  EXPECT_NE(report.ToString().find("racy-counter"), std::string::npos);
}

TEST(RaceDetectorTest, SpinLockedCounterIsClean) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("locked");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "locked-counter", 1);
  // Created before EnableRaceDetection: exercises the stored-range replay.
  rt::SpinLock lock(zone, "counter-lock");

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  rt::RunOnProcessors(sys.kernel, space, 4, "locked", [&](int) {
    for (int i = 0; i < 8; ++i) {
      lock.Acquire();
      shared.Set(0, shared.Get(0) + 1);
      lock.Release();
    }
  });

  EXPECT_EQ(detector.races_found(), 0u);
  EXPECT_GT(detector.accesses_checked(), 0u);
  EXPECT_GT(detector.sync_accesses(), 0u);
  RunInThread(sys.kernel, space, 0, [&] { EXPECT_EQ(shared.Get(0), 32u); });
  EXPECT_EQ(detector.races_found(), 0u);
}

TEST(RaceDetectorTest, EventCountHandoffIsClean) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("handoff");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto data = rt::SharedArray<uint32_t>::Create(zone, "handoff-data", 1);
  rt::EventCountArray ready(zone, "handoff-ready", 1);

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  sys.kernel.SpawnThread(space, 0, "producer", [&] {
    data.Set(0, 42);
    ready.Advance(0);
  });
  sys.kernel.SpawnThread(space, 1, "consumer", [&] {
    ready.AwaitAtLeast(0, 1);
    EXPECT_EQ(data.Get(0), 42u);
  });
  sys.kernel.Run();

  EXPECT_EQ(detector.races_found(), 0u);
}

TEST(RaceDetectorTest, BarrierPhasesAreClean) {
  constexpr int kParties = 4;
  TestSystem sys(kParties);
  auto* space = sys.kernel.CreateAddressSpace("phases");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto slots = rt::SharedArray<uint32_t>::Create(zone, "phase-slots", kParties);
  rt::Barrier barrier(zone, "phase-barrier", kParties);

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  rt::RunOnProcessors(sys.kernel, space, kParties, "phases", [&](int pid) {
    slots.Set(static_cast<size_t>(pid), static_cast<uint32_t>(pid) + 1);
    barrier.Wait();
    uint32_t sum = 0;  // every thread reads every other thread's slot
    for (int i = 0; i < kParties; ++i) {
      sum += slots.Get(static_cast<size_t>(i));
    }
    EXPECT_EQ(sum, 10u);
  });

  EXPECT_EQ(detector.races_found(), 0u);
}

TEST(RaceDetectorTest, SequentialRunsAreOrderedByHostContext) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("seq");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "seq-word", 1);

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  // Thread A finishes before the host spawns thread B: the finish and spawn
  // edges through the host context order the two accesses.
  RunInThread(sys.kernel, space, 0, [&] { shared.Set(0, 7); });
  RunInThread(sys.kernel, space, 1, [&] { EXPECT_EQ(shared.Get(0), 7u); });

  EXPECT_EQ(detector.races_found(), 0u);
}

// Joining a thread orders what it did before the joiner's later accesses:
// a thread that reads the word its child wrote is clean after JoinThread,
// and the same read after a sleep long enough for the child to finish is a
// race.
TEST(RaceDetectorTest, JoinOrdersTheChildBeforeTheJoiner) {
  for (bool join : {true, false}) {
    TestSystem sys(2);
    auto* space = sys.kernel.CreateAddressSpace("join");
    rt::ZoneAllocator zone(&sys.kernel, space);
    auto shared = rt::SharedArray<uint32_t>::Create(zone, "join-word", 1);

    check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
    RunInThread(sys.kernel, space, 0, [&] {
      kernel::Thread* child =
          sys.kernel.SpawnThread(space, 1, "child", [&] { shared.Set(0, 7); });
      if (join) {
        sys.kernel.JoinThread(child);
      } else {
        sys.machine.scheduler().Sleep(50 * sim::kMillisecond);
      }
      EXPECT_EQ(shared.Get(0), 7u);
    });

    EXPECT_EQ(detector.races_found(), join ? 0u : 1u) << (join ? "joined" : "slept");
  }
}

TEST(RaceDetectorTest, IntentionalSharingIsSuppressed) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("chaotic");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "chaotic-word", 1);
  sys.kernel.AnnotateIntentionalSharing(space, shared.base_va(), 4);

  check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
  rt::RunOnProcessors(sys.kernel, space, 2, "chaotic", [&](int) {
    for (int i = 0; i < 16; ++i) {
      shared.Set(0, shared.Get(0) + 1);
    }
  });

  EXPECT_EQ(detector.races_found(), 0u);
  EXPECT_GT(detector.annotated_accesses(), 0u);
}

TEST(InvariantOracleTest, ChecksEveryTransition) {
  TestSystem sys(4);
  check::InvariantOracle oracle(&sys.kernel.memory());
  auto* space = sys.kernel.CreateAddressSpace("oracle");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "oracle-words", 4);

  rt::RunOnProcessors(sys.kernel, space, 4, "oracle", [&](int pid) {
    shared.Set(static_cast<size_t>(pid), static_cast<uint32_t>(pid));
    for (int i = 0; i < 4; ++i) {
      (void)shared.Get(static_cast<size_t>(i));
    }
  });

  // Every processor's first touch faults, so at least one transition each.
  EXPECT_GE(oracle.transitions_checked(), 4u);
  oracle.CheckNow();  // aborts on violation
}

TEST(InvariantOracleTest, DetachesOnDestruction) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("detach");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "detach-word", 1);
  {
    check::InvariantOracle oracle(&sys.kernel.memory());
    RunInThread(sys.kernel, space, 0, [&] { shared.Set(0, 1); });
    EXPECT_GT(oracle.transitions_checked(), 0u);
  }
  // Faults after the oracle is gone must not touch the dangling hook.
  RunInThread(sys.kernel, space, 1, [&] { EXPECT_EQ(shared.Get(0), 1u); });
}

// One defrost pass that thaws several pages: every "thaw" transition the
// oracle checks must see the pages still frozen on the defrost list.
TEST(InvariantOracleTest, DefrostPassThawsSeveralPages) {
  TestSystem sys(4);
  check::InvariantOracle oracle(&sys.kernel.memory());
  auto* space = sys.kernel.CreateAddressSpace("defrost");
  rt::ZoneAllocator zone(&sys.kernel, space);
  const uint32_t page_words = sys.kernel.page_size() / 4;
  auto pages = rt::SharedArray<uint32_t>::Create(zone, "defrost-pages", 3 * page_words);
  for (uint32_t i = 0; i < 3; ++i) {
    sys.kernel.PinMemory(space, pages.va(i * page_words), static_cast<int>(i));  // freezes
  }
  mem::CoherentMemory& memory = sys.kernel.memory();
  ASSERT_EQ(memory.frozen_count(), 3u);

  EXPECT_EQ(memory.ThawAllFrozen(), 3u);
  EXPECT_EQ(memory.frozen_count(), 0u);
  oracle.CheckNow();
}

// The page trace takes no access callbacks, so the detector composes with it
// in either order: enabled after AttachPageTrace it checks the same accesses,
// finds the same races, and the trace writes the same report.
TEST(RaceDetectorTest, EnablingAfterAttachPageTraceMatchesTheOtherOrder) {
  struct Outcome {
    std::string summary;
    uint64_t accesses_checked = 0;
    uint64_t sync_accesses = 0;
    uint64_t races_found = 0;
    uint64_t accesses_seen = 0;
    std::string page_report;
  };
  auto run = [](bool detector_first) {
    TestSystem sys(4);
    auto* space = sys.kernel.CreateAddressSpace("order");
    rt::ZoneAllocator zone(&sys.kernel, space);
    auto counter = rt::SharedArray<uint32_t>::Create(zone, "locked-counter", 1);
    auto racy = rt::SharedArray<uint32_t>::Create(zone, "racy-counter", 1);
    rt::SpinLock lock(zone, "counter-lock");
    obs::PageTrace trace;
    if (detector_first) {
      sys.kernel.EnableRaceDetection();
    }
    sys.kernel.AttachPageTrace(&trace);
    check::RaceDetector& detector = sys.kernel.EnableRaceDetection();
    rt::RunOnProcessors(sys.kernel, space, 4, "order", [&](int) {
      for (int i = 0; i < 8; ++i) {
        lock.Acquire();
        counter.Set(0, counter.Get(0) + 1);
        lock.Release();
        racy.Set(0, racy.Get(0) + 1);
      }
    });
    return Outcome{detector.Summary(),     detector.accesses_checked(),
                   detector.sync_accesses(), detector.races_found(),
                   trace.accesses_seen(),  trace.ToJson()};
  };
  Outcome before = run(/*detector_first=*/true);
  Outcome after = run(/*detector_first=*/false);
  EXPECT_GT(before.accesses_checked, 0u);
  EXPECT_GT(before.sync_accesses, 0u);
  EXPECT_GT(before.races_found, 0u);
  EXPECT_GT(before.accesses_seen, 0u);
  EXPECT_EQ(after.summary, before.summary);
  EXPECT_EQ(after.accesses_checked, before.accesses_checked);
  EXPECT_EQ(after.sync_accesses, before.sync_accesses);
  EXPECT_EQ(after.races_found, before.races_found);
  EXPECT_EQ(after.accesses_seen, before.accesses_seen);
  EXPECT_EQ(after.page_report, before.page_report);
}

TEST(InvariantOracleDeathTest, CatchesStateDirectoryMismatch) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("corrupt");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "corrupt-word", 1);
  RunInThread(sys.kernel, space, 0, [&] { (void)shared.Get(0); });

  mem::CoherentMemory& memory = sys.kernel.memory();
  uint32_t vpn = sys.kernel.VpnOf(shared.base_va());
  uint32_t cpage_id = memory.cmap(space->id()).entry(vpn).cpage;
  // One read-only copy, no write mappings — claiming kModified is a lie.
  memory.cpages().at(cpage_id).SetState(mem::CpageState::kModified);
  EXPECT_DEATH(memory.CheckInvariants(), "");
}

TEST(InvariantOracleDeathTest, CatchesFrozenReplicatedPage) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("frozen");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto shared = rt::SharedArray<uint32_t>::Create(zone, "frozen-word", 1);
  // Two read faults on different processors replicate the page.
  rt::RunOnProcessors(sys.kernel, space, 2, "readers",
                      [&](int) { (void)shared.Get(0); });

  mem::CoherentMemory& memory = sys.kernel.memory();
  uint32_t vpn = sys.kernel.VpnOf(shared.base_va());
  uint32_t cpage_id = memory.cmap(space->id()).entry(vpn).cpage;
  mem::Cpage& page = memory.cpages().at(cpage_id);
  ASSERT_GE(page.copies().size(), 2u);
  page.SetFrozen(true);  // frozen pages must never be replicated
  EXPECT_DEATH(memory.CheckInvariants(), "");
}

TEST(ExplorerTest, TwoProcessorsOnePageIsExhaustive) {
  check::ExplorerConfig config;
  config.processors = 2;
  config.pages = 1;
  check::ExplorerResult result = check::ExploreProtocol(config);

  EXPECT_TRUE(result.exhaustive);
  // Empty/present1/present+/modified x frozen x rights x policy pressure:
  // well over a dozen distinct abstract states must be reachable.
  EXPECT_GE(result.states_visited, 16u);
  EXPECT_GT(result.transitions_explored, result.states_visited);
  EXPECT_GT(result.oracle_checks, result.transitions_explored);
  EXPECT_NE(result.Summary().find("exhaustive"), std::string::npos);
}

TEST(ExplorerTest, NeverCachePolicyHasSmallerStateSpace) {
  check::ExplorerConfig timestamp;
  check::ExplorerConfig never;
  never.policy = "never";
  check::ExplorerResult with_freeze = check::ExploreProtocol(timestamp);
  check::ExplorerResult without = check::ExploreProtocol(never);

  EXPECT_TRUE(without.exhaustive);
  // Never-cache admits no replicated states, so it reaches strictly fewer.
  EXPECT_LT(without.states_visited, with_freeze.states_visited);
}

TEST(ExplorerTest, WriteSharedAdviceFreezesImmediately) {
  check::ExplorerConfig config;
  config.advice = mem::MemoryAdvice::kWriteShared;
  check::ExplorerResult result = check::ExploreProtocol(config);
  EXPECT_TRUE(result.exhaustive);
  EXPECT_GT(result.states_visited, 1u);
}

}  // namespace
}  // namespace platinum
