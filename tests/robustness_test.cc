// Edge cases and failure injection: frame exhaustion, tiny machines,
// allocator exhaustion, report contents, machine-level timing plumbing.
#include <gtest/gtest.h>

#include "src/apps/gauss.h"
#include "src/kernel/kernel.h"
#include "src/kernel/report.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using sim::kMillisecond;
using test::TestSystem;

// With almost no free frames, replication must degrade gracefully to remote
// mappings instead of failing: the fault handler falls back when no module
// can supply a frame.
TEST(FrameExhaustionTest, ReplicationFallsBackToRemoteMapping) {
  sim::MachineParams params = sim::ButterflyPlusParams(2);
  params.frames_per_module = 2;  // 2 nodes x 2 frames
  TestSystem sys(params);
  auto* space = sys.kernel.CreateAddressSpace("tiny", 64);
  rt::ZoneAllocator zone(&sys.kernel, space);
  // Four pages fill all four frames once each page has one copy.
  auto a = rt::SharedArray<uint32_t>::Create(zone, "a", 4);
  auto b = rt::SharedArray<uint32_t>::Create(zone, "b", 4);
  auto c = rt::SharedArray<uint32_t>::Create(zone, "c", 4);
  auto d = rt::SharedArray<uint32_t>::Create(zone, "d", 4);

  sys.kernel.SpawnThread(space, 0, "filler0", [&] {
    a.Set(0, 1);
    b.Set(0, 2);
  });
  sys.kernel.SpawnThread(space, 1, "filler1", [&] {
    sys.machine.scheduler().Sleep(2 * kMillisecond);
    c.Set(0, 3);
    d.Set(0, 4);
  });
  sys.kernel.Run();

  // All frames are used; node 1 reading page "a" cannot replicate.
  sys.kernel.SpawnThread(space, 1, "reader", [&] {
    sys.machine.scheduler().Sleep(20 * kMillisecond);  // past t1, policy says cache
    EXPECT_EQ(a.Get(0), 1u);
  });
  sys.kernel.Run();
  EXPECT_EQ(sys.machine.stats().replications, 0u);
  EXPECT_GE(sys.machine.stats().remote_maps, 1u);
  sys.kernel.memory().CheckInvariants();
}

TEST(FrameExhaustionDeathTest, FirstTouchWithNoFramesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::MachineParams params = sim::ButterflyPlusParams(2);
        params.frames_per_module = 1;
        TestSystem sys(params);
        auto* space = sys.kernel.CreateAddressSpace("tiny", 64);
        rt::ZoneAllocator zone(&sys.kernel, space);
        auto a = rt::SharedArray<uint32_t>::Create(zone, "a", 4);
        auto b = rt::SharedArray<uint32_t>::Create(zone, "b", 4);
        auto c = rt::SharedArray<uint32_t>::Create(zone, "c", 4);
        test::RunInThread(sys.kernel, space, 0, [&] {
          a.Set(0, 1);
          b.Set(0, 2);
          c.Set(0, 3);  // no frame anywhere: out of physical memory
        });
      },
      "out of physical memory");
}

TEST(ZoneExhaustionDeathTest, AddressSpaceCapacityEnforced) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TestSystem sys(2);
        auto* space = sys.kernel.CreateAddressSpace("small", 20);
        rt::ZoneAllocator zone(&sys.kernel, space, /*first_vpn=*/16);
        zone.AllocWords("a", 1);
        zone.AllocWords("b", 1);
        zone.AllocWords("c", 1);
        zone.AllocWords("d", 1);
        zone.AllocWords("overflow", 1);
      },
      "exhausted");
}

TEST(ReportTest, CountsFrozenPagesAndFormats) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "hot", 4);
  test::RunInThread(sys.kernel, space, 0, [&] {
    arr.Set(0, 1);
    sys.kernel.PinMemory(space, arr.base_va(), 1);
  });
  kernel::MemoryReport report = BuildMemoryReport(sys.kernel);
  EXPECT_EQ(report.frozen_pages, 1u);
  EXPECT_EQ(report.pages_ever_frozen, 1u);
  std::string text = report.ToString();
  EXPECT_NE(text.find("frozen"), std::string::npos);
  EXPECT_NE(text.find("present1"), std::string::npos);  // pin left one unmapped copy

  sys.kernel.memory().Thaw(sys.kernel.FindMemoryObject("hot")->cpage(0));
  report = BuildMemoryReport(sys.kernel);
  EXPECT_EQ(report.frozen_pages, 0u);
  EXPECT_EQ(report.pages_ever_frozen, 1u);
}

TEST(MachineTest, BlockTransferMovesBytesAndAdvancesClock) {
  sim::Machine machine(sim::ButterflyPlusParams(2));
  auto src = machine.module(0).AllocFrame(machine.AllocRawPageId());
  auto dst = machine.module(1).AllocFrame(machine.AllocRawPageId());
  ASSERT_TRUE(src.has_value() && dst.has_value());
  machine.WriteWordRaw(0, src->frame, 17, 0xdeadbeef);
  machine.scheduler().Spawn(0, "t", [&] {
    sim::SimTime t0 = machine.scheduler().now();
    machine.BlockTransferPage(0, src->frame, 1, dst->frame);
    EXPECT_NEAR(sim::ToMilliseconds(machine.scheduler().now() - t0), 1.11, 0.01);
  });
  machine.scheduler().Run();
  EXPECT_EQ(machine.ReadWordRaw(1, dst->frame, 17), 0xdeadbeefu);
}

TEST(MachineTest, RawPageIdsAreUnique) {
  sim::Machine machine(sim::ButterflyPlusParams(2));
  uint32_t a = machine.AllocRawPageId();
  uint32_t b = machine.AllocRawPageId();
  EXPECT_NE(a, b);
}

TEST(KernelDeathTest, ReceiveOutsideThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TestSystem sys(2);
        auto* port = sys.kernel.CreatePort("p");
        sys.kernel.Receive(port);
      },
      "thread");
}

// The per-reference path inlines its checks; their failure messages are built
// out of line, so pin that each still aborts with its context.
TEST(HotPathDeathTest, CurrentProcessorOutsideFiberAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Machine machine(sim::ButterflyPlusParams(2));
        (void)machine.scheduler().current_processor();
      },
      "no fiber is running");
}

TEST(HotPathDeathTest, FrameDataPastLastFrameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Machine machine(sim::ButterflyPlusParams(2));
        sim::MemoryModule& module = machine.module(1);
        (void)module.FrameData(module.num_frames());
      },
      "\\(frame\\) < \\(num_frames_\\)");
}

TEST(HotPathDeathTest, ReadOfUnboundAddressAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TestSystem sys(2);
        auto* space = sys.kernel.CreateAddressSpace("holes", 16);
        test::RunInThread(sys.kernel, space, 1,
                          [&] { (void)sys.kernel.ReadWord(space, 8 * sys.kernel.page_size()); });
      },
      "read fault at va [0-9]+ in space 'holes'");
}

TEST(HotPathDeathTest, WriteOfUnboundAddressAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TestSystem sys(2);
        auto* space = sys.kernel.CreateAddressSpace("holes", 16);
        test::RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 4, 7); });
      },
      "write fault at va 4 in space 'holes'");
}

TEST(CheckDeathTest, FailureReportsLocationExpressionAndContext) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int answer = 41;
  EXPECT_DEATH(PLAT_CHECK(answer == 42) << "answer was " << answer,
               "PLAT_CHECK failed at [^ ]*robustness_test\\.cc:[0-9]+: "
               "answer == 42 answer was 41");
  uint32_t big = 5;
  uint32_t small = 3;
  EXPECT_DEATH(PLAT_CHECK_LT(big, small),
               "robustness_test\\.cc:[0-9]+: \\(big\\) < \\(small\\)  \\(5 vs 3\\)");
}

// Stale data must never be visible after a page is thawed and re-replicated
// repeatedly under churn.
TEST(ChurnTest, RepeatedFreezeThawCyclesPreserveData) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("churn");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);

  for (int cycle = 0; cycle < 5; ++cycle) {
    uint32_t value = 100 + static_cast<uint32_t>(cycle);
    rt::RunOnProcessors(sys.kernel, space, 4, "churn", [&](int p) {
      if (p == cycle % 4) {
        arr.Set(0, value);
      }
      // Sleep past the writer's worst-case fault latency so every read is
      // ordered after the write in virtual time.
      sys.machine.scheduler().Sleep(5 * kMillisecond);
      EXPECT_EQ(arr.Get(0), value);
    });
    sys.kernel.memory().ThawAllFrozen();
    sys.kernel.memory().CheckInvariants();
  }
  EXPECT_GE(sys.machine.stats().thaws, 1u);
}

// The kernel's decentralized design must stay correct well past the paper's
// 16-node testbed (Section 9's scalability claim).
TEST(ScalabilityTest, GaussCorrectAt32Processors) {
  TestSystem sys(sim::ButterflyPlusParams(32));
  apps::GaussConfig config;
  config.n = 64;
  config.processors = 32;
  apps::GaussResult result = RunGaussPlatinum(sys.kernel, config);
  EXPECT_TRUE(result.verified);
  sys.kernel.memory().CheckInvariants();
}

TEST(ScalabilityTest, CoherenceAt64Processors) {
  TestSystem sys(sim::ButterflyPlusParams(64));
  auto* space = sys.kernel.CreateAddressSpace("wide");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "wide", 64);
  rt::RunOnProcessors(sys.kernel, space, 64, "w", [&](int p) {
    arr.Set(static_cast<size_t>(p), static_cast<uint32_t>(p) + 1);
    sys.machine.scheduler().Sleep(5 * kMillisecond);
    uint32_t sum = 0;
    for (size_t i = 0; i < 64; ++i) {
      sum += arr.Get(i);
    }
    EXPECT_EQ(sum, 64u * 65u / 2);
  });
  sys.kernel.memory().CheckInvariants();
}

}  // namespace
}  // namespace platinum
