// Tests for the Section 9 kernel-interface extensions (advice, pin,
// pre-replication, explicit thaw), the adaptive defrost daemon, and the
// instrumentation trace.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/mem/trace.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using mem::CpageState;
using mem::MemoryAdvice;
using sim::kMillisecond;
using test::TestSystem;

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : sys_(4) {
    space_ = sys_.kernel.CreateAddressSpace("ext");
    zone_ = std::make_unique<rt::ZoneAllocator>(&sys_.kernel, space_);
  }

  rt::SharedArray<uint32_t> NewPage(const std::string& name, uint32_t* cpage_id) {
    auto array = rt::SharedArray<uint32_t>::Create(*zone_, name, 4);
    *cpage_id = sys_.kernel.FindMemoryObject(name)->cpage(0);
    return array;
  }

  const mem::Cpage& page(uint32_t id) { return sys_.kernel.memory().cpages().at(id); }

  void At(int processor, sim::SimTime delay, std::function<void()> body) {
    sys_.machine.scheduler().Spawn(
        processor, "timer", [this, processor, delay, body = std::move(body)] {
          sys_.machine.scheduler().Sleep(delay);
          kernel::Thread* thread =
              sys_.kernel.SpawnThread(space_, processor, "step", std::move(body));
          sys_.kernel.JoinThread(thread);
        });
  }

  void RunAndCheck() {
    sys_.kernel.Run();
    sys_.kernel.memory().CheckInvariants();
  }

  TestSystem sys_;
  vm::AddressSpace* space_ = nullptr;
  std::unique_ptr<rt::ZoneAllocator> zone_;
};

TEST_F(ExtensionsTest, WriteSharedAdviceFreezesImmediately) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.AdviseMemory(space_, arr.base_va(), 4, MemoryAdvice::kWriteShared);
  At(0, 0, [&] { arr.Set(0, 1); });
  // The second toucher gets a remote mapping and the page freezes at once,
  // with no migration ping-pong first.
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 1u); });
  RunAndCheck();
  EXPECT_TRUE(page(id).frozen());
  EXPECT_EQ(sys_.machine.stats().migrations, 0u);
  EXPECT_EQ(sys_.machine.stats().replications, 0u);
}

TEST_F(ExtensionsTest, ReadMostlyAdviceReplicatesDespiteInvalidations) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.AdviseMemory(space_, arr.base_va(), 4, MemoryAdvice::kReadMostly);
  At(0, 0, [&] { arr.Set(0, 1); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });          // replicate
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 2); });       // invalidates
  At(1, 6 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 2u); });  // would freeze by default
  RunAndCheck();
  EXPECT_FALSE(page(id).frozen());
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
  EXPECT_EQ(sys_.machine.stats().replications, 2u);
}

TEST_F(ExtensionsTest, PrivateAdviceAlwaysMigrates) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.AdviseMemory(space_, arr.base_va(), 4, MemoryAdvice::kPrivate);
  At(0, 0, [&] { arr.Set(0, 1); });
  At(1, 1 * kMillisecond, [&] { arr.Set(0, 2); });
  At(2, 2 * kMillisecond, [&] { arr.Set(0, 3); });  // would freeze by default
  RunAndCheck();
  EXPECT_FALSE(page(id).frozen());
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 2);
  EXPECT_EQ(sys_.machine.stats().migrations, 2u);
}

TEST_F(ExtensionsTest, PinMovesDataAndFreezes) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(0, 77);
    sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/3);
  });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 77u); });
  RunAndCheck();
  EXPECT_TRUE(page(id).frozen());
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 3);
  // The reader got a remote mapping to the pinned copy.
  EXPECT_GE(sys_.machine.stats().remote_maps, 1u);
}

TEST_F(ExtensionsTest, PinEmptyPageMaterializesOnTarget) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/2);
  EXPECT_TRUE(page(id).frozen());
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 2);
  At(0, 0, [&] { EXPECT_EQ(arr.Get(0), 0u); });  // zero-filled, remote-mapped
  RunAndCheck();
  EXPECT_EQ(page(id).copies().size(), 1u);
}

TEST_F(ExtensionsTest, ReplicateToPrefetchesCopy) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(0, 9);
    sys_.kernel.ReplicateMemory(space_, arr.base_va(), /*node=*/1);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
  EXPECT_TRUE(page(id).HasCopyOn(1));
  // A later read on node 1 finds the local copy: no block transfer needed.
  uint64_t transfers_before = sys_.machine.stats().block_transfers;
  At(1, 1 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 9u); });
  RunAndCheck();
  EXPECT_EQ(sys_.machine.stats().block_transfers, transfers_before);
}

TEST_F(ExtensionsTest, ExplicitThawUnfreezes) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(0, 1);
    sys_.kernel.PinMemory(space_, arr.base_va(), 0);
    EXPECT_TRUE(page(id).frozen());
    sys_.kernel.ThawMemory(space_, arr.base_va());
    EXPECT_FALSE(page(id).frozen());
  });
  RunAndCheck();
}

// A prefetch onto a full module does nothing: no frame is taken elsewhere,
// no probe is charged, and the frame accounting stays balanced.
TEST(ReplicateToFullModuleTest, ChargesNothingAndLeavesThePage) {
  sim::MachineParams params = sim::ButterflyPlusParams(4);
  params.frames_per_module = 8;
  TestSystem sys(params);
  auto* space = sys.kernel.CreateAddressSpace("s");
  auto* filler = sys.kernel.CreateMemoryObject("filler", 8);
  auto* target = sys.kernel.CreateMemoryObject("target", 1, /*home_module=*/2);
  sys.kernel.Map(space, filler, 0, 8, 100, hw::Rights::kReadWrite);
  sys.kernel.Map(space, target, 0, 1, 200, hw::Rights::kReadWrite);
  const uint32_t page_size = sys.kernel.page_size();
  // Eight first writes from processor 1 take every frame of module 1.
  test::RunInThread(sys.kernel, space, 1, [&] {
    for (uint32_t i = 0; i < 8; ++i) {
      sys.kernel.WriteWord(space, (100 + i) * page_size, i);
    }
  });
  ASSERT_EQ(sys.machine.module(1).free_frames(), 0u);

  test::RunInThread(sys.kernel, space, 0, [&] {
    sys.kernel.WriteWord(space, 200 * page_size, 9);
    sim::SimTime before = sys.machine.scheduler().now();
    sys.kernel.ReplicateMemory(space, 200 * page_size, /*node=*/1);
    EXPECT_EQ(sys.machine.scheduler().now(), before);
  });
  sys.kernel.memory().CheckInvariants();
  const mem::Cpage& page = sys.kernel.memory().cpages().at(target->cpage(0));
  EXPECT_EQ(page.state(), CpageState::kModified);
  ASSERT_EQ(page.copies().size(), 1u);
  EXPECT_EQ(page.copies()[0].module, 0);
  EXPECT_EQ(sys.machine.stats().replications, 0u);
  for (int m = 0; m < 4; ++m) {
    const obs::ModuleCounters& counters = sys.machine.obs().module(m);
    const sim::MemoryModule& module = sys.machine.module(m);
    EXPECT_EQ(counters.frames_allocated - counters.frames_freed,
              module.num_frames() - module.free_frames())
        << "module " << m;
  }
}

TEST(PinToFullModuleDeathTest, AbortNamesTheModuleAndTheCpage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::MachineParams params = sim::ButterflyPlusParams(2);
        params.frames_per_module = 1;
        TestSystem sys(params);
        auto* space = sys.kernel.CreateAddressSpace("s");
        auto* filler = sys.kernel.CreateMemoryObject("filler", 1);
        auto* target = sys.kernel.CreateMemoryObject("target", 1);
        sys.kernel.Map(space, filler, 0, 1, 10, hw::Rights::kReadWrite);
        sys.kernel.Map(space, target, 0, 1, 20, hw::Rights::kReadWrite);
        test::RunInThread(sys.kernel, space, 1, [&] {
          sys.kernel.WriteWord(space, 10 * sys.kernel.page_size(), 1);
        });
        sys.kernel.PinMemory(space, 20 * sys.kernel.page_size(), /*node=*/1);
      },
      "target module 1 full pinning cpage 1");
}

TEST(AdaptiveDefrostTest, PageStaysFrozenForFullT2) {
  sim::MachineParams params = sim::ButterflyPlusParams(4);
  params.adaptive_defrost = true;
  params.t2_defrost_period_ns = 100 * kMillisecond;
  TestSystem sys(params);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);
  uint32_t id = sys.kernel.FindMemoryObject("p")->cpage(0);

  // Freeze the page at ~95 ms: the periodic daemon would thaw it at 100 ms
  // after only ~5 ms frozen; the adaptive daemon must wait the full t2.
  sys.kernel.SpawnThread(space, 0, "w", [&] {
    arr.Set(0, 1);
    sys.machine.scheduler().Sleep(90 * kMillisecond);
    arr.Set(0, 2);  // invalidate the replica made below
  });
  sys.kernel.SpawnThread(space, 1, "r", [&] {
    auto& sched = sys.machine.scheduler();
    sched.Sleep(50 * kMillisecond);
    arr.Get(0);                       // replicate
    sched.Sleep(45 * kMillisecond);   // ~95 ms
    arr.Get(0);                       // recent invalidation: freeze
    EXPECT_TRUE(sys.kernel.memory().cpages().at(id).frozen());
    sched.Sleep(60 * kMillisecond);   // ~155 ms: less than freeze+t2
    EXPECT_TRUE(sys.kernel.memory().cpages().at(id).frozen());
    sched.Sleep(60 * kMillisecond);   // ~215 ms: past freeze+t2
    sched.Sleep(10 * kMillisecond);
    EXPECT_FALSE(sys.kernel.memory().cpages().at(id).frozen());
  });
  sys.kernel.Run();
  sys.kernel.memory().CheckInvariants();
}

TEST(TraceTest, RecordsProtocolEvents) {
  TestSystem sys(4);
  sys.kernel.memory().EnableTracing(128);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);

  sys.kernel.SpawnThread(space, 0, "w", [&] {
    arr.Set(0, 1);
    sys.machine.scheduler().Sleep(15 * kMillisecond);
  });
  sys.kernel.SpawnThread(space, 1, "r", [&] {
    sys.machine.scheduler().Sleep(5 * kMillisecond);
    arr.Get(0);
  });
  sys.kernel.Run();

  auto events = sys.kernel.memory().trace()->Snapshot();
  ASSERT_FALSE(events.empty());
  int faults = 0;
  int fills = 0;
  int replicates = 0;
  int shootdowns = 0;
  sim::SimTime previous = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.time, previous);
    previous = e.time;
    switch (e.type) {
      case mem::TraceEventType::kFault:
        ++faults;
        break;
      case mem::TraceEventType::kFill:
        ++fills;
        break;
      case mem::TraceEventType::kReplicate:
        ++replicates;
        break;
      case mem::TraceEventType::kShootdown:
        ++shootdowns;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(faults, 2);       // write fill + read replication
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(replicates, 1);
  EXPECT_EQ(shootdowns, 1);   // restrict of the writer's mapping
  EXPECT_FALSE(sys.kernel.memory().trace()->ToString().empty());
}

TEST(TraceTest, RingBufferDropsOldest) {
  mem::TraceLog log(4);
  for (uint32_t i = 0; i < 10; ++i) {
    log.Record(i, mem::TraceEventType::kFault, i, 0, 0);
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().cpage, 6u);
  EXPECT_EQ(events.back().cpage, 9u);
}

}  // namespace
}  // namespace platinum
