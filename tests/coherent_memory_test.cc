// Protocol tests for the coherent memory system: state transitions,
// replication, migration, freezing, defrost, shootdowns, and end-to-end
// coherence under random workloads.
#include "src/mem/coherent_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "src/kernel/report.h"
#include "src/obs/page_trace.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using mem::CpageState;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;
using test::TestSystem;

class CoherentMemoryTest : public ::testing::Test {
 protected:
  CoherentMemoryTest() : CoherentMemoryTest(sim::ButterflyPlusParams(4)) {}
  explicit CoherentMemoryTest(const sim::MachineParams& params,
                              kernel::KernelOptions options = {})
      : sys_(params, std::move(options)) {
    space_ = sys_.kernel.CreateAddressSpace("test-space");
    zone_ = std::make_unique<rt::ZoneAllocator>(&sys_.kernel, space_);
  }

  // Allocates a one-page array and returns it with its cpage id.
  rt::SharedArray<uint32_t> NewPage(const std::string& name, uint32_t* cpage_id) {
    auto array = rt::SharedArray<uint32_t>::Create(*zone_, name, 4);
    *cpage_id = sys_.kernel.FindMemoryObject(name)->cpage(0);
    return array;
  }

  const mem::Cpage& page(uint32_t id) { return sys_.kernel.memory().cpages().at(id); }

  // Spawns a thread on `processor` at virtual time `delay` running `body`.
  // The thread is created *at* the target time (by a timer fiber), so the
  // address space is only active on the processor while the body runs —
  // important for tests that depend on the activation census.
  void At(int processor, SimTime delay, std::function<void()> body) {
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

TEST_F(CoherentMemoryTest, FirstWriteFillsLocallyAndModifies) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(1, 0, [&] {
    arr.Set(0, 77);
    EXPECT_EQ(arr.Get(0), 77u);  // read through the same RW mapping: no fault
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 1);
  EXPECT_EQ(sys_.machine.stats().initial_fills, 1u);
  EXPECT_EQ(sys_.machine.stats().faults, 1u);
}

TEST_F(CoherentMemoryTest, FirstReadFillsPresent1) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(2, 0, [&] { EXPECT_EQ(arr.Get(1), 0u); });  // zero-filled
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(page(id).copies()[0].module, 2);
}

TEST_F(CoherentMemoryTest, ReadMissReplicatesModifiedPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 123); });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 123u); });
  RunAndCheck();
  // modified -> present1 (restrict) -> present+ (replicate)
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
  EXPECT_EQ(page(id).copies().size(), 2u);
  EXPECT_TRUE(page(id).HasCopyOn(0));
  EXPECT_TRUE(page(id).HasCopyOn(1));
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(sys_.machine.stats().replications, 1u);
  EXPECT_EQ(sys_.machine.stats().mappings_restricted, 1u);
  EXPECT_FALSE(page(id).ever_invalidated());  // restriction is not invalidation
}

TEST_F(CoherentMemoryTest, WriteMissOnPresentPlusInvalidatesReplicas) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 6); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 0);
  EXPECT_TRUE(page(id).ever_invalidated());
  EXPECT_EQ(sys_.machine.stats().pages_freed, 1u);
  EXPECT_EQ(sys_.machine.stats().mappings_invalidated, 1u);
}

TEST_F(CoherentMemoryTest, RecentInvalidationFreezesPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });           // replicate
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 6); });        // invalidate
  At(1, 6 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 6u); });  // within t1: freeze
  RunAndCheck();
  EXPECT_TRUE(page(id).frozen());
  EXPECT_EQ(sys_.kernel.memory().frozen_count(), 1u);
  EXPECT_EQ(sys_.machine.stats().freezes, 1u);
  EXPECT_EQ(sys_.machine.stats().remote_maps, 1u);
  // The frozen page keeps its single copy on the writer's node; the reader
  // has a remote read mapping.
  EXPECT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 0);
}

TEST_F(CoherentMemoryTest, FrozenPageRemoteWriteSharesSingleCopy) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 1); });
  At(1, 1 * kMillisecond, [&] { arr.Set(0, 2); });   // migrate (no one else mapped? p0 is)
  At(0, 2 * kMillisecond, [&] { arr.Set(0, 3); });   // recent invalidation: remote RW map
  At(1, 3 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 3u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(page(id).copies().size(), 1u);
  // Both processors ended up with mappings to the single copy.
  EXPECT_GE(page(id).write_mappings(), 1u);
  EXPECT_TRUE(page(id).frozen());
}

TEST_F(CoherentMemoryTest, MigrationMovesDataAfterQuiescence) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(2, 42); });
  // After t1 with no invalidations the write migrates the page.
  At(3, 15 * kMillisecond, [&] {
    arr.Set(3, 43);
    EXPECT_EQ(arr.Get(2), 42u);  // data came along
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 3);
  EXPECT_EQ(sys_.machine.stats().migrations, 1u);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 1u);
}

TEST_F(CoherentMemoryTest, Present1WriteUpgradeNeedsNoShootdown) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(2, 0, [&] {
    arr.Get(0);     // present1, read-only mapping
    arr.Set(0, 9);  // upgrade in place
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(sys_.machine.stats().ipis_sent, 0u);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 0u);
  EXPECT_EQ(sys_.machine.stats().faults, 2u);
}

TEST_F(CoherentMemoryTest, DefrostThawsAndAllowsReplication) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 6); });
  At(1, 6 * kMillisecond, [&] { arr.Get(0); });  // freezes
  RunAndCheck();
  ASSERT_TRUE(page(id).frozen());

  sys_.kernel.memory().ThawAllFrozen();
  EXPECT_FALSE(page(id).frozen());
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(sys_.machine.stats().thaws, 1u);
  sys_.kernel.memory().CheckInvariants();

  // Long after the last invalidation, a read replicates again.
  At(1, 20 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 6u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
}

TEST_F(CoherentMemoryTest, DefrostDaemonThawsAutomatically) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 6); });
  At(1, 6 * kMillisecond, [&] { arr.Get(0); });  // freezes
  // Keep the machine alive past the defrost period t2.
  At(2, sys_.machine.params().t2_defrost_period_ns + 10 * kMillisecond, [&] {});
  RunAndCheck();
  EXPECT_FALSE(page(id).frozen());
  EXPECT_GE(sys_.machine.stats().thaws, 1u);
}

TEST_F(CoherentMemoryTest, SharedObjectAcrossAddressSpaces) {
  // The same object mapped into two address spaces stays coherent.
  auto* object = sys_.kernel.CreateMemoryObject("shared", 1);
  auto* space_b = sys_.kernel.CreateAddressSpace("space-b");
  sys_.kernel.Map(space_, object, 0, 1, 100, hw::Rights::kReadWrite);
  sys_.kernel.Map(space_b, object, 0, 1, 200, hw::Rights::kReadWrite);
  uint32_t va_a = 100 * sys_.kernel.page_size();
  uint32_t va_b = 200 * sys_.kernel.page_size();

  sys_.kernel.SpawnThread(space_, 0, "writer",
                          [&] { sys_.kernel.WriteWord(space_, va_a, 31337); });
  sys_.kernel.SpawnThread(space_b, 1, "reader", [&] {
    sys_.machine.scheduler().Sleep(2 * kMillisecond);
    EXPECT_EQ(sys_.kernel.ReadWord(space_b, va_b + 0), 31337u);
  });
  RunAndCheck();
  const mem::Cpage& shared = page(object->cpage(0));
  EXPECT_EQ(shared.mappers().size(), 2u);
  EXPECT_EQ(shared.state(), CpageState::kPresentPlus);
}

TEST_F(CoherentMemoryTest, LocalCopyFoundThroughOtherAddressSpace) {
  // Space B on the *same node* reuses the local physical copy instead of
  // replicating again.
  auto* object = sys_.kernel.CreateMemoryObject("shared", 1);
  auto* space_b = sys_.kernel.CreateAddressSpace("space-b");
  sys_.kernel.Map(space_, object, 0, 1, 100, hw::Rights::kReadWrite);
  sys_.kernel.Map(space_b, object, 0, 1, 50, hw::Rights::kReadWrite);

  sys_.kernel.SpawnThread(space_, 2, "writer", [&] {
    sys_.kernel.WriteWord(space_, 100 * sys_.kernel.page_size(), 7);
  });
  sys_.kernel.SpawnThread(space_b, 2, "reader", [&] {
    sys_.machine.scheduler().Sleep(1 * kMillisecond);
    EXPECT_EQ(sys_.kernel.ReadWord(space_b, 50 * sys_.kernel.page_size()), 7u);
  });
  RunAndCheck();
  EXPECT_EQ(sys_.machine.stats().replications, 0u);
  EXPECT_EQ(page(object->cpage(0)).copies().size(), 1u);
}

TEST_F(CoherentMemoryTest, ShootdownInterruptsOnlyReferencingActiveProcessors) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 1); });
  // Processors 1 and 2 replicate; processor 3 runs a thread that never
  // touches the page (active but not referencing).
  At(1, 2 * kMillisecond, [&] {
    arr.Get(0);
    sys_.machine.scheduler().Sleep(60 * kMillisecond);
  });
  At(2, 2 * kMillisecond, [&] {
    arr.Get(0);
    sys_.machine.scheduler().Sleep(60 * kMillisecond);
  });
  At(3, 2 * kMillisecond, [&] { sys_.machine.scheduler().Sleep(60 * kMillisecond); });
  At(0, 20 * kMillisecond, [&] { arr.Set(0, 2); });  // write miss? no: local copy upgrade
  RunAndCheck();
  // Only processors 1 and 2 were interrupted; 0 is the initiator, 3 holds no
  // translation (Mach would have interrupted it too).
  EXPECT_EQ(sys_.machine.stats().ipis_sent, 2u);
}

TEST_F(CoherentMemoryTest, InactiveProcessorGetsCmapMessageNotIpi) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 1); });
  // Processor 1 replicates, then its thread exits (deactivating the space).
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  At(0, 20 * kMillisecond, [&] { arr.Set(0, 2); });
  RunAndCheck();
  EXPECT_EQ(sys_.machine.stats().ipis_sent, 0u);
  // Two rounds that interrupt nobody still count: the restrict at processor
  // 1's replicating read and the collapse at processor 0's second write each
  // only post a message, so neither records a round-trip latency.
  EXPECT_EQ(sys_.machine.stats().shootdowns, 2u);
  EXPECT_EQ(sys_.machine.obs().hist(obs::HistKind::kShootdown).count(), 0u);
  // The change was queued for processor 1 to apply at next activation.
  ASSERT_EQ(sys_.kernel.memory().cmap(space_->id()).messages().size(), 1u);
  EXPECT_EQ(sys_.kernel.memory().cmap(space_->id()).messages()[0].target_mask, uint64_t{1} << 1);

  // Activating the space on processor 1 drains the queue.
  At(1, 30 * kMillisecond, [&] {});
  RunAndCheck();
  EXPECT_TRUE(sys_.kernel.memory().cmap(space_->id()).messages().empty());
}

TEST_F(CoherentMemoryTest, ProtectionAndUnmappedFaults) {
  auto* object = sys_.kernel.CreateMemoryObject("ro", 1);
  sys_.kernel.Map(space_, object, 0, 1, 300, hw::Rights::kRead);
  uint32_t va = 300 * sys_.kernel.page_size();
  At(0, 0, [&] {
    auto& memory = sys_.kernel.memory();
    auto write = memory.Access(space_->id(), 300, 0, sim::AccessKind::kWrite, 1);
    EXPECT_EQ(write.outcome, mem::AccessOutcome::kProtection);
    auto read = memory.Access(space_->id(), 300, 0, sim::AccessKind::kRead);
    EXPECT_EQ(read.outcome, mem::AccessOutcome::kOk);
    auto unmapped = memory.Access(space_->id(), 9999, 0, sim::AccessKind::kRead);
    EXPECT_EQ(unmapped.outcome, mem::AccessOutcome::kNoMapping);
    (void)va;
  });
  RunAndCheck();
}

TEST_F(CoherentMemoryTest, UnbindRemovesTranslationsAndMapper) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 1); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  RunAndCheck();
  uint32_t vpn = arr.base_va() / sys_.kernel.page_size();
  sys_.kernel.Unmap(space_, vpn, 1);
  EXPECT_TRUE(page(id).mappers().empty());
  EXPECT_EQ(page(id).write_mappings(), 0u);
  sys_.kernel.memory().CheckInvariants();
}

// A frame freed by one cpage keeps its bytes until the next cpage gets it,
// and that cpage must read zeros. With one frame per module, every page
// placed on a module gets the same frame.
class FrameReuseTest : public CoherentMemoryTest {
 protected:
  FrameReuseTest() : CoherentMemoryTest(OneFramePerModule()) {}

  static sim::MachineParams OneFramePerModule() {
    sim::MachineParams params = sim::ButterflyPlusParams(2);
    params.frames_per_module = 1;
    return params;
  }

  // Fills node 1's frame with a whole page of nonzero data, then frees it:
  // node 0 replicates the page and writes it, invalidating node 1's copy.
  void DirtyAndFreeNode1Frame() {
    const uint32_t words = sys_.machine.params().page_size_bytes / 4;
    auto dirty = rt::SharedArray<uint32_t>::Create(*zone_, "dirty", words);
    const uint32_t id = sys_.kernel.FindMemoryObject("dirty")->cpage(0);
    At(1, 0, [&] {
      for (uint32_t i = 0; i < words; ++i) {
        dirty.Set(i, 0xA5A5A5A5u);
      }
    });
    At(0, 2 * kMillisecond, [&] { dirty.Get(0); });
    At(0, 4 * kMillisecond, [&] { dirty.Set(0, 1); });
    RunAndCheck();
    ASSERT_FALSE(page(id).HasCopyOn(1));
    ASSERT_EQ(sys_.machine.module(1).free_frames(), 1u);
  }

  // Every byte of node 1's frame.
  bool Node1FrameReadsZero() {
    const uint8_t* data = sys_.machine.module(1).FrameData(0);
    return std::all_of(data, data + sys_.machine.params().page_size_bytes,
                       [](uint8_t byte) { return byte == 0; });
  }
};

TEST_F(FrameReuseTest, InitialFillZeroesAReusedFrame) {
  ASSERT_NO_FATAL_FAILURE(DirtyAndFreeNode1Frame());
  uint32_t id;
  auto arr = NewPage("fresh", &id);
  At(1, 0, [&] { EXPECT_EQ(arr.Get(3), 0u); });
  RunAndCheck();
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 1);
  EXPECT_TRUE(Node1FrameReadsZero());
}

TEST_F(FrameReuseTest, PinZeroesAReusedFrame) {
  ASSERT_NO_FATAL_FAILURE(DirtyAndFreeNode1Frame());
  uint32_t id;
  auto arr = NewPage("fresh", &id);
  sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/1);
  ASSERT_EQ(page(id).copies().size(), 1u);
  EXPECT_EQ(page(id).copies()[0].module, 1);
  EXPECT_TRUE(Node1FrameReadsZero());
  At(0, 0, [&] { EXPECT_EQ(arr.Get(3), 0u); });
  RunAndCheck();
}

// The fault branches under each coherence protocol. Both protocols run one
// fault-resolution path, so every branch but two leaves the same page state,
// copies and write mappings under either; the later cases pin the branches
// where they differ (docs/PROTOCOL.md) and the Section 9 hooks, which make
// the same moves: pins that fill, collapse or migrate a page, which freeze it
// only under the directory protocol, a pre-replication that downgrades a
// writer, and the thaw of a pinned page that nobody maps.
class FaultBranchTest : public CoherentMemoryTest,
                        public ::testing::WithParamInterface<std::string> {
 protected:
  FaultBranchTest() : CoherentMemoryTest(sim::ButterflyPlusParams(4), Options(GetParam())) {
    sys_.kernel.memory().EnableTracing(1024);
  }

  static kernel::KernelOptions Options(const std::string& protocol) {
    kernel::KernelOptions options;
    options.protocol = protocol;
    return options;
  }

  bool directory() const { return GetParam() == "directory"; }

  // The modules holding a copy of the page, in ascending order.
  std::vector<int> CopyModules(uint32_t id) {
    std::vector<int> modules;
    for (const mem::PhysicalCopy& copy : page(id).copies()) {
      modules.push_back(copy.module);
    }
    std::sort(modules.begin(), modules.end());
    return modules;
  }

  // The rights `processor` holds on `arr`'s page (kNone without a translation).
  hw::Rights RightsOn(int processor, const rt::SharedArray<uint32_t>& arr) {
    uint32_t vpn = arr.base_va() / sys_.kernel.page_size();
    return sys_.kernel.memory().cmap(space_->id()).pmap(processor).entry(vpn).rights;
  }

  size_t Events(mem::TraceEventType type) {
    std::vector<mem::TraceEvent> events = sys_.kernel.memory().trace()->Snapshot();
    return static_cast<size_t>(std::count_if(events.begin(), events.end(),
                                             [type](const mem::TraceEvent& e) {
                                               return e.type == type;
                                             }));
  }
};

TEST_P(FaultBranchTest, FirstReadFillsPresent1) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(2, 0, [&] { EXPECT_EQ(arr.Get(1), 0u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(CopyModules(id), std::vector<int>{2});
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kRead);
  EXPECT_EQ(Events(mem::TraceEventType::kFill), 1u);
}

TEST_P(FaultBranchTest, FirstWriteFillsModified) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(1, 0, [&] {
    arr.Set(0, 77);
    EXPECT_EQ(arr.Get(0), 77u);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{1});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kReadWrite);
  EXPECT_EQ(Events(mem::TraceEventType::kFill), 1u);
}

TEST_P(FaultBranchTest, LocalCopyFoundThroughOtherAddressSpace) {
  auto* object = sys_.kernel.CreateMemoryObject("shared", 1);
  auto* space_b = sys_.kernel.CreateAddressSpace("space-b");
  sys_.kernel.Map(space_, object, 0, 1, 100, hw::Rights::kReadWrite);
  sys_.kernel.Map(space_b, object, 0, 1, 50, hw::Rights::kReadWrite);
  sys_.kernel.SpawnThread(space_, 2, "writer", [&] {
    sys_.kernel.WriteWord(space_, 100 * sys_.kernel.page_size(), 7);
  });
  sys_.kernel.SpawnThread(space_b, 2, "reader", [&] {
    sys_.machine.scheduler().Sleep(1 * kMillisecond);
    EXPECT_EQ(sys_.kernel.ReadWord(space_b, 50 * sys_.kernel.page_size()), 7u);
  });
  RunAndCheck();
  uint32_t id = object->cpage(0);
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{2});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(sys_.machine.stats().replications, 0u);
  EXPECT_EQ(sys_.machine.stats().remote_maps, 0u);
}

TEST_P(FaultBranchTest, ReadMissReplicatesModifiedPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 123); });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 123u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
  EXPECT_EQ(CopyModules(id), (std::vector<int>{0, 1}));
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kRead);
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kRead);
  EXPECT_EQ(sys_.machine.stats().replications, 1u);
  EXPECT_EQ(sys_.machine.stats().mappings_restricted, 1u);
  EXPECT_FALSE(page(id).ever_invalidated());
}

TEST_P(FaultBranchTest, LocalUpgradeFromPresent1) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(2, 0, [&] {
    arr.Get(0);
    arr.Set(0, 9);
    EXPECT_EQ(arr.Get(0), 9u);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{2});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kReadWrite);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 0u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 0u);
}

TEST_P(FaultBranchTest, LocalUpgradeFromPresentPlusCollapses) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 5u); });
  At(0, 4 * kMillisecond, [&] {
    arr.Set(0, 6);
    EXPECT_EQ(arr.Get(0), 6u);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{0});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kReadWrite);
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kNone);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 1u);
  EXPECT_EQ(sys_.machine.stats().mappings_invalidated, 1u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 1u);
  EXPECT_TRUE(page(id).ever_invalidated());
}

TEST_P(FaultBranchTest, WriteMissMigrates) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(2, 42); });
  At(3, 15 * kMillisecond, [&] {
    arr.Set(3, 43);
    EXPECT_EQ(arr.Get(2), 42u);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{3});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(3, arr), hw::Rights::kReadWrite);
  EXPECT_EQ(sys_.machine.stats().migrations, 1u);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 1u);
}

TEST_P(FaultBranchTest, RemoteWriteCollapsesReplicas) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 5u); });
  RunAndCheck();
  ASSERT_EQ(CopyModules(id), (std::vector<int>{0, 1}));
  // Write-shared advice makes processor 2's write miss map the page remotely.
  sys_.kernel.AdviseMemory(space_, arr.base_va(), 4, mem::MemoryAdvice::kWriteShared);
  At(2, 0, [&] {
    arr.Set(0, 7);
    EXPECT_EQ(arr.Get(0), 7u);
  });
  At(0, 1 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 7u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{0});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kReadWrite);
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kNone);
  EXPECT_EQ(sys_.machine.stats().remote_maps, 1u);
  EXPECT_EQ(sys_.machine.stats().pages_freed, 1u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 1u);
}

// A remote read of a page another processor holds modified, with caching
// declined: the directory protocol lets the reader share the writer's copy;
// Tardis waits out the write lease and downgrades the writer first. The read
// faults 1 us after the write: it queues behind the writer's fault in the
// handler, so it resolves while the write lease is still live.
TEST_P(FaultBranchTest, DeclinedRemoteReadOfModifiedPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.AdviseMemory(space_, arr.base_va(), 4, mem::MemoryAdvice::kWriteShared);
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 1 * kMicrosecond, [&] { EXPECT_EQ(arr.Get(0), 5u); });
  RunAndCheck();
  EXPECT_EQ(CopyModules(id), std::vector<int>{0});
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kRead);
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.remote_maps, 1u);
  const std::string report = stats.ToString();
  if (directory()) {
    EXPECT_EQ(page(id).state(), CpageState::kModified);
    EXPECT_EQ(page(id).write_mappings(), 1u);
    EXPECT_EQ(RightsOn(0, arr), hw::Rights::kReadWrite);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
    EXPECT_EQ(stats.lease_waits, 0u);
    EXPECT_EQ(report.find("leases:"), std::string::npos) << report;
  } else {
    EXPECT_EQ(page(id).state(), CpageState::kPresent1);
    EXPECT_EQ(page(id).write_mappings(), 0u);
    EXPECT_EQ(RightsOn(0, arr), hw::Rights::kRead);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    EXPECT_EQ(stats.lease_waits, 1u);
    EXPECT_GT(stats.lease_wait_ns, 0);
    EXPECT_NE(report.find("leases: 1 expiry waits, "), std::string::npos) << report;
  }
}

// A write miss that migrates a page whose copy another active processor
// maps: a shootdown round under the directory protocol, a lease expiry and
// no interrupt under Tardis. Both count it as coherence interference.
TEST_P(FaultBranchTest, MigrateTakesAwayAMappedCopy) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(2, 42);
    sys_.machine.scheduler().Sleep(30 * kMillisecond);  // keeps the space active
  });
  At(3, 15 * kMillisecond, [&] {
    arr.Set(3, 43);
    EXPECT_EQ(arr.Get(2), 42u);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kModified);
  EXPECT_EQ(CopyModules(id), std::vector<int>{3});
  EXPECT_EQ(page(id).write_mappings(), 1u);
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kNone);
  EXPECT_EQ(sys_.machine.stats().migrations, 1u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 1u);
  if (directory()) {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 1u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
    EXPECT_EQ(sys_.machine.stats().shootdowns, 1u);
    EXPECT_EQ(sys_.machine.stats().ipis_sent, 1u);
  } else {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 0u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    EXPECT_EQ(sys_.machine.stats().shootdowns, 0u);
    EXPECT_EQ(sys_.machine.stats().ipis_sent, 0u);
  }
}

// Pinning a replicated page onto a node that already holds a copy collapses
// it to that copy: the other copies' translations are taken away (a
// shootdown round under the directory protocol, a wait on the live read
// lease and a scrub under Tardis), their frames are freed, and the page is
// present1. A placement change, so no invalidation round is recorded.
TEST_P(FaultBranchTest, PinOntoAReplicaCollapsesToIt) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] { EXPECT_EQ(arr.Get(0), 0u); });
  At(1, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(0), 0u); });
  At(2, 4 * kMillisecond, [&] {
    EXPECT_EQ(arr.Get(0), 0u);
    sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/1);
  });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(CopyModules(id), std::vector<int>{1});
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(page(id).frozen(), directory());
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kNone);
  EXPECT_EQ(RightsOn(1, arr), hw::Rights::kRead);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kNone);
  EXPECT_EQ(Events(mem::TraceEventType::kPin), 1u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 0u);
  EXPECT_FALSE(page(id).ever_invalidated());
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.replications, 2u);
  EXPECT_EQ(stats.mappings_invalidated, 2u);
  EXPECT_EQ(stats.pages_freed, 2u);
  if (directory()) {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 1u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
    EXPECT_EQ(stats.shootdowns, 1u);
    EXPECT_EQ(stats.lease_waits, 0u);
  } else {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 0u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    EXPECT_EQ(stats.shootdowns, 0u);
    EXPECT_EQ(stats.lease_waits, 1u);
    EXPECT_GT(stats.lease_wait_ns, 0);
  }
}

// Pinning a page its writer still maps onto another node migrates it: every
// translation is taken away (a shootdown round under the directory
// protocol, a wait on the live write lease and a scrub under Tardis), the
// data moves to the target and the old frame is freed. The page lands
// present1 with no write mapping; only the directory protocol freezes it.
TEST_P(FaultBranchTest, PinMigratesAWrittenPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(1, 42);
    sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/2);
  });
  At(2, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(1), 42u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(CopyModules(id), std::vector<int>{2});
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kNone);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kRead);
  EXPECT_EQ(Events(mem::TraceEventType::kMigrate), 1u);
  EXPECT_EQ(Events(mem::TraceEventType::kPin), 1u);
  EXPECT_EQ(page(id).stats().invalidation_rounds, 0u);
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.pages_freed, 1u);
  EXPECT_EQ(stats.mappings_restricted, 0u);
  EXPECT_EQ(stats.mappings_invalidated, 1u);
  if (directory()) {
    EXPECT_TRUE(page(id).frozen());
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 1u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
    EXPECT_EQ(stats.shootdowns, 1u);
    EXPECT_EQ(stats.lease_waits, 0u);
  } else {
    EXPECT_FALSE(page(id).frozen());
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 0u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    EXPECT_EQ(stats.shootdowns, 0u);
    EXPECT_EQ(stats.lease_waits, 1u);
    EXPECT_GT(stats.lease_wait_ns, 0);
  }
}

// Pinning a page nobody has touched fills it on the target node, and the
// fill is counted, traced with the target as its detail and rolled up by an
// attached page trace, as a fill at fault time is.
TEST_P(FaultBranchTest, PinOntoAnEmptyPageFills) {
  obs::PageTrace page_trace;
  sys_.kernel.AttachPageTrace(&page_trace);
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/2);
  sys_.kernel.memory().SetPageEventSink(nullptr);
  sys_.kernel.memory().CheckInvariants();
  EXPECT_EQ(page(id).state(), CpageState::kPresent1);
  EXPECT_EQ(CopyModules(id), std::vector<int>{2});
  EXPECT_EQ(page(id).frozen(), directory());
  EXPECT_EQ(sys_.machine.stats().initial_fills, 1u);
  std::vector<mem::TraceEvent> fills;
  for (const mem::TraceEvent& event : sys_.kernel.memory().trace()->Snapshot()) {
    if (event.type == mem::TraceEventType::kFill) {
      fills.push_back(event);
    }
  }
  ASSERT_EQ(fills.size(), 1u);
  EXPECT_EQ(fills[0].cpage, id);
  EXPECT_EQ(fills[0].detail, 2u);
  const obs::PageTrace::PageRollup* rollup = page_trace.rollup(id);
  ASSERT_NE(rollup, nullptr);
  EXPECT_EQ(rollup->fills, 1u);
}

// Pre-replicating a page its writer still maps first downgrades the writer
// (a shootdown round under the directory protocol, a wait on the live write
// lease and a scrub under Tardis), then copies the page to the target: the
// page is present+ and both nodes read it through read-only mappings.
TEST_P(FaultBranchTest, ReplicateToDowngradesAWrittenPage) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  At(0, 0, [&] {
    arr.Set(1, 42);
    sys_.kernel.ReplicateMemory(space_, arr.base_va(), /*node=*/2);
    EXPECT_EQ(arr.Get(1), 42u);
  });
  At(2, 2 * kMillisecond, [&] { EXPECT_EQ(arr.Get(1), 42u); });
  RunAndCheck();
  EXPECT_EQ(page(id).state(), CpageState::kPresentPlus);
  EXPECT_EQ(CopyModules(id), (std::vector<int>{0, 2}));
  EXPECT_EQ(page(id).write_mappings(), 0u);
  EXPECT_FALSE(page(id).frozen());
  EXPECT_EQ(RightsOn(0, arr), hw::Rights::kRead);
  EXPECT_EQ(RightsOn(2, arr), hw::Rights::kRead);
  EXPECT_EQ(Events(mem::TraceEventType::kReplicate), 1u);
  EXPECT_FALSE(page(id).ever_invalidated());
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.replications, 1u);
  EXPECT_EQ(stats.pages_freed, 0u);
  EXPECT_EQ(stats.mappings_restricted, 1u);
  EXPECT_EQ(stats.mappings_invalidated, 0u);
  if (directory()) {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 1u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
    EXPECT_EQ(stats.shootdowns, 1u);
    EXPECT_EQ(stats.lease_waits, 0u);
  } else {
    EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 0u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    EXPECT_EQ(stats.shootdowns, 0u);
    EXPECT_EQ(stats.lease_waits, 1u);
    EXPECT_GT(stats.lease_wait_ns, 0);
  }
}

// Thawing a page nobody maps takes no translation away: no round is counted
// and no lease expiry is traced. Only the directory protocol freezes the
// pinned page, so only there does the thaw reach the walkers.
TEST_P(FaultBranchTest, ThawOfAnUnmappedPageTakesNothingAway) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  sys_.kernel.PinMemory(space_, arr.base_va(), /*node=*/2);
  EXPECT_EQ(page(id).frozen(), directory());
  sys_.kernel.ThawMemory(space_, arr.base_va());
  sys_.kernel.memory().CheckInvariants();
  EXPECT_FALSE(page(id).frozen());
  EXPECT_EQ(sys_.machine.stats().shootdowns, 0u);
  EXPECT_EQ(Events(mem::TraceEventType::kShootdown), 0u);
  EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 0u);
}

// An unmap takes its binding's translations from the other processors the
// way every other transition does: one shootdown round that interrupts the
// three active holders under the directory protocol, a wait on their live
// read lease and a scrub under Tardis. Processor 3 unmaps 20 us after the
// last read completed and holds no translation itself.
TEST_P(FaultBranchTest, UnmapTakesAwayTheBindingsTranslations) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  const uint32_t vpn = arr.base_va() / sys_.kernel.page_size();
  int reads = 0;
  SimTime last_read = 0;
  SimTime unmap_ns = -1;
  auto read_and_stay_active = [&] {
    EXPECT_EQ(arr.Get(0), 0u);
    ++reads;
    last_read = std::max(last_read, sys_.kernel.Now());
    sys_.machine.scheduler().Sleep(30 * kMillisecond);
  };
  At(0, 0, read_and_stay_active);
  At(1, 2 * kMillisecond, read_and_stay_active);
  At(2, 4 * kMillisecond, read_and_stay_active);
  At(3, 0, [&] {
    while (reads < 3) {
      sys_.machine.scheduler().Sleep(10 * kMicrosecond);
    }
    sys_.machine.scheduler().Sleep(last_read + 20 * kMicrosecond - sys_.kernel.Now());
    const SimTime start = sys_.kernel.Now();
    sys_.kernel.Unmap(space_, vpn, 1);
    unmap_ns = sys_.kernel.Now() - start;
  });
  RunAndCheck();
  EXPECT_TRUE(page(id).mappers().empty());
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(RightsOn(p, arr), hw::Rights::kNone) << "processor " << p;
  }
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.mappings_invalidated, 3u);
  EXPECT_EQ(Events(mem::TraceEventType::kUnbind), 1u);
  if (directory()) {
    const sim::MachineParams& params = sys_.machine.params();
    EXPECT_EQ(stats.shootdowns, 1u);
    EXPECT_EQ(stats.ipis_sent, 3u);
    EXPECT_EQ(stats.lease_waits, 0u);
    EXPECT_EQ(unmap_ns, params.shootdown_setup_ns + 3 * params.shootdown_per_processor_ns);
    EXPECT_EQ(unmap_ns, 221 * kMicrosecond);
  } else {
    EXPECT_EQ(stats.shootdowns, 0u);
    EXPECT_EQ(stats.ipis_sent, 0u);
    EXPECT_EQ(stats.lease_waits, 1u);
    EXPECT_EQ(Events(mem::TraceEventType::kLeaseExpire), 1u);
    // The rest of the 50 us read lease, then the scrub's bookkeeping.
    EXPECT_GT(unmap_ns, 20 * kMicrosecond);
  }
}

// An unmap leaves the translations of the page's other bindings alone: with
// one page bound at vpns 100, 200 and 300, unmapping 100 keeps processor 1's
// translation through 200. Unmapping 300, which holds no translation, takes
// nothing away and waits for nothing, even inside the page's read lease.
TEST_P(FaultBranchTest, UnmapKeepsTheOtherBindingsTranslations) {
  auto* object = sys_.kernel.CreateMemoryObject("shared", 1);
  for (uint32_t vpn : {100u, 200u, 300u}) {
    sys_.kernel.Map(space_, object, 0, 1, vpn, hw::Rights::kReadWrite);
  }
  const uint32_t page_size = sys_.kernel.page_size();
  At(1, 0, [&] {
    sys_.kernel.ReadWord(space_, 100 * page_size);
    sys_.kernel.ReadWord(space_, 200 * page_size);
    const SimTime start = sys_.kernel.Now();
    sys_.kernel.Unmap(space_, 300, 1);
    EXPECT_EQ(sys_.kernel.Now(), start);
    sys_.kernel.Unmap(space_, 100, 1);
  });
  RunAndCheck();
  const mem::Cmap& cm = sys_.kernel.memory().cmap(space_->id());
  EXPECT_EQ(cm.pmap(1).entry(100).rights, hw::Rights::kNone);
  EXPECT_EQ(cm.pmap(1).entry(200).rights, hw::Rights::kRead);
  EXPECT_EQ(page(object->cpage(0)).mappers().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FaultBranchTest, ::testing::Values("directory", "tardis"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

// End-to-end coherence: random reads/writes from all processors must always
// observe the value of the most recent write in simulation order.
class CoherenceRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CoherenceRandomTest, MatchesShadowModel) {
  const int seed = GetParam();
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("random");
  rt::ZoneAllocator zone(&sys.kernel, space);
  constexpr int kPages = 6;
  constexpr int kWordsPerPage = 8;
  auto arr = rt::SharedArray<uint32_t>::Create(
      zone, "data", kPages * sys.kernel.page_size() / 4);

  // Shadow model updated in fiber-execution order.
  std::vector<uint32_t> shadow(kPages * kWordsPerPage, 0);
  auto index_of = [&](int page_index, int word) {
    return page_index * (sys.kernel.page_size() / 4) + word;
  };

  rt::RunOnProcessors(sys.kernel, space, 4, "rnd", [&](int p) {
    std::mt19937 rng(seed * 97 + p);
    for (int i = 0; i < 400; ++i) {
      int page_index = static_cast<int>(rng() % kPages);
      int word = static_cast<int>(rng() % kWordsPerPage);
      size_t si = static_cast<size_t>(page_index) * kWordsPerPage + word;
      // A fiber can only be preempted at the end of an access, so updating
      // the shadow (or capturing the expectation) immediately before the
      // access keeps the two models in lockstep.
      if (rng() % 2 == 0) {
        uint32_t value = rng();
        shadow[si] = value;
        arr.Set(index_of(page_index, word), value);
      } else {
        uint32_t expected = shadow[si];
        EXPECT_EQ(arr.Get(index_of(page_index, word)), expected)
            << "processor " << p << " op " << i;
      }
      if (rng() % 8 == 0) {
        sys.machine.scheduler().Sleep((rng() % 2000) * kMicrosecond);
      }
    }
  });
  sys.kernel.memory().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceRandomTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(CoherentMemoryTiming, ReadMissReplicationCostMatchesPaper) {
  // Section 4: a read miss replicating a non-modified page takes 1.34-1.38 ms.
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("t");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);
  SimTime measured = 0;
  sys.kernel.SpawnThread(space, 0, "filler", [&] { arr.Get(0); });
  sys.kernel.SpawnThread(space, 1, "replicator", [&] {
    sys.machine.scheduler().Sleep(2 * kMillisecond);
    SimTime t0 = sys.kernel.Now();
    arr.Get(0);
    measured = sys.kernel.Now() - t0;
  });
  sys.kernel.Run();
  EXPECT_GE(sim::ToMilliseconds(measured), 1.30);
  EXPECT_LE(sim::ToMilliseconds(measured), 1.45);
}

TEST(CoherentMemoryTiming, FrozenPageAccessIsOneRemoteReference) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("t");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);
  SimTime measured = 0;
  sys.kernel.SpawnThread(space, 0, "w", [&] {
    arr.Set(0, 1);
    sys.machine.scheduler().Sleep(4 * kMillisecond);
    arr.Set(0, 2);  // invalidates the replica below
  });
  sys.kernel.SpawnThread(space, 1, "r", [&] {
    auto& sched = sys.machine.scheduler();
    sched.Sleep(2 * kMillisecond);
    arr.Get(0);  // replicate
    sched.Sleep(4 * kMillisecond);
    arr.Get(0);  // fault -> frozen remote mapping
    SimTime t0 = sys.kernel.Now();
    arr.Get(0);  // plain remote reference, no fault
    measured = sys.kernel.Now() - t0;
  });
  sys.kernel.Run();
  EXPECT_LE(measured, 10 * kMicrosecond);
  EXPECT_GE(measured, sys.machine.params().remote_read_ns);
}

TEST_F(CoherentMemoryTest, AtcHitAndMissCountsCoverEveryReference) {
  uint32_t id;
  auto arr = NewPage("p", &id);
  // Mix of fault-resolving accesses (initial fill, replication, invalidation,
  // freeze) and plain hits across two processors.
  At(0, 0, [&] { arr.Set(0, 5); });
  At(1, 2 * kMillisecond, [&] { arr.Get(0); });
  At(0, 4 * kMillisecond, [&] { arr.Set(0, 6); });
  At(1, 6 * kMillisecond, [&] {
    arr.Get(0);
    arr.Get(1);
  });
  RunAndCheck();
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.atc_hits, 0u);
  // Every reference resolves as either an ATC hit or an ATC miss; an access
  // that traps into the fault handler is a miss too.
  EXPECT_EQ(stats.atc_hits + stats.atc_misses, stats.total_references());
}

// Records every access the memory system reports to its observer.
struct RecordingObserver : mem::AccessObserver {
  void OnMemoryAccess(const mem::MemoryAccess& access) override { seen.push_back(access); }
  std::vector<mem::MemoryAccess> seen;
};

TEST_F(CoherentMemoryTest, AtcConflictRefillsFromPmapWithoutFaulting) {
  // The ATC is direct-mapped: vpns atc_entries apart share a slot. Touching
  // two conflicting pages alternately must refill from the (still valid)
  // private Pmap — an ATC miss each time, but never another page fault.
  const sim::MachineParams& params = sys_.machine.params();
  const uint32_t entries = params.atc_entries;
  const uint32_t wpp = params.words_per_page();
  auto arr = rt::SharedArray<uint32_t>::Create(*zone_, "conflict",
                                               static_cast<size_t>(entries + 1) * wpp);
  const size_t word_a = 0;                            // first page
  const size_t word_b = static_cast<size_t>(entries) * wpp;  // conflicting page
  RecordingObserver observer;
  At(0, 0, [&] {
    arr.Set(word_a, 11);  // fault: initial fill of page A
    arr.Set(word_b, 22);  // fault: fill of page B evicts A's ATC slot
    uint64_t faults_before = sys_.machine.stats().faults;
    uint64_t misses_before = sys_.machine.stats().atc_misses;
    uint64_t hits_before = sys_.machine.stats().atc_hits;
    sys_.kernel.memory().SetAccessObserver(&observer);
    SimTime t0 = sys_.kernel.Now();
    EXPECT_EQ(arr.Get(word_a), 11u);  // ATC conflict miss, Pmap refill, no fault
    // The refill charges the ATC fill, then one local reference to an idle
    // module (640 + 320 ns); the observer sees the access once, after the
    // fill.
    EXPECT_EQ(sys_.kernel.Now() - t0, params.atc_fill_ns + params.local_read_ns);
    sys_.kernel.memory().SetAccessObserver(nullptr);
    ASSERT_EQ(observer.seen.size(), 1u);
    EXPECT_EQ(observer.seen[0].vpn, arr.base_va() / sys_.kernel.page_size());
    EXPECT_FALSE(observer.seen[0].is_write);
    EXPECT_EQ(observer.seen[0].processor, 0);
    EXPECT_EQ(observer.seen[0].time, t0 + params.atc_fill_ns);
    EXPECT_EQ(sys_.machine.stats().faults, faults_before);
    EXPECT_EQ(sys_.machine.stats().atc_misses, misses_before + 1);
    EXPECT_EQ(sys_.machine.stats().atc_hits, hits_before);
    EXPECT_EQ(arr.Get(word_a), 11u);  // now cached again: a plain hit
    EXPECT_EQ(sys_.machine.stats().atc_hits, hits_before + 1);
    EXPECT_EQ(sys_.machine.stats().atc_misses, misses_before + 1);
  });
  RunAndCheck();
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.atc_hits + stats.atc_misses, stats.total_references());
}

// Records the page events the memory system emits.
struct RecordingSink : mem::PageEventSink {
  void OnPageEvent(const mem::TraceEvent& event) override { events.push_back(event); }
  // The reads reported by each kPageFree of `cpage`, as (module, reads).
  std::vector<std::pair<uint32_t, uint32_t>> Frees(uint32_t cpage) const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (const mem::TraceEvent& e : events) {
      if (e.type == mem::TraceEventType::kPageFree && e.cpage == cpage) {
        out.emplace_back(e.detail, e.reads);
      }
    }
    return out;
  }
  std::vector<mem::TraceEvent> events;
};

// Each freed copy's kPageFree reports the reads that copy served while a
// page-event sink was attached, on every path a read takes: the fault that
// replicates onto the reader's node, ATC hits, a vpn rebound to another
// object's page (its reads count for the new page's copy only), and a
// remote mapping (counted for the copy's module, not the reader's). Writes
// count nothing.
TEST_F(CoherentMemoryTest, FreedCopyReportsTheReadsItServed) {
  constexpr uint32_t kVpn = 100;
  constexpr uint32_t kOtherVpn = 200;
  const uint32_t va = kVpn * sys_.kernel.page_size();
  const uint32_t other_va = kOtherVpn * sys_.kernel.page_size();
  vm::MemoryObject* first = sys_.kernel.CreateMemoryObject("first", 1);
  sys_.kernel.Map(space_, first, 0, 1, kVpn, hw::Rights::kReadWrite);
  RecordingSink sink;
  sys_.kernel.memory().SetPageEventSink(&sink);
  At(0, 0, [&] { sys_.kernel.WriteWord(space_, va, 5); });  // fills on module 0
  At(1, 2 * kMillisecond, [&] {
    EXPECT_EQ(sys_.kernel.ReadWord(space_, va), 5u);      // read fault: replicates to module 1
    EXPECT_EQ(sys_.kernel.ReadWord(space_, va + 4), 0u);  // ATC hit
    for (uint32_t i = 0; i < 4; ++i) {
      sys_.kernel.ReadWord(space_, va + 4 * i);  // ATC hits on the same copy
    }
  });
  RunAndCheck();
  EXPECT_EQ(sink.accesses(), 7u);

  // Rebind the vpn to another object's page and map the first object
  // elsewhere; processor 2's reads through the vpn fill and read the second
  // page's copy on module 2. Processor 0's write then frees the first page's
  // replica on module 1, and processor 3's write moves the second page off
  // module 2.
  vm::MemoryObject* second = sys_.kernel.CreateMemoryObject("second", 1);
  sys_.kernel.Unmap(space_, kVpn, 1);
  sys_.kernel.Map(space_, second, 0, 1, kVpn, hw::Rights::kReadWrite);
  sys_.kernel.Map(space_, first, 0, 1, kOtherVpn, hw::Rights::kReadWrite);
  At(2, 0, [&] {
    EXPECT_EQ(sys_.kernel.ReadWord(space_, va), 0u);
    EXPECT_EQ(sys_.kernel.ReadWord(space_, va + 4), 0u);
  });
  At(0, 2 * kMillisecond, [&] { sys_.kernel.WriteWord(space_, other_va, 6); });
  At(3, 4 * kMillisecond, [&] { sys_.kernel.WriteWord(space_, va, 7); });
  RunAndCheck();
  sys_.kernel.memory().SetPageEventSink(nullptr);
  using Frees = std::vector<std::pair<uint32_t, uint32_t>>;
  EXPECT_EQ(sink.Frees(first->cpage(0)), (Frees{{1, 6}}));
  EXPECT_EQ(sink.Frees(second->cpage(0)), (Frees{{2, 2}}));
  for (const mem::TraceEvent& e : sink.events) {
    if (e.type != mem::TraceEventType::kPageFree) {
      EXPECT_EQ(e.reads, 0u) << mem::TraceEventTypeName(e.type);
    }
  }

  // Under the never-cache policy a read miss maps the page's single copy
  // remotely: the reads count for that copy's module 0, not the reader's
  // node. Pinning the page to node 2 frees the copy. A second run with no
  // sink attached reports no reads on the same free.
  for (bool attached : {true, false}) {
    kernel::KernelOptions options;
    options.policy = std::make_unique<mem::NeverCachePolicy>();
    TestSystem never(4, std::move(options));
    never.kernel.memory().EnableTracing();
    auto* space = never.kernel.CreateAddressSpace("never");
    vm::MemoryObject* remote = never.kernel.CreateMemoryObject("remote", 1);
    never.kernel.Map(space, remote, 0, 1, kVpn, hw::Rights::kReadWrite);
    RecordingSink remote_sink;
    if (attached) {
      never.kernel.memory().SetPageEventSink(&remote_sink);
    }
    never.kernel.SpawnThread(space, 0, "writer", [&] { never.kernel.WriteWord(space, va, 9); });
    never.kernel.SpawnThread(space, 3, "reader", [&] {
      never.machine.scheduler().Sleep(2 * kMillisecond);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(never.kernel.ReadWord(space, va), 9u);
      }
    });
    never.kernel.Run();
    never.kernel.PinMemory(space, va, 2);
    never.kernel.memory().SetPageEventSink(nullptr);
    EXPECT_EQ(never.machine.stats().remote_maps, 1u);
    Frees frees;
    for (const mem::TraceEvent& e : never.kernel.memory().trace()->Snapshot()) {
      if (e.type == mem::TraceEventType::kPageFree) {
        frees.emplace_back(e.detail, e.reads);
      }
    }
    EXPECT_EQ(frees, (Frees{{0, attached ? 3u : 0u}})) << "attached " << attached;
    if (attached) {
      EXPECT_EQ(remote_sink.Frees(remote->cpage(0)), frees);
    }
  }
}

// ReadRange/WriteRange stop at the first word whose outcome is not kOk and
// return it; the words before it have been accessed, none after it. A range
// running off a bound page into an unbound vpn writes the bound words and
// traps once. A range onto a read-only alias of the same page writes nothing.
TEST_F(CoherentMemoryTest, RangeStopsAtTheFirstFailingWord) {
  constexpr uint32_t kVpn = 100;  // kVpn + 1 stays unbound
  constexpr uint32_t kReadOnlyVpn = 300;
  const uint32_t wpp = sys_.machine.params().words_per_page();
  const uint32_t tail_va = (kVpn + 1) * sys_.kernel.page_size() - 8;  // word wpp - 2
  vm::MemoryObject* object = sys_.kernel.CreateMemoryObject("range", 1);
  sys_.kernel.Map(space_, object, 0, 1, kVpn, hw::Rights::kReadWrite);
  sys_.kernel.Map(space_, object, 0, 1, kReadOnlyVpn, hw::Rights::kRead);
  mem::CoherentMemory& memory = sys_.kernel.memory();
  At(0, 0, [&] {
    sys_.kernel.WriteWord(space_, tail_va, 1);  // fills the page
    const uint64_t faults = sys_.machine.stats().faults;
    const uint32_t values[4] = {11, 12, 13, 14};
    EXPECT_EQ(memory.WriteRange(space_->id(), kVpn, wpp - 2, 4, values),
              mem::AccessOutcome::kNoMapping);
    EXPECT_EQ(sys_.machine.stats().faults, faults + 1);
    EXPECT_EQ(sys_.kernel.ReadWord(space_, tail_va), 11u);
    EXPECT_EQ(sys_.kernel.ReadWord(space_, tail_va + 4), 12u);

    const uint32_t overwrite[2] = {21, 22};
    EXPECT_EQ(memory.WriteRange(space_->id(), kReadOnlyVpn, wpp - 2, 2, overwrite),
              mem::AccessOutcome::kProtection);
    uint32_t read_back[2] = {0, 0};
    EXPECT_EQ(memory.ReadRange(space_->id(), kReadOnlyVpn, wpp - 2, 2, read_back),
              mem::AccessOutcome::kOk);
    EXPECT_EQ(read_back[0], 11u);
    EXPECT_EQ(read_back[1], 12u);
  });
  RunAndCheck();
}

// Times a write through a read-only translation: processor 2 reads a fresh
// page (a read fault maps it read-only), then writes the same word. Returns
// the write's elapsed virtual time and the ATC hits, ATC misses and faults
// it added.
struct ReadOnlyWrite {
  SimTime elapsed = 0;
  uint64_t atc_hits = 0;
  uint64_t atc_misses = 0;
  uint64_t faults = 0;
};

ReadOnlyWrite WriteThroughReadOnlyTranslation(SimTime atc_fill_ns) {
  sim::MachineParams params = sim::ButterflyPlusParams(4);
  params.atc_fill_ns = atc_fill_ns;
  TestSystem sys(params);
  auto* space = sys.kernel.CreateAddressSpace("read-only");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "p", 4);
  ReadOnlyWrite result;
  test::RunInThread(sys.kernel, space, 2, [&] {
    arr.Get(0);
    const sim::MachineStats before = sys.machine.stats();
    const SimTime t0 = sys.kernel.Now();
    arr.Set(0, 9);
    result.elapsed = sys.kernel.Now() - t0;
    const sim::MachineStats delta = sys.machine.stats() - before;
    result.atc_hits = delta.atc_hits;
    result.atc_misses = delta.atc_misses;
    result.faults = delta.faults;
  });
  sys.kernel.memory().CheckInvariants();
  return result;
}

TEST(CoherentMemoryTiming, WriteThroughReadOnlyPmapEntryFaultsWithoutAtcFill) {
  // Neither the cached nor the Pmap translation allows the write, so the
  // access is one ATC miss and one fault, and no ATC fill is charged before
  // the fault: the write takes the same time whatever the fill costs.
  ReadOnlyWrite write = WriteThroughReadOnlyTranslation(640);
  EXPECT_EQ(write.atc_hits, 0u);
  EXPECT_EQ(write.atc_misses, 1u);
  EXPECT_EQ(write.faults, 1u);
  EXPECT_EQ(WriteThroughReadOnlyTranslation(640 + kMillisecond).elapsed, write.elapsed);
}

// Runs one multi-processor scenario whose bulk transfers go either word by
// word through rt::SharedArray or through CoherentMemory::ReadRange and
// WriteRange, and returns everything observable: the values read, the full
// machine stats, the protocol trace and the final virtual time. The two
// variants must be indistinguishable.
//
// The contiguous layout moves one page-crossing span. The conflicting layout
// alternates chunks between two pages that share a slot of the direct-mapped
// ATC, so after each page's first touch every chunk starts with an ATC miss
// served from the Pmap.
enum class RangeLayout { kContiguous, kConflictingPages };

struct RangeScenarioResult {
  std::vector<uint32_t> read_back;
  uint64_t atc_hits = 0;
  uint64_t atc_misses = 0;
  uint64_t faults = 0;
  uint64_t replications = 0;
  uint64_t mappings_invalidated = 0;
  uint64_t total_references = 0;
  sim::SimTime final_time = 0;
  std::vector<mem::TraceEvent> trace;
};

RangeScenarioResult RunRangeScenario(bool use_range, RangeLayout layout) {
  TestSystem sys(4);
  sys.kernel.memory().EnableTracing(1 << 16);
  auto* space = sys.kernel.CreateAddressSpace("range");
  rt::ZoneAllocator zone(&sys.kernel, space);
  const size_t wpp = sys.machine.params().words_per_page();
  const size_t entries = sys.machine.params().atc_entries;
  // The transfer, as (first word, count) spans moved in order, and a word
  // another processor dirties meanwhile.
  std::vector<std::pair<size_t, size_t>> spans;
  size_t pages = 3;
  size_t disturbed_word = wpp + 5;  // the middle page
  if (layout == RangeLayout::kContiguous) {
    spans.emplace_back(wpp / 2, 2 * wpp);  // page-crossing, starting mid-page
  } else {
    pages = entries + 1;  // page 0 and page `entries` share an ATC slot
    const size_t chunk = wpp / 4;
    for (size_t i = 0; i < 4; ++i) {
      spans.emplace_back(i * chunk, chunk);
      spans.emplace_back(entries * wpp + i * chunk, chunk);
    }
    disturbed_word = entries * wpp + 5;
  }
  size_t count = 0;
  for (const auto& span : spans) {
    count += span.second;
  }
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", pages * wpp);
  mem::CoherentMemory& memory = sys.kernel.memory();
  auto vpn_of = [&](size_t index) { return sys.kernel.VpnOf(arr.va(index)); };
  auto offset_of = [&](size_t index) {
    return static_cast<uint32_t>(arr.va(index) % sys.kernel.page_size() / 4);
  };

  RangeScenarioResult result;
  result.read_back.resize(count);
  sys.kernel.SpawnThread(space, 0, "writer", [&] {
    std::vector<uint32_t> values(count);
    for (size_t i = 0; i < count; ++i) {
      values[i] = static_cast<uint32_t>(3 * i + 7);
    }
    size_t done = 0;
    for (const auto& [first, n] : spans) {
      if (use_range) {
        EXPECT_EQ(memory.WriteRange(space->id(), vpn_of(first), offset_of(first),
                                    static_cast<uint32_t>(n), values.data() + done),
                  mem::AccessOutcome::kOk);
      } else {
        for (size_t i = 0; i < n; ++i) {
          arr.Set(first + i, values[done + i]);
        }
      }
      done += n;
    }
  });
  sys.kernel.SpawnThread(space, 1, "reader", [&] {
    sys.machine.scheduler().Sleep(20 * kMillisecond);
    size_t done = 0;
    for (const auto& [first, n] : spans) {
      if (use_range) {
        EXPECT_EQ(memory.ReadRange(space->id(), vpn_of(first), offset_of(first),
                                   static_cast<uint32_t>(n), result.read_back.data() + done),
                  mem::AccessOutcome::kOk);
      } else {
        for (size_t i = 0; i < n; ++i) {
          result.read_back[done + i] = arr.Get(first + i);
        }
      }
      done += n;
    }
  });
  // A third processor dirtying a page of the transfer concurrently, so some
  // of the bulk words fault and some translations are shot down
  // mid-transfer.
  sys.kernel.SpawnThread(space, 2, "disturber", [&] {
    sys.machine.scheduler().Sleep(10 * kMillisecond);
    arr.Set(disturbed_word, 0xdead);
  });
  sys.kernel.Run();
  sys.kernel.memory().CheckInvariants();

  const sim::MachineStats& stats = sys.machine.stats();
  result.atc_hits = stats.atc_hits;
  result.atc_misses = stats.atc_misses;
  result.faults = stats.faults;
  result.replications = stats.replications;
  result.mappings_invalidated = stats.mappings_invalidated;
  result.total_references = stats.total_references();
  result.final_time = sys.machine.scheduler().global_now();
  result.trace = sys.kernel.memory().trace()->Snapshot();
  return result;
}

void ExpectIdenticalBehaviour(const RangeScenarioResult& words,
                              const RangeScenarioResult& range) {
  EXPECT_EQ(words.read_back, range.read_back);
  EXPECT_EQ(words.atc_hits, range.atc_hits);
  EXPECT_EQ(words.atc_misses, range.atc_misses);
  EXPECT_EQ(words.faults, range.faults);
  EXPECT_EQ(words.replications, range.replications);
  EXPECT_EQ(words.mappings_invalidated, range.mappings_invalidated);
  EXPECT_EQ(words.total_references, range.total_references);
  EXPECT_EQ(words.final_time, range.final_time);

  // Identical protocol trace streams, event by event.
  ASSERT_EQ(words.trace.size(), range.trace.size());
  for (size_t i = 0; i < words.trace.size(); ++i) {
    EXPECT_EQ(words.trace[i].time, range.trace[i].time) << "event " << i;
    EXPECT_EQ(words.trace[i].type, range.trace[i].type) << "event " << i;
    EXPECT_EQ(words.trace[i].cpage, range.trace[i].cpage) << "event " << i;
    EXPECT_EQ(words.trace[i].processor, range.trace[i].processor) << "event " << i;
    EXPECT_EQ(words.trace[i].detail, range.trace[i].detail) << "event " << i;
    EXPECT_EQ(words.trace[i].thread, range.trace[i].thread) << "event " << i;
  }
}

TEST(CoherentMemoryRange, BlockAccessMatchesWordByWordExactly) {
  RangeScenarioResult words = RunRangeScenario(/*use_range=*/false, RangeLayout::kContiguous);
  RangeScenarioResult range = RunRangeScenario(/*use_range=*/true, RangeLayout::kContiguous);
  ExpectIdenticalBehaviour(words, range);
  EXPECT_GT(words.faults, 0u);
}

TEST(CoherentMemoryRange, BlockAccessOverConflictingPagesMatchesWordByWord) {
  RangeScenarioResult words =
      RunRangeScenario(/*use_range=*/false, RangeLayout::kConflictingPages);
  RangeScenarioResult range =
      RunRangeScenario(/*use_range=*/true, RangeLayout::kConflictingPages);
  ExpectIdenticalBehaviour(words, range);
  EXPECT_GT(words.faults, 0u);
  // Writer and reader each move 8 chunks over 2 pages; at least the 6
  // chunks after each side's first touch of a page start with a refill.
  EXPECT_GE(range.atc_misses - range.faults, 12u);
}

}  // namespace
}  // namespace platinum
