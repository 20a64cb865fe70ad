// Protocol tests for the coherent memory system: state transitions,
// replication, migration, freezing, defrost, shootdowns, and end-to-end
// coherence under random workloads.
#include "src/mem/coherent_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/kernel/report.h"
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
  explicit CoherentMemoryTest(const sim::MachineParams& params) : sys_(params) {
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
  // that traps into the fault handler is a miss too (the accounting bug fixed
  // in AccessSlow).
  EXPECT_EQ(stats.atc_hits + stats.atc_misses, stats.total_references());
}

TEST_F(CoherentMemoryTest, AtcConflictRefillsFromPmapWithoutFaulting) {
  // The ATC is direct-mapped: vpns atc_entries apart share a slot. Touching
  // two conflicting pages alternately must refill from the (still valid)
  // private Pmap — an ATC miss each time, but never another page fault.
  const uint32_t entries = sys_.machine.params().atc_entries;
  const uint32_t wpp = sys_.machine.params().words_per_page();
  auto arr = rt::SharedArray<uint32_t>::Create(*zone_, "conflict",
                                               static_cast<size_t>(entries + 1) * wpp);
  const size_t word_a = 0;                            // first page
  const size_t word_b = static_cast<size_t>(entries) * wpp;  // conflicting page
  At(0, 0, [&] {
    const sim::MachineStats& stats = sys_.machine.stats();
    arr.Set(word_a, 11);  // fault: initial fill of page A
    arr.Set(word_b, 22);  // fault: fill of page B evicts A's ATC slot
    uint64_t faults_before = stats.faults;
    uint64_t misses_before = stats.atc_misses;
    uint64_t hits_before = stats.atc_hits;
    EXPECT_EQ(arr.Get(word_a), 11u);  // ATC conflict miss, Pmap refill, no fault
    EXPECT_EQ(stats.faults, faults_before);
    EXPECT_EQ(stats.atc_misses, misses_before + 1);
    EXPECT_EQ(stats.atc_hits, hits_before);
    EXPECT_EQ(arr.Get(word_a), 11u);  // now cached again: a plain hit
    EXPECT_EQ(stats.atc_hits, hits_before + 1);
    EXPECT_EQ(stats.atc_misses, misses_before + 1);
  });
  RunAndCheck();
  const sim::MachineStats& stats = sys_.machine.stats();
  EXPECT_EQ(stats.atc_hits + stats.atc_misses, stats.total_references());
}

// Runs one multi-processor scenario whose bulk transfers go either word by
// word or through the block-access API, and returns everything observable:
// the values read, the full machine stats, the protocol trace and the final
// virtual time. The two variants must be indistinguishable.
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

RangeScenarioResult RunRangeScenario(bool use_range) {
  TestSystem sys(4);
  sys.kernel.memory().EnableTracing(1 << 16);
  auto* space = sys.kernel.CreateAddressSpace("range");
  rt::ZoneAllocator zone(&sys.kernel, space);
  const uint32_t wpp = sys.machine.params().words_per_page();
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", static_cast<size_t>(3) * wpp);
  // A page-crossing span starting mid-page.
  const size_t first = wpp / 2;
  const size_t count = 2 * wpp;

  RangeScenarioResult result;
  result.read_back.resize(count);
  sys.kernel.SpawnThread(space, 0, "writer", [&] {
    std::vector<uint32_t> values(count);
    for (size_t i = 0; i < count; ++i) {
      values[i] = static_cast<uint32_t>(3 * i + 7);
    }
    if (use_range) {
      arr.SetRange(first, count, values.data());
    } else {
      for (size_t i = 0; i < count; ++i) {
        arr.Set(first + i, values[i]);
      }
    }
  });
  sys.kernel.SpawnThread(space, 1, "reader", [&] {
    sys.machine.scheduler().Sleep(20 * kMillisecond);
    if (use_range) {
      arr.GetRange(first, count, result.read_back.data());
    } else {
      for (size_t i = 0; i < count; ++i) {
        result.read_back[i] = arr.Get(first + i);
      }
    }
  });
  // A third processor dirtying the middle page concurrently, so some of the
  // bulk words fault and some translations are shot down mid-transfer.
  sys.kernel.SpawnThread(space, 2, "disturber", [&] {
    sys.machine.scheduler().Sleep(10 * kMillisecond);
    arr.Set(static_cast<size_t>(wpp) + 5, 0xdead);
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

TEST(CoherentMemoryRange, BlockAccessMatchesWordByWordExactly) {
  RangeScenarioResult words = RunRangeScenario(/*use_range=*/false);
  RangeScenarioResult range = RunRangeScenario(/*use_range=*/true);

  EXPECT_EQ(words.read_back, range.read_back);
  EXPECT_EQ(words.atc_hits, range.atc_hits);
  EXPECT_EQ(words.atc_misses, range.atc_misses);
  EXPECT_EQ(words.faults, range.faults);
  EXPECT_EQ(words.replications, range.replications);
  EXPECT_EQ(words.mappings_invalidated, range.mappings_invalidated);
  EXPECT_EQ(words.total_references, range.total_references);
  EXPECT_EQ(words.final_time, range.final_time);
  EXPECT_GT(words.faults, 0u);

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

}  // namespace
}  // namespace platinum
