// Unit tests for the Sequent-style UMA baseline machine: cache behaviour,
// write-through snooping, bus contention.
#include "src/uma/uma_machine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/uma/cache.h"
#include "tests/test_util.h"

namespace platinum::uma {
namespace {

TEST(CacheTest, FillContainsInvalidate) {
  Cache cache(8 * 1024, 16);
  EXPECT_FALSE(cache.Contains(100));
  cache.Fill(100);
  EXPECT_TRUE(cache.Contains(100));
  // Same 4-word line.
  EXPECT_TRUE(cache.Contains(101));
  EXPECT_FALSE(cache.Contains(104));
  EXPECT_TRUE(cache.Invalidate(102));
  EXPECT_FALSE(cache.Contains(100));
  EXPECT_FALSE(cache.Invalidate(100));
}

TEST(CacheTest, DirectMappedConflicts) {
  Cache cache(8 * 1024, 16);  // 512 lines of 4 words
  cache.Fill(0);
  cache.Fill(512 * 4);  // maps to the same line index
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(512 * 4));
}

class UmaMachineTest : public ::testing::Test {
 protected:
  UmaMachineTest() {
    params_.num_processors = 4;
    machine_ = std::make_unique<UmaMachine>(params_);
  }

  void RunOn(int processor, std::function<void()> body) {
    machine_->scheduler().Spawn(processor, "t", std::move(body));
    machine_->scheduler().Run();
  }

  UmaParams params_;
  std::unique_ptr<UmaMachine> machine_;
};

TEST_F(UmaMachineTest, ReadMissThenHit) {
  size_t base = machine_->AllocWords(16);
  RunOn(0, [&] {
    machine_->Write(base, 42);
    sim::SimTime t0 = machine_->scheduler().now();
    EXPECT_EQ(machine_->Read(base), 42u);  // miss (write-no-allocate)
    sim::SimTime miss = machine_->scheduler().now() - t0;
    t0 = machine_->scheduler().now();
    EXPECT_EQ(machine_->Read(base), 42u);  // hit
    sim::SimTime hit = machine_->scheduler().now() - t0;
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, params_.cache_hit_ns);
  });
  EXPECT_EQ(machine_->stats().read_misses, 1u);
  EXPECT_GE(machine_->stats().cache_hits, 1u);
}

TEST_F(UmaMachineTest, WriteInvalidatesOtherCaches) {
  size_t base = machine_->AllocWords(16);
  machine_->scheduler().Spawn(0, "reader", [&] {
    machine_->Read(base);                                 // fill own cache
    machine_->scheduler().Sleep(10 * sim::kMicrosecond);  // let the writer go
    sim::SimTime t0 = machine_->scheduler().now();
    EXPECT_EQ(machine_->Read(base), 7u);  // coherent: sees the new value
    EXPECT_GT(machine_->scheduler().now() - t0, params_.cache_hit_ns);  // re-fetch
  });
  machine_->scheduler().Spawn(1, "writer", [&] {
    machine_->scheduler().Sleep(5 * sim::kMicrosecond);
    machine_->Write(base, 7);
  });
  machine_->scheduler().Run();
  EXPECT_GE(machine_->stats().invalidations, 1u);
}

TEST_F(UmaMachineTest, FetchAddIsAtomicAndCoherent) {
  size_t base = machine_->AllocWords(1);
  for (int p = 0; p < 4; ++p) {
    machine_->scheduler().Spawn(p, "inc", [&] {
      for (int i = 0; i < 20; ++i) {
        machine_->FetchAdd(base, 1);
      }
    });
  }
  machine_->scheduler().Run();
  machine_->scheduler().Spawn(0, "check", [&] { EXPECT_EQ(machine_->Read(base), 80u); });
  machine_->scheduler().Run();
}

TEST_F(UmaMachineTest, BusContentionSerializesMisses) {
  size_t base = machine_->AllocWords(4096);
  // Two processors stream reads with no cache reuse: the second's misses
  // queue behind the first's on the shared bus.
  for (int p = 0; p < 2; ++p) {
    machine_->scheduler().Spawn(p, "stream", [&, p] {
      for (size_t i = 0; i < 256; ++i) {
        machine_->Read(base + static_cast<size_t>(p) * 2048 + i * 4);  // one miss per line
      }
    });
  }
  machine_->scheduler().Run();
  EXPECT_GT(machine_->stats().bus_wait_ns, sim::SimTime{0});
}

TEST_F(UmaMachineTest, AllocationIsExclusive) {
  size_t a = machine_->AllocWords(100);
  size_t b = machine_->AllocWords(100);
  EXPECT_GE(b, a + 100);
}

TEST(UmaArrayTest, GetSetRoundTrip) {
  UmaParams params;
  params.num_processors = 2;
  UmaMachine machine(params);
  auto array = UmaArray::Create(machine, 8);
  machine.scheduler().Spawn(0, "t", [&] {
    array.Set(3, 99);
    EXPECT_EQ(array.Get(3), 99u);
    EXPECT_EQ(array.FetchAdd(3, 1), 99u);
    EXPECT_EQ(array.Get(3), 100u);
  });
  machine.scheduler().Run();
}

// Shared memory takes host memory only once touched: eight default machines
// (16 MB of simulated memory each) cost next to nothing to build.
TEST(UmaMemoryTest, BuildingMachinesTouchesNoMemory) {
  const long before = test::ResidentKb();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<UmaMachine>> machines;
  for (int i = 0; i < 8; ++i) {
    machines.push_back(std::make_unique<UmaMachine>(UmaParams{}));
  }
  const long added = test::ResidentKb() - before;
  EXPECT_LT(added, 16 * 1024) << "building 8 UMA machines made " << added << " kB resident";
}

TEST(UmaMachineDeathTest, MemoryWhoseByteCountOverflowsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  UmaParams params;
  params.memory_words = SIZE_MAX / 2;  // times 4 bytes wraps around
  EXPECT_DEATH({ UmaMachine machine(params); }, "overflows its byte count");
}

}  // namespace
}  // namespace platinum::uma
