// Unit tests for memory modules and their inverted page tables.
#include "src/sim/memory_module.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/params.h"
#include "tests/test_util.h"

namespace platinum::sim {
namespace {

MachineParams SmallParams() {
  MachineParams params = ButterflyPlusParams(2);
  params.frames_per_module = 16;
  return params;
}

// Storage for one module's frames, owned by the test as sim::Machine owns its
// modules' frames.
std::vector<uint8_t> FramesFor(const MachineParams& params) {
  return std::vector<uint8_t>(size_t{params.frames_per_module} * params.page_size_bytes);
}

TEST(MemoryModuleTest, AllocFindFree) {
  std::vector<uint8_t> storage = FramesFor(SmallParams());
  MemoryModule module(0, SmallParams(), storage.data());
  auto alloc = module.AllocFrame(42);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(module.free_frames(), 15u);

  auto found = module.FindFrame(42);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->frame, alloc->frame);

  module.FreeFrame(alloc->frame);
  EXPECT_EQ(module.free_frames(), 16u);
  EXPECT_FALSE(module.FindFrame(42).has_value());
}

TEST(MemoryModuleTest, FindSkipsTombstones) {
  std::vector<uint8_t> storage = FramesFor(SmallParams());
  MemoryModule module(0, SmallParams(), storage.data());
  // Fill several entries, free some in the middle, and make sure the
  // survivors are still found despite tombstones in their probe chains.
  std::vector<uint32_t> frames;
  for (uint32_t cpage = 0; cpage < 12; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    frames.push_back(alloc->frame);
  }
  for (uint32_t cpage = 0; cpage < 12; cpage += 2) {
    module.FreeFrame(frames[cpage]);
  }
  for (uint32_t cpage = 1; cpage < 12; cpage += 2) {
    auto found = module.FindFrame(cpage);
    ASSERT_TRUE(found.has_value()) << "cpage " << cpage;
    EXPECT_EQ(found->frame, frames[cpage]);
  }
}

TEST(MemoryModuleTest, ExhaustionReturnsNullopt) {
  std::vector<uint8_t> storage = FramesFor(SmallParams());
  MemoryModule module(0, SmallParams(), storage.data());
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    ASSERT_TRUE(module.AllocFrame(cpage).has_value());
  }
  EXPECT_EQ(module.free_frames(), 0u);
  EXPECT_FALSE(module.AllocFrame(100).has_value());
  // Freeing one makes allocation possible again.
  auto found = module.FindFrame(3);
  ASSERT_TRUE(found.has_value());
  module.FreeFrame(found->frame);
  EXPECT_TRUE(module.AllocFrame(100).has_value());
}

TEST(MemoryModuleTest, FramesAreDistinct) {
  std::vector<uint8_t> storage = FramesFor(SmallParams());
  MemoryModule module(0, SmallParams(), storage.data());
  std::set<uint32_t> frames;
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_TRUE(frames.insert(alloc->frame).second) << "duplicate frame " << alloc->frame;
  }
}

TEST(MemoryModuleTest, DataStorageIsPerFrame) {
  MachineParams params = SmallParams();
  std::vector<uint8_t> storage = FramesFor(params);
  MemoryModule module(0, params, storage.data());
  auto a = module.AllocFrame(1);
  auto b = module.AllocFrame(2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  module.FrameData(a->frame)[0] = 0xAB;
  module.FrameData(b->frame)[0] = 0xCD;
  EXPECT_EQ(module.FrameData(a->frame)[0], 0xAB);
  EXPECT_EQ(module.FrameData(b->frame)[0], 0xCD);
}

TEST(MemoryModuleTest, ProbeCountsReflectCollisions) {
  std::vector<uint8_t> storage = FramesFor(SmallParams());
  MemoryModule module(0, SmallParams(), storage.data());
  // Whatever the hash values, the first allocation probes at least one slot
  // and never more than the table size.
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_GE(alloc->probes, 1u);
    EXPECT_LE(alloc->probes, 16u);
  }
}

// A machine's fresh frames must read as zero: raw regions (src/baseline) hand
// them out without a fill.
TEST(MemoryModuleTest, FreshFramesReadZero) {
  const MachineParams params = ButterflyPlusParams(2);
  Machine machine(params);
  for (int node = 0; node < machine.num_nodes(); ++node) {
    const MemoryModule& module = machine.module(node);
    for (uint32_t frame = 0; frame < module.num_frames(); ++frame) {
      const uint8_t* data = module.FrameData(frame);
      ASSERT_TRUE(std::all_of(data, data + params.page_size_bytes,
                              [](uint8_t byte) { return byte == 0; }))
          << "node " << node << " frame " << frame;
    }
  }
}

// Frames take host memory only once touched, so a 64-node machine (256 MB
// of simulated memory) costs next to nothing to build.
TEST(MemoryModuleTest, BuildingAMachineTouchesNoFrames) {
  const long before = test::ResidentKb();
  ASSERT_GT(before, 0);
  Machine machine(ButterflyPlusParams(64));
  const long added = test::ResidentKb() - before;
  EXPECT_LT(added, 16 * 1024) << "building a 64-node machine made " << added
                              << " kB resident";
}

TEST(MemoryModuleDeathTest, UnmappableFramesAbortWithSizeAndReason) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineParams params = ButterflyPlusParams(2);
  params.frames_per_module = 1u << 16;
  params.page_size_bytes = 1u << 31;  // 2^48 bytes: more than a process can address
  EXPECT_DEATH({ Machine machine(params); },
               "cannot map 281474976710656 bytes: " + std::string(std::strerror(ENOMEM)));
}

// The machine maps all nodes' frames at once, so their total size must not
// wrap around a size_t: here it would wrap to an 8 GB mapping.
TEST(MemoryModuleDeathTest, FramesPastTheAddressSpaceAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineParams params = ButterflyPlusParams(64);
  params.frames_per_module = (1u << 31) + 1;
  params.page_size_bytes = 1u << 27;
  EXPECT_DEATH({ Machine machine(params); },
               "the frames of 64 nodes exceed the host address space");
}

}  // namespace
}  // namespace platinum::sim
