// Unit tests for the virtual memory layer: memory objects and address-space
// bindings.
#include <gtest/gtest.h>

#include "src/vm/address_space.h"
#include "src/vm/memory_object.h"
#include "tests/test_util.h"

namespace platinum::vm {
namespace {

TEST(MemoryObjectTest, CpageAssignment) {
  MemoryObject object(7, "obj", 3);
  EXPECT_EQ(object.id(), 7u);
  EXPECT_EQ(object.name(), "obj");
  EXPECT_EQ(object.num_pages(), 3u);
  object.set_cpage(0, 100);
  object.set_cpage(2, 102);
  EXPECT_EQ(object.cpage(0), 100u);
  EXPECT_EQ(object.cpage(2), 102u);
}

TEST(MemoryObjectDeathTest, DoubleAssignmentAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemoryObject object(0, "obj", 1);
  object.set_cpage(0, 1);
  EXPECT_DEATH(object.set_cpage(0, 2), "already");
}

TEST(AddressSpaceTest, FindBinding) {
  MemoryObject object(0, "obj", 8);
  AddressSpace space(0, "space", 64);
  space.AddBinding(Binding{&object, 0, 4, 10, hw::Rights::kReadWrite});
  space.AddBinding(Binding{&object, 4, 4, 30, hw::Rights::kRead});

  EXPECT_EQ(space.FindBinding(9), nullptr);
  const Binding* first = space.FindBinding(10);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rights, hw::Rights::kReadWrite);
  EXPECT_EQ(space.FindBinding(13), first);
  EXPECT_EQ(space.FindBinding(14), nullptr);
  const Binding* second = space.FindBinding(33);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->object_page, 4u);
}

TEST(AddressSpaceDeathTest, OverlappingBindingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemoryObject object(0, "obj", 8);
  AddressSpace space(0, "space", 64);
  space.AddBinding(Binding{&object, 0, 4, 10, hw::Rights::kRead});
  EXPECT_DEATH(space.AddBinding(Binding{&object, 4, 4, 12, hw::Rights::kRead}), "overlap");
}

TEST(AddressSpaceDeathTest, OutOfRangeBindingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemoryObject object(0, "obj", 8);
  AddressSpace space(0, "space", 16);
  EXPECT_DEATH(space.AddBinding(Binding{&object, 0, 8, 12, hw::Rights::kRead}), "");
  EXPECT_DEATH(space.AddBinding(Binding{&object, 6, 4, 0, hw::Rights::kRead}), "");
}

// Integration: the same object mapped at different addresses and rights in
// two spaces (the paper: "neither the virtual address range nor the access
// rights need be the same in every address space").
TEST(VmIntegrationTest, ObjectMappedDifferentlyPerSpace) {
  test::TestSystem sys(2);
  auto* object = sys.kernel.CreateMemoryObject("shared", 2);
  auto* space_a = sys.kernel.CreateAddressSpace("a");
  auto* space_b = sys.kernel.CreateAddressSpace("b");
  sys.kernel.Map(space_a, object, 0, 2, 100, hw::Rights::kReadWrite);
  sys.kernel.Map(space_b, object, 0, 2, 500, hw::Rights::kRead);

  uint32_t va_a = 100 * sys.kernel.page_size();
  uint32_t va_b = 500 * sys.kernel.page_size();
  sys.kernel.SpawnThread(space_a, 0, "w", [&] { sys.kernel.WriteWord(space_a, va_a, 5); });
  sys.kernel.SpawnThread(space_b, 1, "r", [&] {
    sys.machine.scheduler().Sleep(2 * sim::kMillisecond);
    EXPECT_EQ(sys.kernel.ReadWord(space_b, va_b), 5u);
    // space_b's mapping is read-only: a write access must be refused.
    auto result = sys.kernel.memory().Access(space_b->id(), 500, 0, sim::AccessKind::kWrite, 9);
    EXPECT_EQ(result.outcome, mem::AccessOutcome::kProtection);
  });
  sys.kernel.Run();
  sys.kernel.memory().CheckInvariants();
}

// Partial-object mappings compose correctly.
TEST(VmIntegrationTest, PartialObjectMapping) {
  test::TestSystem sys(2);
  auto* object = sys.kernel.CreateMemoryObject("big", 8);
  auto* space = sys.kernel.CreateAddressSpace("s");
  // Map object pages [2,5) at vpn 40.
  sys.kernel.Map(space, object, 2, 3, 40, hw::Rights::kReadWrite);
  test::RunInThread(sys.kernel, space, 0, [&] {
    sys.kernel.WriteWord(space, 40 * sys.kernel.page_size(), 11);
  });
  // The write landed on object page 2's coherent page.
  const mem::Cpage& page = sys.kernel.memory().cpages().at(object->cpage(2));
  EXPECT_EQ(page.state(), mem::CpageState::kModified);
  EXPECT_EQ(sys.kernel.memory().cpages().at(object->cpage(0)).state(),
            mem::CpageState::kEmpty);
}

// Unmapping removes the binding, so another object can be mapped at the same
// pages and used.
TEST(VmIntegrationTest, UnmappedRangeCanBeMappedAgain) {
  test::TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("s");
  auto* first = sys.kernel.CreateMemoryObject("first", 2);
  auto* second = sys.kernel.CreateMemoryObject("second", 2);
  sys.kernel.Map(space, first, 0, 2, 100, hw::Rights::kReadWrite);
  sys.kernel.Unmap(space, 100, 2);
  EXPECT_EQ(space->FindBinding(100), nullptr);
  sys.kernel.Map(space, second, 0, 2, 100, hw::Rights::kReadWrite);
  test::RunInThread(sys.kernel, space, 0, [&] {
    sys.kernel.WriteWord(space, 101 * sys.kernel.page_size(), 7);
    EXPECT_EQ(sys.kernel.ReadWord(space, 101 * sys.kernel.page_size()), 7u);
  });
  ASSERT_NE(space->FindBinding(101), nullptr);
  EXPECT_EQ(space->FindBinding(101)->object, second);
  const mem::CpageTable& cpages = sys.kernel.memory().cpages();
  EXPECT_EQ(cpages.at(second->cpage(1)).state(), mem::CpageState::kModified);
  EXPECT_EQ(cpages.at(first->cpage(1)).state(), mem::CpageState::kEmpty);
}

TEST(VmIntegrationDeathTest, UnmappingPartOfABindingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  test::TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("s");
  auto* object = sys.kernel.CreateMemoryObject("obj", 2);
  sys.kernel.Map(space, object, 0, 2, 100, hw::Rights::kReadWrite);
  EXPECT_DEATH(sys.kernel.Unmap(space, 100, 1),
               "no binding spans exactly vpns \\[100, 101\\) in space s");
}

}  // namespace
}  // namespace platinum::vm
