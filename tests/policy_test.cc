// Unit tests for the replication policies (Section 4.2 and the ablation
// alternatives), exercised directly against hand-built Cpage states.
#include "src/mem/policy.h"

#include <gtest/gtest.h>

#include "src/mem/cpage.h"

namespace platinum::mem {
namespace {

using sim::kMillisecond;

constexpr sim::SimTime kT1 = 10 * kMillisecond;

// ShouldCache's `is_write` argument.
bool ReadFault() { return false; }
bool WriteFault() { return true; }

TEST(TimestampPolicyTest, CachesWhenNeverInvalidated) {
  TimestampPolicy policy(kT1);
  Cpage page(0, 0);
  EXPECT_TRUE(policy.ShouldCache(page, ReadFault(), 0));
  EXPECT_TRUE(policy.ShouldCache(page, WriteFault(), 100 * kMillisecond));
}

TEST(TimestampPolicyTest, DeclinesWithinT1OfInvalidation) {
  TimestampPolicy policy(kT1);
  Cpage page(0, 0);
  page.RecordInvalidation(50 * kMillisecond);
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 55 * kMillisecond));
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 59 * kMillisecond));
  EXPECT_TRUE(policy.ShouldCache(page, ReadFault(), 60 * kMillisecond));
  EXPECT_TRUE(policy.ShouldCache(page, ReadFault(), 500 * kMillisecond));
}

TEST(TimestampPolicyTest, ClockSkewBeforeInvalidationCountsAsHot) {
  TimestampPolicy policy(kT1);
  Cpage page(0, 0);
  page.RecordInvalidation(50 * kMillisecond);
  // A fault whose (skewed) clock is slightly behind the recorded
  // invalidation must not underflow into "quiescent".
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 49 * kMillisecond));
}

TEST(TimestampPolicyTest, FrozenPageStaysFrozenByDefault) {
  TimestampPolicy policy(kT1);
  Cpage page(0, 0);
  page.RecordInvalidation(0);
  page.SetFrozen(true);
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 1000 * kMillisecond));
  EXPECT_TRUE(policy.FreezeOnDecline());
}

TEST(TimestampPolicyTest, ThawOnAccessVariantThawsAfterT1) {
  TimestampPolicy policy(kT1, /*thaw_on_access=*/true);
  Cpage page(0, 0);
  page.RecordInvalidation(0);
  page.SetFrozen(true);
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 5 * kMillisecond));
  EXPECT_TRUE(policy.ShouldCache(page, ReadFault(), 15 * kMillisecond));
}

TEST(AlwaysCachePolicyTest, AlwaysCachesAndNeverFreezes) {
  AlwaysCachePolicy policy;
  Cpage page(0, 0);
  page.RecordInvalidation(50 * kMillisecond);
  EXPECT_TRUE(policy.ShouldCache(page, WriteFault(), 51 * kMillisecond));
  EXPECT_FALSE(policy.FreezeOnDecline());
}

TEST(NeverCachePolicyTest, OnlyFillsEmptyPages) {
  NeverCachePolicy policy;
  Cpage page(0, 0);
  EXPECT_TRUE(policy.ShouldCache(page, WriteFault(), 0));  // empty: must fill
  page.AddCopy(PhysicalCopy{0, 0});
  page.SetState(CpageState::kPresent1);
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 1000 * kMillisecond));
  EXPECT_FALSE(policy.FreezeOnDecline());
}

TEST(MigrateThenFreezePolicyTest, ReadOnlyPagesReplicateFreely) {
  MigrateThenFreezePolicy policy(2);
  Cpage page(0, 0);
  page.AddCopy(PhysicalCopy{0, 0});
  page.SetState(CpageState::kPresent1);
  page.stats().replications = 100;  // read-only pages never stop replicating
  EXPECT_TRUE(policy.ShouldCache(page, ReadFault(), 0));
}

TEST(MigrateThenFreezePolicyTest, WrittenPagesMoveABoundedNumberOfTimes) {
  MigrateThenFreezePolicy policy(2);
  Cpage page(0, 0);
  page.AddCopy(PhysicalCopy{0, 0});
  page.SetState(CpageState::kPresent1);
  page.stats().write_faults = 1;
  page.stats().migrations = 0;
  EXPECT_TRUE(policy.ShouldCache(page, WriteFault(), 0));
  page.stats().migrations = 2;
  EXPECT_FALSE(policy.ShouldCache(page, WriteFault(), 0));
  // Once frozen, frozen for good.
  page.SetFrozen(true);
  page.stats().migrations = 0;
  EXPECT_FALSE(policy.ShouldCache(page, ReadFault(), 0));
}

}  // namespace
}  // namespace platinum::mem
