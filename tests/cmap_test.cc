// Unit tests for the Cmap: entries, Pmaps, activation census, message queue.
#include "src/mem/cmap.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace platinum::mem {
namespace {

TEST(CmapTest, EntriesStartUnbound) {
  Cmap cmap(3, 16, 4);
  EXPECT_EQ(cmap.as_id(), 3u);
  EXPECT_EQ(cmap.num_pages(), 16u);
  for (uint32_t vpn = 0; vpn < 16; ++vpn) {
    EXPECT_FALSE(cmap.entry(vpn).bound());
    EXPECT_EQ(cmap.entry(vpn).reference_mask, 0u);
  }
}

TEST(CmapTest, PmapsArePrivate) {
  Cmap cmap(0, 8, 4);
  cmap.pmap(2).Enter(1, 0, 5, hw::Rights::kRead);
  // Another processor's Pmap is a distinct table (the key Section 3.1
  // design decision).
  EXPECT_EQ(cmap.pmap(3).entry(1).rights, hw::Rights::kNone);
  EXPECT_EQ(cmap.pmap(2).entry(1).rights, hw::Rights::kRead);
  EXPECT_FALSE(cmap.entry(1).bound()) << "a Pmap entry is not a Cmap entry";
}

TEST(CmapDeathTest, PmapOfAProcessorBeyondTheMachineAborts) {
  Cmap cmap(0, 8, 4);
  EXPECT_DEATH(cmap.pmap(4), "processor");
}

// A Cmap's entries and all its Pmaps share one mapping that the host fills
// on first touch, so building one writes none of them: a 2^18-page space
// for 64 processors (4 MB of Cmap entries, 128 MB of Pmap entries) adds
// well under 1 MB resident.
TEST(CmapTest, ConstructionTouchesNoEntries) {
  constexpr uint32_t kPages = 1u << 18;
  const long before = test::ResidentKb();
  ASSERT_GT(before, 0);
  Cmap cmap(0, kPages, sim::kMaxProcessors);
  const long added = test::ResidentKb() - before;
  EXPECT_LT(added, 1024) << "a 2^18-page Cmap made " << added << " kB resident";
  EXPECT_FALSE(cmap.entry(kPages - 1).bound());
}

// A Pmap takes host memory only for the pages of entries its processor has
// translated: 64 processors entering one translation each into a 2^18-page
// space (2 MB of entries per Pmap) make about one host page each resident.
TEST(CmapTest, PmapsHoldOnlyTheEntriesTheyTranslate) {
  constexpr uint32_t kPages = 1u << 18;
  Cmap cmap(0, kPages, sim::kMaxProcessors);
  const long before = test::ResidentKb();
  ASSERT_GT(before, 0);
  for (int p = 0; p < sim::kMaxProcessors; ++p) {
    uint32_t vpn = static_cast<uint32_t>(p) * (kPages / sim::kMaxProcessors);
    cmap.pmap(p).Enter(vpn, static_cast<int16_t>(p), 1, hw::Rights::kRead);
    EXPECT_EQ(cmap.pmap(p).entry(vpn).rights, hw::Rights::kRead);
  }
  const long added = test::ResidentKb() - before;
  EXPECT_LT(added, 16 * 1024) << "64 Pmaps of one translation each made " << added
                              << " kB resident";
}

TEST(CmapTest, ActivationCensusIsCounted) {
  Cmap cmap(0, 8, 4);
  EXPECT_FALSE(cmap.IsActive(1));
  cmap.Activate(1);
  cmap.Activate(1);  // two threads of this space on processor 1
  EXPECT_TRUE(cmap.IsActive(1));
  EXPECT_EQ(cmap.active_mask(), uint64_t{2});
  cmap.Deactivate(1);
  EXPECT_TRUE(cmap.IsActive(1)) << "still one thread left";
  cmap.Deactivate(1);
  EXPECT_FALSE(cmap.IsActive(1));
}

TEST(CmapTest, MessagesRetireWhenAllTargetsAcknowledge) {
  Cmap cmap(0, 8, 4);
  cmap.PostMessage(CmapMessage{4, CmapMessage::Directive::kInvalidate, 0b0110});
  cmap.PostMessage(CmapMessage{5, CmapMessage::Directive::kRestrictToRead, 0b0010});
  ASSERT_EQ(cmap.messages().size(), 2u);

  EXPECT_EQ(cmap.AcknowledgeMessages(1), 2);  // bit 1 set in both
  ASSERT_EQ(cmap.messages().size(), 1u);      // second message fully applied
  EXPECT_EQ(cmap.messages()[0].vpn, 4u);
  EXPECT_EQ(cmap.messages()[0].target_mask, uint64_t{0b0100});

  EXPECT_EQ(cmap.AcknowledgeMessages(2), 1);
  EXPECT_TRUE(cmap.messages().empty());
  EXPECT_EQ(cmap.AcknowledgeMessages(2), 0);  // idempotent
}

TEST(CmapTest, FullyAppliedMessagesAreNotQueued) {
  Cmap cmap(0, 8, 4);
  cmap.PostMessage(CmapMessage{4, CmapMessage::Directive::kInvalidate, 0});
  EXPECT_TRUE(cmap.messages().empty());
}

}  // namespace
}  // namespace platinum::mem
