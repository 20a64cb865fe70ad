// Unit tests for the MMU layer: Pmap and ATC.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "src/hw/atc.h"
#include "src/hw/pmap.h"
#include "src/hw/rights.h"

namespace platinum::hw {
namespace {

TEST(RightsTest, AllowsMatrix) {
  EXPECT_TRUE(Allows(Rights::kRead, Rights::kRead));
  EXPECT_FALSE(Allows(Rights::kRead, Rights::kReadWrite));
  EXPECT_TRUE(Allows(Rights::kReadWrite, Rights::kRead));
  EXPECT_TRUE(Allows(Rights::kReadWrite, Rights::kReadWrite));
  EXPECT_FALSE(Allows(Rights::kNone, Rights::kRead));
}

TEST(PmapTest, EnterAndRemove) {
  Pmap pmap(8);
  EXPECT_FALSE(pmap.entry(3).valid);
  pmap.Enter(3, /*module=*/1, /*frame=*/7, Rights::kRead);
  EXPECT_TRUE(pmap.entry(3).valid);
  EXPECT_EQ(pmap.entry(3).module, 1);
  EXPECT_EQ(pmap.entry(3).frame, 7u);
  EXPECT_EQ(pmap.entry(3).rights, Rights::kRead);
  pmap.Remove(3);
  EXPECT_FALSE(pmap.entry(3).valid);
}

TEST(PmapTest, RemoveIsIdempotent) {
  Pmap pmap(4);
  pmap.Remove(2);
  EXPECT_FALSE(pmap.entry(2).valid);
}

TEST(PmapTest, RestrictDowngradesRights) {
  Pmap pmap(4);
  pmap.Enter(0, 0, 0, Rights::kReadWrite);
  pmap.Restrict(0, Rights::kRead);
  EXPECT_TRUE(pmap.entry(0).valid);
  EXPECT_EQ(pmap.entry(0).rights, Rights::kRead);
  // Restricting to none removes the entry entirely.
  pmap.Restrict(0, Rights::kNone);
  EXPECT_FALSE(pmap.entry(0).valid);
}

TEST(PmapTest, EnterReplacesTranslation) {
  Pmap pmap(4);
  pmap.Enter(1, 0, 5, Rights::kRead);
  pmap.Enter(1, 2, 9, Rights::kReadWrite);
  EXPECT_EQ(pmap.entry(1).module, 2);
  EXPECT_EQ(pmap.entry(1).frame, 9u);
  EXPECT_EQ(pmap.entry(1).rights, Rights::kReadWrite);
}

std::array<uint8_t, sizeof(PmapEntry)> BytesOf(const PmapEntry& entry) {
  std::array<uint8_t, sizeof(PmapEntry)> bytes;
  std::memcpy(bytes.data(), &entry, sizeof(PmapEntry));
  return bytes;
}

// All zero bytes is the one "no translation" value: an untouched entry holds
// it, and taking a translation away writes it back.
TEST(PmapTest, NoTranslationIsAllZeroBytes) {
  EXPECT_EQ(BytesOf(PmapEntry{}), (std::array<uint8_t, sizeof(PmapEntry)>{}));
  Pmap pmap(4);
  const PmapEntry& untouched = pmap.entry(3);
  EXPECT_EQ(BytesOf(untouched), BytesOf(PmapEntry{}));
  pmap.Enter(1, /*module=*/2, /*frame=*/9, Rights::kReadWrite);
  pmap.Remove(1);
  EXPECT_EQ(BytesOf(pmap.entry(1)), BytesOf(untouched));
  pmap.Enter(2, /*module=*/2, /*frame=*/9, Rights::kRead);
  pmap.Restrict(2, Rights::kNone);
  EXPECT_EQ(BytesOf(pmap.entry(2)), BytesOf(untouched));
}

TEST(AtcTest, FillLookupFlush) {
  Atc atc(64);
  EXPECT_EQ(atc.Lookup(0, 10), nullptr);
  PmapEntry entry{.frame = 3, .module = 1, .rights = Rights::kRead, .valid = true};
  atc.Fill(0, 10, entry);
  const PmapEntry* hit = atc.Lookup(0, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->frame, 3u);
  atc.FlushPage(0, 10);
  EXPECT_EQ(atc.Lookup(0, 10), nullptr);
}

TEST(AtcTest, TagsIncludeAddressSpace) {
  Atc atc(64);
  PmapEntry entry{.frame = 3, .module = 1, .rights = Rights::kRead, .valid = true};
  atc.Fill(/*as_id=*/0, 10, entry);
  EXPECT_EQ(atc.Lookup(/*as_id=*/1, 10), nullptr);
}

TEST(AtcTest, DirectMappedConflictEvicts) {
  Atc atc(64);
  PmapEntry a{.frame = 1, .module = 0, .rights = Rights::kRead, .valid = true};
  PmapEntry b{.frame = 2, .module = 0, .rights = Rights::kRead, .valid = true};
  atc.Fill(0, 5, a);
  atc.Fill(0, 5 + 64, b);  // same slot
  EXPECT_EQ(atc.Lookup(0, 5), nullptr);
  ASSERT_NE(atc.Lookup(0, 5 + 64), nullptr);
}

}  // namespace
}  // namespace platinum::hw
