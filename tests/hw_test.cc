// Unit tests for the MMU layer: Pmap and ATC.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

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
  std::array<PmapEntry, 8> entries{};
  Pmap pmap(entries);
  EXPECT_EQ(pmap.entry(3).rights, Rights::kNone);
  pmap.Enter(3, /*module=*/1, /*frame=*/7, Rights::kRead);
  EXPECT_EQ(pmap.entry(3).module, 1);
  EXPECT_EQ(pmap.entry(3).frame, 7u);
  EXPECT_EQ(pmap.entry(3).rights, Rights::kRead);
  pmap.Remove(3);
  EXPECT_EQ(pmap.entry(3).rights, Rights::kNone);
}

TEST(PmapTest, RemoveIsIdempotent) {
  std::array<PmapEntry, 4> entries{};
  Pmap pmap(entries);
  pmap.Remove(2);
  EXPECT_EQ(pmap.entry(2).rights, Rights::kNone);
}

TEST(PmapTest, RestrictDowngradesRights) {
  std::array<PmapEntry, 4> entries{};
  Pmap pmap(entries);
  pmap.Enter(0, 0, 0, Rights::kReadWrite);
  pmap.RestrictToRead(0);
  EXPECT_EQ(pmap.entry(0).rights, Rights::kRead);
  // A read translation stays read-only, and no translation stays none.
  pmap.RestrictToRead(0);
  EXPECT_EQ(pmap.entry(0).rights, Rights::kRead);
  pmap.RestrictToRead(1);
  EXPECT_EQ(pmap.entry(1).rights, Rights::kNone);
}

TEST(PmapTest, EnterReplacesTranslation) {
  std::array<PmapEntry, 4> entries{};
  Pmap pmap(entries);
  pmap.Enter(1, 0, 5, Rights::kRead);
  pmap.Enter(1, 2, 9, Rights::kReadWrite);
  EXPECT_EQ(pmap.entry(1).module, 2);
  EXPECT_EQ(pmap.entry(1).frame, 9u);
  EXPECT_EQ(pmap.entry(1).rights, Rights::kReadWrite);
}

// Zero bytes, which an untouched page of a Cmap's mapping holds, are "no
// translation", and taking a translation away writes zero fields back.
// PmapEntry has a padding byte, so the test reads entries from zero bytes it
// wrote itself, never from the bytes of a PmapEntry{} temporary.
TEST(PmapTest, NoTranslationIsAllZeroBytes) {
  alignas(PmapEntry) std::array<std::byte, 4 * sizeof(PmapEntry)> zeroed{};
  Pmap pmap(std::span(reinterpret_cast<PmapEntry*>(zeroed.data()), 4));
  const PmapEntry& untouched = pmap.entry(3);
  EXPECT_EQ(untouched.rights, Rights::kNone);
  EXPECT_EQ(untouched.frame, 0u);
  EXPECT_EQ(untouched.module, 0);
  pmap.Enter(1, /*module=*/2, /*frame=*/9, Rights::kReadWrite);
  pmap.Remove(1);
  EXPECT_EQ(pmap.entry(1).rights, Rights::kNone);
  EXPECT_EQ(pmap.entry(1).frame, 0u);
  EXPECT_EQ(pmap.entry(1).module, 0);
}

TEST(AtcTest, FillLookupFlush) {
  Atc atc(64);
  EXPECT_EQ(atc.Lookup(0, 10), nullptr);
  PmapEntry entry{.frame = 3, .module = 1, .rights = Rights::kRead};
  atc.Fill(0, 10, entry);
  const PmapEntry* hit = atc.Lookup(0, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->frame, 3u);
  atc.FlushPage(0, 10);
  EXPECT_EQ(atc.Lookup(0, 10), nullptr);
}

TEST(AtcTest, TagsIncludeAddressSpace) {
  Atc atc(64);
  PmapEntry entry{.frame = 3, .module = 1, .rights = Rights::kRead};
  atc.Fill(/*as_id=*/0, 10, entry);
  EXPECT_EQ(atc.Lookup(/*as_id=*/1, 10), nullptr);
}

TEST(AtcTest, DirectMappedConflictEvicts) {
  Atc atc(64);
  PmapEntry a{.frame = 1, .module = 0, .rights = Rights::kRead};
  PmapEntry b{.frame = 2, .module = 0, .rights = Rights::kRead};
  atc.Fill(0, 5, a);
  atc.Fill(0, 5 + 64, b);  // same slot
  EXPECT_EQ(atc.Lookup(0, 5), nullptr);
  ASSERT_NE(atc.Lookup(0, 5 + 64), nullptr);
}

}  // namespace
}  // namespace platinum::hw
