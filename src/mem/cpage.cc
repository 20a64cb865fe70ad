#include "src/mem/cpage.h"

#include <algorithm>

#include "src/base/check.h"

namespace platinum::mem {

const char* CpageStateName(CpageState state) {
  switch (state) {
    case CpageState::kEmpty:
      return "empty";
    case CpageState::kPresent1:
      return "present1";
    case CpageState::kPresentPlus:
      return "present+";
    case CpageState::kModified:
      return "modified";
  }
  return "?";
}

std::optional<PhysicalCopy> Cpage::FindCopy(int module) const {
  if (!HasCopyOn(module)) {
    return std::nullopt;
  }
  for (const PhysicalCopy& copy : copies_) {
    if (copy.module == module) {
      return copy;
    }
  }
  PLAT_CHECK(false) << "directory mask/list mismatch for cpage " << id_;
  return std::nullopt;  // unreachable
}

const PhysicalCopy& Cpage::PrimaryCopy() const {
  PLAT_CHECK(!copies_.empty()) << "cpage " << id_ << " has no physical copy";
  return copies_.front();
}

void Cpage::AddCopy(PhysicalCopy copy) {
  PLAT_CHECK_GE(copy.module, 0);
  PLAT_CHECK(!HasCopyOn(copy.module))
      << "cpage " << id_ << " already has a copy on module " << copy.module;
  module_mask_ |= uint64_t{1} << copy.module;
  copies_.push_back(copy);
}

PhysicalCopy Cpage::RemoveCopy(int module) {
  PLAT_CHECK(HasCopyOn(module)) << "cpage " << id_ << " has no copy on module " << module;
  module_mask_ &= ~(uint64_t{1} << module);
  auto it = std::find_if(copies_.begin(), copies_.end(),
                         [module](const PhysicalCopy& c) { return c.module == module; });
  PLAT_CHECK(it != copies_.end());
  PhysicalCopy removed = *it;
  copies_.erase(it);
  return removed;
}

void Cpage::DropWriteMapping() {
  PLAT_CHECK_GT(write_mappings_, 0u) << "write-mapping underflow on cpage " << id_;
  --write_mappings_;
}

void Cpage::RemoveMapper(uint32_t as_id, uint32_t vpn) {
  auto it = std::find_if(mappers_.begin(), mappers_.end(), [&](const CpageMapper& m) {
    return m.as_id == as_id && m.vpn == vpn;
  });
  PLAT_CHECK(it != mappers_.end()) << "unbinding unknown mapper of cpage " << id_;
  mappers_.erase(it);
}

void Cpage::CheckInvariants() const {
  // Directory mask and copy list agree.
  uint64_t mask = 0;
  for (const PhysicalCopy& copy : copies_) {
    PLAT_CHECK_GE(copy.module, 0);
    PLAT_CHECK((mask >> copy.module & 1) == 0) << "duplicate copy on module " << copy.module;
    mask |= uint64_t{1} << copy.module;
  }
  PLAT_CHECK_EQ(mask, module_mask_) << "directory mask mismatch for cpage " << id_;

  switch (state_) {
    case CpageState::kEmpty:
      PLAT_CHECK_EQ(copies_.size(), 0u);
      PLAT_CHECK_EQ(write_mappings_, 0u);
      break;
    case CpageState::kPresent1:
      PLAT_CHECK_EQ(copies_.size(), 1u);
      PLAT_CHECK_EQ(write_mappings_, 0u);
      break;
    case CpageState::kPresentPlus:
      PLAT_CHECK_GE(copies_.size(), 2u);
      PLAT_CHECK_EQ(write_mappings_, 0u);
      break;
    case CpageState::kModified:
      PLAT_CHECK_EQ(copies_.size(), 1u);
      PLAT_CHECK_GT(write_mappings_, 0u);
      break;
  }
  if (frozen_) {
    PLAT_CHECK_LE(copies_.size(), 1u) << "frozen cpage " << id_ << " must have a single copy";
  }
}

uint32_t CpageTable::Create(int home_module) {
  uint32_t id = static_cast<uint32_t>(pages_.size());
  int16_t home = home_module >= 0 ? static_cast<int16_t>(home_module)
                                  : static_cast<int16_t>(id % num_modules_);
  PLAT_CHECK_LT(home, num_modules_);
  pages_.emplace_back(id, home);
  return id;
}

Cpage& CpageTable::at(uint32_t id) {
  PLAT_CHECK_LT(id, pages_.size());
  return pages_[id];
}

const Cpage& CpageTable::at(uint32_t id) const {
  PLAT_CHECK_LT(id, pages_.size());
  return pages_[id];
}

void CpageTable::CheckAllInvariants() const {
  for (const Cpage& page : pages_) {
    page.CheckInvariants();
  }
}

}  // namespace platinum::mem
