#include "src/mem/cmap.h"

#include "src/base/check.h"

namespace platinum::mem {

Cmap::Cmap(uint32_t as_id, uint32_t num_pages)
    : as_id_(as_id), num_pages_(num_pages), entries_(num_pages) {}

hw::Pmap& Cmap::CreatePmap(int processor) {
  pmaps_[processor] = std::make_unique<hw::Pmap>(num_pages_);
  return *pmaps_[processor];
}

void Cmap::Activate(int processor) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, sim::kMaxProcessors);
  if (activation_count_[processor]++ == 0) {
    active_mask_ |= uint64_t{1} << processor;
  }
}

void Cmap::Deactivate(int processor) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, sim::kMaxProcessors);
  PLAT_CHECK_GT(activation_count_[processor], 0u);
  if (--activation_count_[processor] == 0) {
    active_mask_ &= ~(uint64_t{1} << processor);
  }
}

void Cmap::PostMessage(const CmapMessage& message) {
  if (message.target_mask == 0) {
    return;  // already applied everywhere
  }
  messages_.push_back(message);
}

int Cmap::AcknowledgeMessages(int processor) {
  int touched = 0;
  uint64_t bit = uint64_t{1} << processor;
  for (auto it = messages_.begin(); it != messages_.end();) {
    if ((it->target_mask & bit) != 0) {
      it->target_mask &= ~bit;
      ++touched;
    }
    if (it->target_mask == 0) {
      it = messages_.erase(it);
    } else {
      ++it;
    }
  }
  return touched;
}

}  // namespace platinum::mem
