#include "src/sim/memory_module.h"

#include "src/base/check.h"

namespace platinum::sim {

MemoryModule::MemoryModule(int node, const MachineParams& params, uint8_t* frames)
    : node_(node),
      num_frames_(params.frames_per_module),
      page_size_(params.page_size_bytes),
      slot_state_(num_frames_, SlotState::kFree),
      slot_cpage_(num_frames_, kInvalidCpage),
      frames_(frames),
      free_frames_(num_frames_) {}

uint32_t MemoryModule::Hash(uint32_t cpage_index) const {
  // splitmix-style scramble; the paper only requires a hash of the Cpage
  // index that spreads entries across the table.
  uint64_t x = cpage_index;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_frames_);
}

std::optional<MemoryModule::ProbeResult> MemoryModule::AllocFrame(uint32_t cpage_index) {
  PLAT_CHECK_NE(cpage_index, kInvalidCpage);
  table_lock_.Acquire();
  std::optional<ProbeResult> result = AllocFrameLocked(cpage_index);
  table_lock_.Release();
  return result;
}

std::optional<MemoryModule::ProbeResult> MemoryModule::AllocFrameLocked(uint32_t cpage_index) {
  if (free_frames_ == 0) {
    return std::nullopt;
  }
  uint32_t slot = Hash(cpage_index);
  for (uint32_t probes = 1; probes <= num_frames_; ++probes) {
    if (slot_state_[slot] != SlotState::kUsed) {
      slot_state_[slot] = SlotState::kUsed;
      slot_cpage_[slot] = cpage_index;
      --free_frames_;
      return ProbeResult{slot, probes};
    }
    PLAT_DCHECK(slot_cpage_[slot] != cpage_index) << "double allocation for cpage";
    slot = (slot + 1) % num_frames_;
  }
  return std::nullopt;
}

void MemoryModule::FreeFrame(uint32_t frame) {
  PLAT_CHECK_LT(frame, num_frames_);
  table_lock_.Acquire();
  PLAT_CHECK(slot_state_[frame] == SlotState::kUsed) << "freeing unallocated frame " << frame;
  slot_state_[frame] = SlotState::kTombstone;
  slot_cpage_[frame] = kInvalidCpage;
  ++free_frames_;
  table_lock_.Release();
}

std::optional<MemoryModule::ProbeResult> MemoryModule::FindFrame(uint32_t cpage_index) const {
  table_lock_.Acquire();
  std::optional<ProbeResult> result = FindFrameLocked(cpage_index);
  table_lock_.Release();
  return result;
}

std::optional<MemoryModule::ProbeResult> MemoryModule::FindFrameLocked(
    uint32_t cpage_index) const {
  uint32_t slot = Hash(cpage_index);
  for (uint32_t probes = 1; probes <= num_frames_; ++probes) {
    switch (slot_state_[slot]) {
      case SlotState::kFree:
        return std::nullopt;
      case SlotState::kUsed:
        if (slot_cpage_[slot] == cpage_index) {
          return ProbeResult{slot, probes};
        }
        break;
      case SlotState::kTombstone:
        break;
    }
    slot = (slot + 1) % num_frames_;
  }
  return std::nullopt;
}

}  // namespace platinum::sim
