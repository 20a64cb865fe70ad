// A physical memory module on one NUMA node.
//
// Each module owns a set of page frames with real backing storage (the
// simulator stores and moves actual data so that application results can be
// verified end-to-end), plus the *inverted page table* the paper describes in
// Section 2.3: an open-addressed table keyed by coherent-page index, so the
// fault handler can locate or allocate a local copy using only local memory
// references (Section 3.3).
//
// The backing storage is the module's slice of memory its owner provides:
// sim::Machine maps every node's frames at once (base::AnonymousMapping), so a
// frame the simulation never touched reads as zero and holds no host memory,
// and building a machine costs nothing in proportion to its simulated memory.
// A freed frame keeps its bytes until it is reused, so the coherent-memory
// fault handler zero-fills or copies every frame it takes.
#ifndef SRC_SIM_MEMORY_MODULE_H_
#define SRC_SIM_MEMORY_MODULE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "src/base/check.h"
#include "src/base/discipline_lock.h"
#include "src/base/thread_annotations.h"
#include "src/sim/params.h"
#include "src/sim/time.h"

namespace platinum::sim {

inline constexpr uint32_t kInvalidCpage = UINT32_MAX;

class MemoryModule {
 public:
  // Result of an inverted-page-table operation: the frame plus the number of
  // table slots probed (each probe is one local memory reference).
  struct ProbeResult {
    uint32_t frame = 0;
    uint32_t probes = 0;
  };

  // `frames` holds the module's frames_per_module * page_size_bytes bytes;
  // the caller owns it and keeps it for the module's lifetime.
  MemoryModule(int node, const MachineParams& params, uint8_t* frames);

  int node() const { return node_; }
  uint32_t num_frames() const { return num_frames_; }
  uint32_t free_frames() const {
    table_lock_.Acquire();
    uint32_t n = free_frames_;
    table_lock_.Release();
    return n;
  }

  // Allocates a frame for `cpage_index`, placing it near hash(cpage_index) in
  // the inverted page table. Returns nullopt when the module is full.
  std::optional<ProbeResult> AllocFrame(uint32_t cpage_index);
  // Releases `frame`; its slot becomes a tombstone so later probes still find
  // entries placed behind it.
  void FreeFrame(uint32_t frame);
  // Finds the frame backing `cpage_index`, if any.
  std::optional<ProbeResult> FindFrame(uint32_t cpage_index) const;

  // Raw backing storage of a frame (page_size bytes).
  uint8_t* FrameData(uint32_t frame) {
    PLAT_CHECK_LT(frame, num_frames_);
    return frames_ + static_cast<size_t>(frame) * page_size_;
  }
  const uint8_t* FrameData(uint32_t frame) const {
    PLAT_CHECK_LT(frame, num_frames_);
    return frames_ + static_cast<size_t>(frame) * page_size_;
  }
  // One 32-bit word of a frame's backing storage, `word` words into it.
  uint32_t ReadWord(uint32_t frame, uint32_t word) const {
    uint32_t value;
    std::memcpy(&value, FrameData(frame) + word * 4, 4);
    return value;
  }
  void WriteWord(uint32_t frame, uint32_t word, uint32_t value) {
    std::memcpy(FrameData(frame) + word * 4, &value, 4);
  }

  // Bus occupancy bookkeeping: the virtual time until which this module's bus
  // is busy. Maintained by the Interconnect.
  SimTime bus_busy_until = 0;

 private:
  enum class SlotState : uint8_t { kFree, kUsed, kTombstone };

  uint32_t Hash(uint32_t cpage_index) const;
  std::optional<ProbeResult> AllocFrameLocked(uint32_t cpage_index) REQUIRES(table_lock_);
  std::optional<ProbeResult> FindFrameLocked(uint32_t cpage_index) const
      REQUIRES(table_lock_);

  const int node_;
  const uint32_t num_frames_;
  const uint32_t page_size_;
  // The per-module lock of Section 3.3: the fault handler manipulates the
  // inverted page table and free-frame count only inside it, and must not
  // reach a scheduler switch point while holding it (the handler performs
  // strictly local references in this section). Zero-cost under fiber
  // serialization; enforced by clang -Wthread-safety and platlint.
  base::DisciplineLock table_lock_;
  std::vector<SlotState> slot_state_ GUARDED_BY(table_lock_);
  std::vector<uint32_t> slot_cpage_ GUARDED_BY(table_lock_);
  uint8_t* const frames_;
  uint32_t free_frames_ GUARDED_BY(table_lock_);
};

}  // namespace platinum::sim

#endif  // SRC_SIM_MEMORY_MODULE_H_
