// The coherent map (Cmap) of one address space.
//
// A Cmap caches the composition of the virtual-memory layer's mappings
// (virtual address -> memory object -> coherent page) as a table of Cmap
// entries, keeps a *separate, private* Pmap for each processor using the
// address space (the key NUMA design decision of Section 3.1), records which
// processors currently have the space active, and carries the queue of Cmap
// messages through which shootdowns are distributed.
#ifndef SRC_MEM_CMAP_H_
#define SRC_MEM_CMAP_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/base/check.h"
#include "src/hw/pmap.h"
#include "src/hw/rights.h"
#include "src/mem/cpage.h"
#include "src/sim/params.h"

namespace platinum::mem {

// Analogous to a page table entry: coherent page, the access rights granted
// by the virtual memory system, and the reference mask of processors holding
// a virtual-to-physical translation for this page.
struct CmapEntry {
  uint32_t cpage = kInvalidCpageId;
  hw::Rights rights = hw::Rights::kNone;
  uint64_t reference_mask = 0;

  bool bound() const { return cpage != kInvalidCpageId; }
};

// Describes a change to the address space that restricts existing
// translations; each target processor must apply it before running a thread
// in the space (Section 3.1).
struct CmapMessage {
  enum class Directive : uint8_t { kInvalidate, kRestrictToRead };

  uint32_t vpn = 0;
  Directive directive = Directive::kInvalidate;
  // Processors that still have to apply the change.
  uint64_t target_mask = 0;
};

class Cmap {
 public:
  Cmap(uint32_t as_id, uint32_t num_pages);

  uint32_t as_id() const { return as_id_; }
  uint32_t num_pages() const { return num_pages_; }

  CmapEntry& entry(uint32_t vpn);
  const CmapEntry& entry(uint32_t vpn) const;

  // The processor's private Pmap for this space, created on first use.
  hw::Pmap& pmap(int processor) {
    PLAT_CHECK_GE(processor, 0);
    PLAT_CHECK_LT(processor, sim::kMaxProcessors);
    if (pmaps_[processor] == nullptr) [[unlikely]] {
      return CreatePmap(processor);
    }
    return *pmaps_[processor];
  }
  bool has_pmap(int processor) const { return pmaps_[processor] != nullptr; }

  // Activation census: a processor is "active" in the space while it runs (or
  // can immediately run) one of its threads; only active processors need an
  // IPI during a shootdown.
  uint64_t active_mask() const { return active_mask_; }
  bool IsActive(int processor) const { return (active_mask_ >> processor) & 1; }
  void Activate(int processor);
  // Drops one activation; the processor stays active while other threads of
  // this space run on it.
  void Deactivate(int processor);

  std::deque<CmapMessage>& messages() { return messages_; }
  const std::deque<CmapMessage>& messages() const { return messages_; }
  // Posts a change message; fully-applied messages (empty target mask) are
  // retired immediately.
  void PostMessage(const CmapMessage& message);
  // Clears `processor`'s bit from pending messages and retires exhausted
  // ones. Returns how many messages were touched.
  int AcknowledgeMessages(int processor);

 private:
  hw::Pmap& CreatePmap(int processor);

  const uint32_t as_id_;
  const uint32_t num_pages_;
  std::vector<CmapEntry> entries_;
  std::deque<CmapMessage> messages_;
  uint64_t active_mask_ = 0;
  std::array<uint32_t, sim::kMaxProcessors> activation_count_{};
  std::array<std::unique_ptr<hw::Pmap>, sim::kMaxProcessors> pmaps_;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_CMAP_H_
