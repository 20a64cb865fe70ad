// Observation hook for the coherent-memory access path.
//
// The simulator sees every charged access to coherent memory, which lets a
// checker (src/check) do what the paper's authors could only infer from
// counters: prove that a run has no unsynchronized conflicting accesses.
// CoherentMemory reports each resolved word access through this interface,
// after fault handling and immediately before the memory reference itself is
// performed. The race detector (src/check/race_detector.h) is its only
// consumer; the page forensics read their per-copy counts from the
// page-event stream instead (page_event.h), so no virtual call per access is
// spent on them.
#ifndef SRC_MEM_ACCESS_OBSERVER_H_
#define SRC_MEM_ACCESS_OBSERVER_H_

#include <cstdint>

#include "src/sim/time.h"

namespace platinum::mem {

// Sentinel fiber id for code running outside any fiber (host context).
inline constexpr uint32_t kNoFiber = 0xffffffffu;

// One word access, keyed the way the race detector keys words: by address
// space, virtual page and word within the page.
struct MemoryAccess {
  uint32_t as_id = 0;
  uint32_t vpn = 0;
  uint32_t word_offset = 0;  // word index within the page
  bool is_write = false;
  uint32_t fiber = kNoFiber;  // simulator fiber id of the accessor
  int processor = -1;
  sim::SimTime time = 0;  // virtual time of the access
};

class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void OnMemoryAccess(const MemoryAccess& access) = 0;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_ACCESS_OBSERVER_H_
