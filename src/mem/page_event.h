// Streaming consumer interface for coherent-memory protocol events.
//
// A PageEventSink observes the same transition stream the bounded TraceLog
// records — faults, fills, replications, migrations, remote maps, freezes,
// thaws, shootdowns, defrost scans, pins, unbinds, page frees — but as a
// live callback with no ring-buffer bound. Binding is setup, not a protocol
// transition, so it is not reported. A sink never sees a word access: the
// producer counts them at their source instead, in the sink's accesses()
// and in a per-frame read count that each kPageFree event carries as
// `reads` (trace.h). The forensics layer in src/obs/page_trace.h is the
// canonical consumer.
//
// Producer cost: with no sink attached, one pointer test per protocol
// transition (CoherentMemory::Trace) and one per word access. With a sink
// attached, a word access adds two counter increments (one for a write),
// and no call.
#ifndef SRC_MEM_PAGE_EVENT_H_
#define SRC_MEM_PAGE_EVENT_H_

#include <cstdint>

#include "src/base/thread_annotations.h"
#include "src/mem/trace.h"

namespace platinum::mem {

class PageEventSink {
 public:
  virtual ~PageEventSink() = default;

  // One protocol transition, with the same payload the TraceLog would
  // record. `event.cpage` is kTraceNoCpage for machine-wide events (defrost
  // scans); `event.processor` is -1 outside any fiber. Must not yield: the
  // callback runs inside the fault handler's critical section.
  virtual void OnPageEvent(const TraceEvent& event) = 0;

  // Word accesses performed while this sink was attached. CoherentMemory's
  // access path counts them; the sink is not called.
  uint64_t accesses() const { return accesses_; }
  void CountAccess() { ++accesses_; }

 private:
  uint64_t accesses_ PLATINUM_FIBER_SHARED = 0;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_PAGE_EVENT_H_
