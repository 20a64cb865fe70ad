// Streaming consumer interface for coherent-memory protocol events.
//
// A PageEventSink observes the same transition stream the bounded TraceLog
// records — faults, fills, replications, migrations, remote maps, freezes,
// thaws, shootdowns, defrost scans, pins, unbinds, page frees — but as a
// live callback with no ring-buffer bound. Binding is setup, not a protocol
// transition, so it is not reported; a consumer that attributes word
// accesses to coherent pages reads the page from the access record
// (access_observer.h). The forensics layer in src/obs/page_trace.h is the
// canonical consumer.
//
// Producer cost: one pointer test per protocol transition when no sink is
// attached (CoherentMemory::Trace), nothing on the per-word access path.
#ifndef SRC_MEM_PAGE_EVENT_H_
#define SRC_MEM_PAGE_EVENT_H_

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
};

}  // namespace platinum::mem

#endif  // SRC_MEM_PAGE_EVENT_H_
