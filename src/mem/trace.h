// Kernel instrumentation: a bounded trace of coherent-memory events.
//
// Section 1.1/9: "we are also adding an instrumentation interface to the
// kernel to help interpret its behavior... useful to application
// programmers, compiler writers, and system implementors." The trace log is
// a ring buffer of protocol events (faults, replications, migrations,
// freezes, shootdowns, defrost scans, page frees) with virtual timestamps;
// it is the machine-readable companion of the post-mortem report in
// src/kernel/report.h and feeds the Chrome/Perfetto exporter in
// src/obs/export.h.
#ifndef SRC_MEM_TRACE_H_
#define SRC_MEM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace platinum::mem {

enum class TraceEventType : uint8_t {
  kFault,        // detail: 0 = read, 1 = write
  kFill,         // first physical copy created
  kReplicate,    // detail: module holding the new copy
  kMigrate,      // detail: destination module
  kRemoteMap,    // detail: module mapped
  kFreeze,
  kThaw,
  kShootdown,    // detail: processors interrupted
  kDefrostScan,  // defrost-daemon pass; detail: pages thawed
  kPageFree,     // physical copy reclaimed; detail: module freed
  kPin,          // explicit PinTo placement; detail: target module
  kUnbind,       // (as, vpn) binding removed; detail: address-space id
  kLeaseExpire,  // lease protocol reclaimed translations after a lease wait;
                 // detail: translations reclaimed. NOT an invalidation IPI —
                 // forensics must not count it as a shootdown.
};

// Named via a switch with no default: adding an enumerator without a name
// fails the build (-Wswitch) instead of silently printing "?".
const char* TraceEventTypeName(TraceEventType type);

// Marker for events not tied to a coherent page (e.g. defrost scans).
inline constexpr uint32_t kTraceNoCpage = UINT32_MAX;

struct TraceEvent {
  sim::SimTime time = 0;
  TraceEventType type = TraceEventType::kFault;
  uint32_t cpage = 0;
  int16_t processor = -1;
  uint32_t detail = 0;
  // Fiber id of the thread that caused the event (0 outside any fiber).
  uint32_t thread = 0;
  // kPageFree only: the reads the freed copy served while a page-event sink
  // was attached (page_event.h), saturating at UINT32_MAX; 0 for every other
  // event. No exporter writes it.
  uint32_t reads = 0;
};
// The ring holds many of these; `reads` fills what was tail padding.
static_assert(sizeof(TraceEvent) == 32);

// Fixed-capacity ring buffer; old events are dropped, never reallocated. The
// buffer is reserved up front and filled as events arrive, so an unused ring
// costs no page writes. A capacity of 0 is a valid "count only" log: every
// event is recorded into recorded()/dropped() but none is retained.
class TraceLog {
 public:
  explicit TraceLog(size_t capacity);

  void Record(const TraceEvent& event);
  void Record(sim::SimTime time, TraceEventType type, uint32_t cpage, int processor,
              uint32_t detail, uint32_t thread = 0);

  size_t capacity() const { return capacity_; }
  // Events currently retained, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const;

  // Human-readable dump of the most recent `last` events (all retained
  // events when `last` exceeds the retained count).
  std::string ToString(size_t last = 32) const;

 private:
  size_t capacity_;
  // Grows to capacity_, then wraps: event n sits at n % capacity_.
  std::vector<TraceEvent> buffer_;
  uint64_t recorded_ = 0;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_TRACE_H_
