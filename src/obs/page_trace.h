// Per-page coherence forensics (the second observability tier).
//
// PLATINUM's evaluation hinges on page-level dynamics — which pages
// ping-pong between writers, freeze and thaw repeatedly, or get replicated
// only to be invalidated unread (Sections 5-6) — but MachineStats smears all
// of that into machine-wide totals. PageTrace is a mem::PageEventSink: it
// sees protocol transitions, never a word access. The producer counts the
// accesses in the sink and the reads each physical copy served, and hands a
// freed copy's count to its kPageFree event (TraceEvent::reads). PageTrace
// maintains:
//   * a bounded ring of raw protocol events (drop-counted, never grows);
//   * streaming per-page rollups: event counters, first/last activity, and
//     the state needed by three derived detectors —
//       - ping-pong: write-invalidate alternation — every write fault taken
//         by a different processor than the previous writer invalidated that
//         writer's mapping and counts one alternation (covers two-party
//         A,B,A,B ping-pong and N-party rotation equally);
//       - freeze-churn: completed freeze -> thaw cycles per page;
//       - replication-waste: replicas whose kPageFree reports at most one
//         read (the read that created them), i.e. copies that never paid
//         off.
// The report is a deterministic JSON document: detector-flagged page lists
// plus a top-K "hot page" table with bounded per-page timelines filtered
// from the ring.
//
// Layering: this file consumes only the mem hook headers (trace.h,
// page_event.h), never coherent-memory internals; tools/platlint enforces
// that allowance.
#ifndef SRC_OBS_PAGE_TRACE_H_
#define SRC_OBS_PAGE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/mem/page_event.h"
#include "src/mem/trace.h"
#include "src/sim/time.h"

namespace platinum::obs {

struct PageTraceOptions {
  // Raw-event ring capacity; older events are dropped (drop-counted).
  size_t ring_capacity = 1 << 15;
  // Rollups are kept for coherent pages with id < max_pages; events on pages
  // beyond the bound are counted in rollups_dropped() and otherwise ignored.
  size_t max_pages = 1 << 20;
  // Pages listed in the "hot page" table of the report.
  size_t top_k = 16;
  // Detector thresholds (see detector definitions above). The ping-pong
  // default is deliberately low: under the timestamp policy a page freezes
  // after a few invalidating writes, so a sustained alternation never gets
  // long — three writer changes already mark the falsely-shared page.
  uint32_t ping_pong_min_alternations = 3;
  uint32_t freeze_churn_min_cycles = 2;
  // Per-page timeline length in the report (most recent retained events).
  size_t timeline_events_per_page = 32;
};

class PageTrace : public mem::PageEventSink {
 public:
  struct PageRollup {
    uint64_t events = 0;
    uint64_t faults = 0;
    uint64_t read_faults = 0;
    uint64_t write_faults = 0;
    uint64_t fills = 0;
    uint64_t replications = 0;
    uint64_t migrations = 0;
    uint64_t remote_maps = 0;
    uint64_t freezes = 0;
    uint64_t thaws = 0;
    uint64_t shootdowns = 0;
    uint64_t lease_expiries = 0;
    uint64_t frees = 0;
    uint64_t pins = 0;
    uint64_t unbinds = 0;
    sim::SimTime first_event_ns = 0;
    sim::SimTime last_event_ns = 0;
    // Ping-pong state: the most recent write-fault initiator.
    int16_t last_writer = -1;
    uint32_t write_alternations = 0;
    // Freeze-churn state.
    uint32_t freeze_cycles = 0;
    bool frozen = false;
    // Replication-waste state.
    uint64_t replicas_created = 0;
    uint64_t replicas_wasted = 0;
    // Modules holding a replica created by kReplicate, until its kPageFree.
    std::vector<int16_t> live_replicas;
  };

  explicit PageTrace(PageTraceOptions options = {});

  // --- mem::PageEventSink ------------------------------------------------------
  void OnPageEvent(const mem::TraceEvent& event) override;

  // --- Introspection -----------------------------------------------------------
  uint64_t events_seen() const { return ring_.recorded(); }
  // Word accesses performed while attached, as the producer counted them.
  uint64_t accesses_seen() const { return accesses(); }
  uint64_t rollups_dropped() const { return rollups_dropped_; }
  const mem::TraceLog& ring() const { return ring_; }
  // Pages with at least one event tracked so far.
  size_t pages_tracked() const;
  // The rollup for `cpage`, or nullptr when it has no events (or is beyond
  // the max_pages bound).
  const PageRollup* rollup(uint32_t cpage) const;

  // --- Detectors ---------------------------------------------------------------
  bool IsPingPong(const PageRollup& r) const {
    // Writer alternation only qualifies when it was served by invalidation
    // rounds. Under a lease protocol the same alternation shows up as lease
    // expiries — priced by waiting, not by an IPI storm — and must not be
    // flagged as shootdown ping-pong.
    return r.write_alternations >= options_.ping_pong_min_alternations && r.shootdowns > 0;
  }
  bool IsFreezeChurn(const PageRollup& r) const {
    return r.freeze_cycles >= options_.freeze_churn_min_cycles;
  }
  bool IsReplicationWaste(const PageRollup& r) const { return r.replicas_wasted > 0; }
  // Flagged page ids, ascending.
  std::vector<uint32_t> FlaggedPingPong() const;
  std::vector<uint32_t> FlaggedFreezeChurn() const;
  std::vector<uint32_t> FlaggedReplicationWaste() const;

  // The forensics report (schema "platinum-page-forensics-v1"). Deterministic:
  // depends only on the observed event stream and the access count.
  std::string ToJson() const;

 private:
  PageRollup* RollupFor(uint32_t cpage);
  void UpdateDetectors(PageRollup& r, const mem::TraceEvent& event);
  // Top-K page ids by (faults desc, events desc, id asc).
  std::vector<uint32_t> TopPages() const;

  // Hook state is mutated from whichever fiber faulted; safe without a lock
  // because fibers never preempt inside a hook (single host thread).
  PageTraceOptions options_ PLATINUM_FIBER_SHARED;
  mem::TraceLog ring_ PLATINUM_FIBER_SHARED;
  std::vector<PageRollup> rollups_ PLATINUM_FIBER_SHARED;
  uint64_t rollups_dropped_ PLATINUM_FIBER_SHARED = 0;
};

}  // namespace platinum::obs

#endif  // SRC_OBS_PAGE_TRACE_H_
