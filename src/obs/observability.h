// The kernel instrumentation registry (Sections 1.1, 9).
//
// One Observability object per simulated machine collects everything the
// global MachineStats counters cannot express:
//   * per-processor and per-module counter breakdowns (who faulted, which
//     module served the traffic, who took the IPIs);
//   * latency histograms for the protocol's expensive operations (fault
//     service, shootdown round-trip, block transfer, module queueing);
//   * named spans and phases, so experiments can attribute counters and
//     latencies to program phases and the Perfetto exporter can draw them.
// Recording is always on. Each simulated reference is counted once, by
// sim::Interconnect::Reference; each module's references_served() and the
// module-queue histogram's zero bucket are derived from those counts when
// read. An uncontended local reference costs two counter increments and a bus
// store; recording a zero wait for each one used to take a quarter of a gauss
// run's sampled host time (docs/PERFORMANCE.md, "Count each reference once").
#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace platinum::obs {

// Per-processor protocol activity: the breakdown of MachineStats by the
// processor that initiated (or suffered) each event.
struct ProcessorCounters {
  uint64_t faults = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t initial_fills = 0;
  uint64_t replications = 0;
  uint64_t migrations = 0;
  uint64_t remote_maps = 0;
  uint64_t shootdowns_initiated = 0;
  uint64_t ipis_received = 0;
  uint64_t local_refs = 0;
  uint64_t remote_refs = 0;
  uint64_t pages_freed = 0;
};

// Per-memory-module activity: the traffic each module's bus served. Its local
// references are counted by their requester (see references_served()).
struct ModuleCounters {
  uint64_t remote_references_served = 0;
  uint64_t block_transfers_in = 0;
  uint64_t block_transfers_out = 0;
  uint64_t frames_allocated = 0;
  uint64_t frames_freed = 0;
  sim::SimTime queue_wait_ns = 0;
};

enum class HistKind : uint8_t {
  kFaultService,   // HandleFault entry to exit (includes handler waits, copy)
  kShootdown,      // initiator-side cost of a synchronous shootdown round
  kBlockTransfer,  // block-transfer request to completion (includes queueing)
  kModuleQueue,    // per-reference wait behind a module's bus (0 if it was free)
};
inline constexpr int kNumHistKinds = 4;
const char* HistKindName(HistKind kind);

// A completed named interval, drawn as a "complete" event by the Perfetto
// exporter.
struct Span {
  std::string name;
  int16_t processor = -1;
  uint32_t thread = 0;  // fiber id
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

// A named experiment phase with the counter and histogram activity that
// happened inside it.
struct Phase {
  std::string name;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  bool open = true;
  sim::MachineStats delta;  // filled when the phase closes
  struct HistDelta {
    uint64_t count = 0;
    sim::SimTime sum = 0;
  };
  std::array<HistDelta, kNumHistKinds> hist_delta{};

 private:
  friend class Observability;
  sim::MachineStats stats_at_begin_;
  std::array<HistDelta, kNumHistKinds> hist_at_begin_{};
};

class Observability {
 public:
  explicit Observability(int num_nodes);

  int num_nodes() const { return static_cast<int>(cpu_.size()); }
  ProcessorCounters& cpu(int p) { return cpu_[static_cast<size_t>(p)]; }
  const ProcessorCounters& cpu(int p) const { return cpu_[static_cast<size_t>(p)]; }
  ModuleCounters& module(int m) { return module_[static_cast<size_t>(m)]; }
  const ModuleCounters& module(int m) const { return module_[static_cast<size_t>(m)]; }

  // References served by module `m`'s bus. A local reference's requester is
  // its target, so its local ones are processor `m`'s local_refs.
  uint64_t references_served(int m) const {
    return cpu(m).local_refs + module(m).remote_references_served;
  }

  // The histogram of `kind`. The module-queue histogram stores only queued
  // waits; every other reference the processors issued adds a 0 here.
  LatencyHistogram hist(HistKind kind) const;
  void RecordLatency(HistKind kind, sim::SimTime value_ns) {
    hist_[static_cast<size_t>(kind)].Record(value_ns);
  }

  // --- Spans -----------------------------------------------------------------
  // Bounded: after kMaxSpans the span is counted in spans_dropped() instead.
  void RecordSpan(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t spans_dropped() const { return spans_dropped_; }

  // --- Phases ----------------------------------------------------------------
  // Phases may nest; EndPhase closes the innermost open phase. `stats` is the
  // machine's counter block at the boundary (so the phase can report deltas).
  void BeginPhase(std::string name, sim::SimTime now, const sim::MachineStats& stats);
  void EndPhase(sim::SimTime now, const sim::MachineStats& stats);
  const std::vector<Phase>& phases() const { return phases_; }
  // Name of the innermost open phase, or empty.
  const std::string& current_phase() const;

  // Multi-line human-readable dump: histograms plus the per-processor table.
  std::string ToString() const;

 private:
  static constexpr size_t kMaxSpans = 1 << 16;

  std::vector<ProcessorCounters> cpu_;
  std::vector<ModuleCounters> module_;
  std::array<LatencyHistogram, kNumHistKinds> hist_;
  std::vector<Span> spans_;
  uint64_t spans_dropped_ = 0;
  std::vector<Phase> phases_;
  std::vector<size_t> open_phases_;
};

}  // namespace platinum::obs

#endif  // SRC_OBS_OBSERVABILITY_H_
