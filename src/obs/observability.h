// The kernel instrumentation registry (Sections 1.1, 9).
//
// One Observability object per simulated machine collects:
//   * the event counters: one sim::MachineStats block per processor, plus one
//     for work done outside any fiber. Each event is counted once, in the
//     block of the processor that issued or suffered it (who faulted, who
//     replicated, who took the IPIs); the machine-wide counters are their
//     sum (Totals(), sim::Machine::stats());
//   * per-module counters (which module served the traffic);
//   * latency histograms for the protocol's expensive operations (fault
//     service, shootdown round-trip, block transfer, module queueing);
//   * named spans and phases, so experiments can attribute counters and
//     latencies to program phases and the Perfetto exporter can draw them.
// Recording is always on. Each simulated reference is counted once, by
// sim::Interconnect::Reference; each module's references_served() and the
// module-queue histogram's zero bucket are derived from those counts when
// read. An uncontended local reference costs one counter increment and a bus
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

  int num_nodes() const { return static_cast<int>(module_.size()); }
  // The counter block of processor `p`; p = -1 is the block for work done
  // outside any fiber.
  sim::MachineStats& cpu(int p) { return cpu_[static_cast<size_t>(p + 1)]; }
  const sim::MachineStats& cpu(int p) const { return cpu_[static_cast<size_t>(p + 1)]; }
  // The machine-wide counters: the sum of every block.
  sim::MachineStats Totals() const;
  // Interrupts processor `p` took from other processors' shootdown rounds
  // (each round's initiator counts them in its ipis_sent).
  uint64_t& ipis_received(int p) { return ipis_received_[static_cast<size_t>(p)]; }
  uint64_t ipis_received(int p) const { return ipis_received_[static_cast<size_t>(p)]; }
  ModuleCounters& module(int m) { return module_[static_cast<size_t>(m)]; }
  const ModuleCounters& module(int m) const { return module_[static_cast<size_t>(m)]; }

  // References served by module `m`'s bus. A local reference's requester is
  // its target, so its local ones are processor `m`'s local reads and writes.
  uint64_t references_served(int m) const {
    return cpu(m).local_reads + cpu(m).local_writes + module(m).remote_references_served;
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
  // machine-wide counters at the boundary (so the phase can report deltas).
  void BeginPhase(std::string name, sim::SimTime now, const sim::MachineStats& stats);
  void EndPhase(sim::SimTime now, const sim::MachineStats& stats);
  const std::vector<Phase>& phases() const { return phases_; }
  // Name of the innermost open phase, or empty.
  const std::string& current_phase() const;

  // Multi-line human-readable dump: histograms plus the per-processor table.
  std::string ToString() const;

 private:
  static constexpr size_t kMaxSpans = 1 << 16;

  std::vector<sim::MachineStats> cpu_;  // cpu_[p + 1] is processor p's block
  std::vector<uint64_t> ipis_received_;
  std::vector<ModuleCounters> module_;
  std::array<LatencyHistogram, kNumHistKinds> hist_;
  std::vector<Span> spans_;
  uint64_t spans_dropped_ = 0;
  std::vector<Phase> phases_;
  std::vector<size_t> open_phases_;
};

}  // namespace platinum::obs

#endif  // SRC_OBS_OBSERVABILITY_H_
