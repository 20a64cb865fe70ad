// The simulated NUMA machine: processors (fiber scheduler), memory modules,
// interconnect, and global statistics. This is the substrate the PLATINUM
// kernel runs on; it replaces the BBN Butterfly Plus hardware of the paper.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/anonymous_mapping.h"
#include "src/base/check.h"
#include "src/obs/observability.h"
#include "src/sim/interconnect.h"
#include "src/sim/memory_module.h"
#include "src/sim/params.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace platinum::sim {

class Machine {
 public:
  explicit Machine(const MachineParams& params);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineParams& params() const { return params_; }
  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  // The machine-wide counters, summed over the processors' blocks. A value:
  // later events do not show in it.
  MachineStats stats() const { return obs_.Totals(); }
  // The block `processor` counts its events in (-1: outside any fiber).
  MachineStats& stats(int processor) { return obs_.cpu(processor); }
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }
  int num_nodes() const { return params_.num_processors; }

  MemoryModule& module(int node);

  // --- Timed operations, charged to the current fiber -----------------------
  // One 32-bit reference against `target_node` from the current processor
  // (processor 0 outside any fiber). Returns the latency charged.
  SimTime Reference(int target_node, AccessKind kind) {
    return Reference(scheduler_.current_processor_or(0), target_node, kind);
  }
  // As above, for a caller that already knows the current processor (the
  // coherent-memory access path).
  [[gnu::always_inline]] SimTime Reference(int requester_node, int target_node, AccessKind kind) {
    SimTime latency = interconnect_.Reference(requester_node, target_node, kind, scheduler_.now());
    scheduler_.Advance(latency);
    return latency;
  }
  // Charges pure compute time to the current fiber.
  void Compute(SimTime duration) { scheduler_.Advance(duration); }

  // Copies a whole page between frames on two nodes with the block-transfer
  // engine, moving the real bytes and charging the initiator (the current
  // processor) until the transfer completes.
  void BlockTransferPage(int src_node, uint32_t src_frame, int dst_node, uint32_t dst_frame);

  // --- Untimed data plumbing -------------------------------------------------
  uint32_t ReadWordRaw(int node, uint32_t frame, uint32_t word_offset) const {
    PLAT_DCHECK(word_offset < params_.words_per_page());
    return modules_[node].ReadWord(frame, word_offset);
  }
  void WriteWordRaw(int node, uint32_t frame, uint32_t word_offset, uint32_t value) {
    PLAT_DCHECK(word_offset < params_.words_per_page());
    modules_[node].WriteWord(frame, word_offset, value);
  }

  // Page identifiers for frames allocated outside the coherent-memory system
  // (baselines that place data by hand). Distinct from Cpage ids, which grow
  // from 0.
  uint32_t AllocRawPageId() { return next_raw_page_id_++; }

 private:
  const MachineParams params_;
  obs::Observability obs_;
  Scheduler scheduler_;
  // Every node's frames, node after node; each module addresses its slice.
  base::AnonymousMapping frames_;
  std::vector<MemoryModule> modules_;
  Interconnect interconnect_;
  uint32_t next_raw_page_id_ = 0x40000000;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_MACHINE_H_
