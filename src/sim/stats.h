// Event counters.
//
// One block per processor (obs::Observability::cpu) counts each event once,
// in the block of the processor that issued or suffered it; the machine-wide
// counters are the sum of the blocks (sim::Machine::stats). Experiments
// snapshot them; differences between snapshots give per-phase behaviour.
// Per-Cpage statistics live with the Cpage table (src/mem/cpage.h),
// mirroring the kernel's post-mortem report in the paper.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/sim/time.h"

namespace platinum::sim {

struct MachineStats {
  // Raw references issued by programs (after MMU translation).
  uint64_t local_reads = 0;
  uint64_t local_writes = 0;
  uint64_t remote_reads = 0;
  uint64_t remote_writes = 0;

  // MMU behaviour.
  uint64_t atc_hits = 0;
  uint64_t atc_misses = 0;

  // Coherent-memory behaviour.
  uint64_t faults = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t replications = 0;   // new physical copy created (state had >= 1 copy)
  uint64_t migrations = 0;     // copy moved: replicate + invalidate source
  uint64_t remote_maps = 0;    // fault resolved with a mapping to a remote page
  uint64_t initial_fills = 0;  // first physical page of an empty Cpage
  uint64_t freezes = 0;
  uint64_t thaws = 0;
  uint64_t shootdowns = 0;       // shootdown rounds initiated
  uint64_t ipis_sent = 0;        // processors synchronously interrupted
  uint64_t mappings_invalidated = 0;
  uint64_t mappings_restricted = 0;
  uint64_t pages_freed = 0;
  uint64_t lease_waits = 0;      // lease-protocol expiry waits (tardis)
  SimTime lease_wait_ns = 0;     // simulated time spent in those waits

  // Block-transfer engine.
  uint64_t block_transfers = 0;
  uint64_t block_words_copied = 0;

  // Contention.
  SimTime module_wait_ns = 0;        // time spent queued at memory-module buses
  SimTime fault_handler_wait_ns = 0; // time serialized behind another fault on the same Cpage

  uint64_t total_references() const {
    return local_reads + local_writes + remote_reads + remote_writes;
  }
  uint64_t remote_references() const { return remote_reads + remote_writes; }

  // Multi-line human-readable dump.
  std::string ToString() const;

  // Counter-wise sum. Used to add up the per-processor blocks.
  MachineStats& operator+=(const MachineStats& other);
};

// The counter-wise operators treat the struct as an array of 64-bit words, so
// a counter added to it needs no line there.
static_assert(std::has_unique_object_representations_v<MachineStats> &&
              sizeof(MachineStats) % 8 == 0);

// a - b, counter-wise. Used for phase deltas.
MachineStats operator-(const MachineStats& a, const MachineStats& b);

}  // namespace platinum::sim

#endif  // SRC_SIM_STATS_H_
