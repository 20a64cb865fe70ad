// Machine and kernel timing parameters.
//
// Defaults model the 16-node BBN Butterfly Plus described in the PLATINUM
// paper (SOSP '89, Section 4): MC68020/MC68851 nodes, 4 KB pages, 320 ns
// local word access, ~5 us remote read, 1.11 ms page block transfer, and the
// measured fixed overheads of the coherent-memory fault handler.
#ifndef SRC_SIM_PARAMS_H_
#define SRC_SIM_PARAMS_H_

#include <cstdint>

#include "src/sim/time.h"

namespace platinum::sim {

// Hard upper bound on processors; masks are held in uint64_t bit vectors.
inline constexpr int kMaxProcessors = 64;

struct MachineParams {
  // ---- Topology -----------------------------------------------------------
  // One node = one processor + one memory module (Butterfly organization).
  int num_processors = 16;
  // Physical frames per memory module. 1024 x 4 KB = 4 MB per node, matching
  // the Butterfly Plus nodes used in the paper.
  uint32_t frames_per_module = 1024;

  // ---- Page geometry ------------------------------------------------------
  uint32_t page_size_bytes = 4096;

  // ---- Reference latencies (Section 4.1) ----------------------------------
  SimTime local_read_ns = 320;
  SimTime local_write_ns = 320;
  SimTime remote_read_ns = 5000;
  // "Write operations are faster" than remote reads; no round trip needed.
  SimTime remote_write_ns = 2000;

  // Occupancy of the target memory-module bus per reference; this is what
  // serializes concurrent accesses to a hot module (contention).
  SimTime module_occupancy_local_ns = 320;
  // Hot-spot throughput of one module serving remote requests is about one
  // reference per microsecond on the Butterfly; most of the 5 us latency is
  // switch round-trip, not module service time.
  SimTime module_occupancy_remote_ns = 1000;

  // ---- Block transfer (Sections 4, 7) --------------------------------------
  // Per-32-bit-word copy cost. 1084 ns * 1024 words = 1.110 ms per 4 KB page,
  // the figure reported in Section 4.
  SimTime block_copy_word_ns = 1084;
  // Fraction (x1000) of both nodes' local bus bandwidth consumed by a block
  // transfer (Section 7: 75%).
  uint32_t block_bus_steal_permille = 750;

  // ---- MMU ----------------------------------------------------------------
  // MC68851 address-translation cache: 64 entries, direct mapped here.
  uint32_t atc_entries = 64;
  // Table-walk + ATC fill on an ATC miss with a valid Pmap entry (two local
  // references to the per-processor Pmap).
  SimTime atc_fill_ns = 640;

  // ---- Coherent-memory handler costs (Section 4) ---------------------------
  // Fixed overhead of a coherent page fault when the relevant kernel data
  // structures are in local memory (trap, Cmap lookup, allocate + map).
  SimTime fault_fixed_ns = 230 * kMicrosecond;
  // Additional cost when the Cpage-table entry lives on a remote node.
  SimTime fault_remote_extra_ns = 40 * kMicrosecond;
  // Setting up a synchronous shootdown round (posting Cmap messages and
  // synchronizing with the first interrupted processor).
  SimTime shootdown_setup_ns = 200 * kMicrosecond;
  // Incremental delay to the initiator per additional interrupted processor
  // (Section 4 reports ~7 us; Mach needed 55 us).
  SimTime shootdown_per_processor_ns = 7 * kMicrosecond;
  // Freeing a physical page: one remote read plus one remote write.
  SimTime page_free_ns = 10 * kMicrosecond;
  // Cost charged to an interrupted processor for taking the IPI and scanning
  // the Cmap message queue.
  SimTime ipi_handler_ns = 7 * kMicrosecond;

  // ---- Kernel services ------------------------------------------------------
  // Fixed kernel overhead of a port send/receive (trap, queue manipulation).
  SimTime port_fixed_ns = 150 * kMicrosecond;
  // Per-32-bit-word message copy cost (the kernel uses the block-transfer
  // path to move message bodies into the receiver's node).
  SimTime port_word_ns = 1084;
  // Creating a kernel thread.
  SimTime thread_spawn_ns = 500 * kMicrosecond;
  // Explicit thread migration moves the kernel stack with the thread
  // (Section 2.2); one page at block-transfer speed plus fixed cost.
  SimTime thread_migrate_fixed_ns = 300 * kMicrosecond;

  // ---- Replication policy (Section 4.2) ------------------------------------
  // Freeze window t1: pages invalidated more recently than this are frozen
  // (remote-mapped) instead of replicated.
  SimTime t1_freeze_window_ns = 10 * kMillisecond;
  // Defrost-daemon period t2.
  SimTime t2_defrost_period_ns = 1 * kSecond;
  // Alternative daemon (Section 4.2): treat the frozen list as a priority
  // queue ordered by thaw deadline, so every page stays frozen for a full t2
  // and is thawed as soon as its own deadline passes, instead of at the next
  // multiple of t2.
  bool adaptive_defrost = false;
  // Node the defrost daemon runs on.
  int defrost_processor = 0;

  // ---- Simulation controls --------------------------------------------------
  // A fiber voluntarily yields once it has run this much virtual time; bounds
  // the clock skew between concurrently simulated processors.
  SimTime quantum_ns = 20 * kMicrosecond;

  // Total physical frames across the machine.
  uint64_t total_frames() const {
    return static_cast<uint64_t>(num_processors) * frames_per_module;
  }
  uint32_t words_per_page() const { return page_size_bytes / 4; }

  // Aborts if the parameter combination is unsupported.
  void Validate() const;
};

// The configuration used throughout the paper's evaluation.
MachineParams ButterflyPlusParams(int num_processors = 16);

}  // namespace platinum::sim

#endif  // SRC_SIM_PARAMS_H_
