// A bus-based UMA multiprocessor with small write-through caches — the
// Sequent Symmetry (model A processors, 8 KB write-through caches) that
// Figure 5 of the paper compares merge sort against.
//
// One shared memory, one shared bus with queueing, and a direct-mapped
// write-through cache per processor kept coherent by snoop-invalidation.
// Runs on the same virtual-time fiber scheduler as the NUMA machine. The
// shared memory is mapped on demand: it reads as zero and takes host memory
// only where the simulation touches it.
#ifndef SRC_UMA_UMA_MACHINE_H_
#define SRC_UMA_UMA_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/anonymous_mapping.h"
#include "src/sim/params.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "src/uma/cache.h"

namespace platinum::uma {

struct UmaParams {
  int num_processors = 16;
  size_t memory_words = size_t{1} << 22;  // 16 MB
  uint32_t cache_bytes = 8 * 1024;
  uint32_t line_bytes = 16;  // 4 words
  // Cache-hit reference (processor speed).
  sim::SimTime cache_hit_ns = 150;
  // Read-miss line fill over the bus.
  sim::SimTime bus_line_fetch_ns = 1000;
  // Write-through word over the bus.
  sim::SimTime bus_word_write_ns = 600;
  // Bus occupancy per transaction (what serializes processors); the Symmetry
  // bus is pipelined, so occupancy is much shorter than latency.
  sim::SimTime bus_occupancy_fetch_ns = 250;
  sim::SimTime bus_occupancy_write_ns = 120;
  sim::SimTime quantum_ns = 20 * sim::kMicrosecond;

  void Validate() const;
};

struct UmaStats {
  uint64_t cache_hits = 0;
  uint64_t read_misses = 0;
  uint64_t writes = 0;
  uint64_t invalidations = 0;
  sim::SimTime bus_wait_ns = 0;
};

class UmaMachine {
 public:
  explicit UmaMachine(const UmaParams& params);

  const UmaParams& params() const { return params_; }
  sim::Scheduler& scheduler() { return scheduler_; }
  UmaStats& stats() { return stats_; }
  int num_processors() const { return params_.num_processors; }

  // Bump allocation of shared memory; returns the base word address.
  size_t AllocWords(size_t count);

  // Timed accesses from the current fiber's processor.
  uint32_t Read(size_t word_addr);
  void Write(size_t word_addr, uint32_t value);
  // Atomic read-modify-write (bus-locked); returns the previous value.
  uint32_t FetchAdd(size_t word_addr, uint32_t delta);

 private:
  // Charges for one bus transaction starting no earlier than now; returns the
  // latency including queueing.
  sim::SimTime BusTransaction(sim::SimTime base, sim::SimTime occupancy);
  void InvalidateOthers(int writer, size_t word_addr);
  uint32_t* words() const { return static_cast<uint32_t*>(memory_.data()); }

  const UmaParams params_;
  sim::Scheduler scheduler_;
  base::AnonymousMapping memory_;  // params_.memory_words words
  std::vector<Cache> caches_;
  sim::SimTime bus_busy_until_ = 0;
  size_t next_free_word_ = 0;
  UmaStats stats_;
};

// Typed array view over UMA shared memory.
class UmaArray {
 public:
  UmaArray() = default;
  UmaArray(UmaMachine* machine, size_t base, size_t count)
      : machine_(machine), base_(base), count_(count) {}

  static UmaArray Create(UmaMachine& machine, size_t count) {
    return UmaArray(&machine, machine.AllocWords(count), count);
  }

  size_t size() const { return count_; }
  uint32_t Get(size_t i) const { return machine_->Read(base_ + i); }
  void Set(size_t i, uint32_t v) { machine_->Write(base_ + i, v); }
  uint32_t FetchAdd(size_t i, uint32_t delta) { return machine_->FetchAdd(base_ + i, delta); }

 private:
  UmaMachine* machine_ = nullptr;
  size_t base_ = 0;
  size_t count_ = 0;
};

}  // namespace platinum::uma

#endif  // SRC_UMA_UMA_MACHINE_H_
