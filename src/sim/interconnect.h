// Butterfly-switch timing model.
//
// Models the latency and contention of word references and block transfers.
// Contention is modeled by queueing at the target memory module's bus: each
// reference occupies the bus for a short service interval, so concurrent
// traffic to a hot module serializes (the dominant contention effect on the
// Butterfly, and the effect PLATINUM's replication is designed to relieve).
// Block transfers additionally steal most of the bus bandwidth on *both*
// nodes involved (paper Section 7: 75%).
#ifndef SRC_SIM_INTERCONNECT_H_
#define SRC_SIM_INTERCONNECT_H_

#include <cstdint>
#include <vector>

#include "src/obs/observability.h"
#include "src/sim/memory_module.h"
#include "src/sim/params.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace platinum::sim {

enum class AccessKind : uint8_t { kRead, kWrite };

class Interconnect {
 public:
  Interconnect(const MachineParams& params, std::vector<MemoryModule>* modules,
               MachineStats* stats, obs::Observability* obs);

  // Latency of one 32-bit reference issued at virtual time `now` by
  // `requester_node` against `target_node`'s module, including any time spent
  // queued behind other traffic. Updates module bus occupancy and stats.
  // Counts the reference once: its MachineStats kind counter, the requester's
  // local_refs or remote_refs and, if remote, the target's
  // remote_references_served. On a free bus that is all; only a queued
  // reference calls Queue, which records its wait.
  [[gnu::always_inline]] SimTime Reference(int requester_node, int target_node, AccessKind kind,
                                           SimTime now) {
    SimTime base;
    SimTime occupancy;
    if (requester_node == target_node) {
      base = kind == AccessKind::kRead ? params_.local_read_ns : params_.local_write_ns;
      occupancy = params_.module_occupancy_local_ns;
      if (kind == AccessKind::kRead) {
        ++stats_->local_reads;
      } else {
        ++stats_->local_writes;
      }
      ++obs_->cpu(requester_node).local_refs;
    } else {
      base = kind == AccessKind::kRead ? params_.remote_read_ns : params_.remote_write_ns;
      occupancy = params_.module_occupancy_remote_ns;
      if (kind == AccessKind::kRead) {
        ++stats_->remote_reads;
      } else {
        ++stats_->remote_writes;
      }
      ++obs_->cpu(requester_node).remote_refs;
      ++obs_->module(target_node).remote_references_served;
    }

    MemoryModule& module = (*modules_)[target_node];
    if (module.bus_busy_until <= now) [[likely]] {
      module.bus_busy_until = now + occupancy;
      return base;
    }
    return Queue(module, target_node, occupancy, now) + base;
  }

  // Schedules a block transfer of `words` 32-bit words from `src_node` to
  // `dst_node` starting no earlier than `now`. Returns the completion time.
  // Both modules' buses are largely consumed for the duration.
  SimTime BlockTransfer(int src_node, int dst_node, uint32_t words, SimTime now);

 private:
  // The rest of a reference that finds `module`'s bus busy at `now`: waits for
  // the bus, occupies it, and records the wait. Returns the wait.
  [[gnu::cold]] SimTime Queue(MemoryModule& module, int target_node, SimTime occupancy,
                              SimTime now);

  const MachineParams& params_;
  std::vector<MemoryModule>* modules_;
  MachineStats* stats_;
  obs::Observability* obs_;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_INTERCONNECT_H_
