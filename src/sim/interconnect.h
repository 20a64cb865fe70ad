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
               obs::Observability* obs);

  // Latency of one 32-bit reference issued at virtual time `now` by
  // `requester_node` against `target_node`'s module, including any time spent
  // queued behind other traffic. Updates module bus occupancy and stats.
  // Counts the reference once: the kind counter of the requester's block and,
  // if remote, the target's remote_references_served. On a free bus that is
  // all; only a queued reference calls Queue, which records its wait.
  [[gnu::always_inline]] SimTime Reference(int requester_node, int target_node, AccessKind kind,
                                           SimTime now) {
    MachineStats& requester = obs_->cpu(requester_node);
    SimTime base;
    SimTime occupancy;
    if (requester_node == target_node) {
      base = kind == AccessKind::kRead ? params_.local_read_ns : params_.local_write_ns;
      occupancy = params_.module_occupancy_local_ns;
      if (kind == AccessKind::kRead) {
        ++requester.local_reads;
      } else {
        ++requester.local_writes;
      }
    } else {
      base = kind == AccessKind::kRead ? params_.remote_read_ns : params_.remote_write_ns;
      occupancy = params_.module_occupancy_remote_ns;
      if (kind == AccessKind::kRead) {
        ++requester.remote_reads;
      } else {
        ++requester.remote_writes;
      }
      ++obs_->module(target_node).remote_references_served;
    }

    MemoryModule& module = (*modules_)[target_node];
    if (module.bus_busy_until <= now) [[likely]] {
      module.bus_busy_until = now + occupancy;
      return base;
    }
    return Queue(module, target_node, occupancy, now, requester) + base;
  }

  // Schedules a block transfer of `words` 32-bit words from `src_node` to
  // `dst_node` starting no earlier than `now`, counted in `requester_node`'s
  // block (-1: outside any fiber). Returns the completion time. Both modules'
  // buses are largely consumed for the duration.
  SimTime BlockTransfer(int requester_node, int src_node, int dst_node, uint32_t words,
                        SimTime now);

 private:
  // The rest of a reference that finds `module`'s bus busy at `now`: waits for
  // the bus, occupies it, and records the wait, in `requester`'s block among
  // others. Returns the wait.
  [[gnu::cold]] SimTime Queue(MemoryModule& module, int target_node, SimTime occupancy,
                              SimTime now, MachineStats& requester);

  const MachineParams& params_;
  std::vector<MemoryModule>* modules_;
  obs::Observability* obs_;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_INTERCONNECT_H_
