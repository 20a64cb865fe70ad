#include "src/sim/interconnect.h"

#include <algorithm>

#include "src/base/check.h"

namespace platinum::sim {

Interconnect::Interconnect(const MachineParams& params, std::vector<MemoryModule>* modules,
                           obs::Observability* obs)
    : params_(params), modules_(modules), obs_(obs) {
  PLAT_CHECK(modules_ != nullptr);
  PLAT_CHECK(obs_ != nullptr);
}

SimTime Interconnect::Queue(MemoryModule& module, int target_node, SimTime occupancy,
                            SimTime now, MachineStats& requester) {
  SimTime wait = module.bus_busy_until - now;
  module.bus_busy_until += occupancy;
  requester.module_wait_ns += wait;
  obs_->module(target_node).queue_wait_ns += wait;
  obs_->RecordLatency(obs::HistKind::kModuleQueue, wait);
  return wait;
}

SimTime Interconnect::BlockTransfer(int requester_node, int src_node, int dst_node,
                                    uint32_t words, SimTime now) {
  PLAT_CHECK_NE(src_node, dst_node);
  MemoryModule& src = (*modules_)[src_node];
  MemoryModule& dst = (*modules_)[dst_node];

  SimTime start = std::max({now, src.bus_busy_until, dst.bus_busy_until});
  SimTime duration = static_cast<SimTime>(words) * params_.block_copy_word_ns;
  SimTime end = start + duration;

  // The transfer engine consumes block_bus_steal_permille of both buses for
  // its duration; other traffic effectively queues behind that share.
  SimTime steal = duration * params_.block_bus_steal_permille / 1000;
  src.bus_busy_until = start + steal;
  dst.bus_busy_until = start + steal;

  MachineStats& requester = obs_->cpu(requester_node);
  requester.module_wait_ns += start - now;
  ++requester.block_transfers;
  requester.block_words_copied += words;
  ++obs_->module(src_node).block_transfers_out;
  ++obs_->module(dst_node).block_transfers_in;
  return end;
}

}  // namespace platinum::sim
