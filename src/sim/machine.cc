#include "src/sim/machine.h"

#include <cstring>

#include "src/base/check.h"

namespace platinum::sim {

Machine::Machine(const MachineParams& params)
    : params_([&] {
        params.Validate();
        return params;
      }()),
      obs_(params_.num_processors),
      scheduler_(params_.num_processors, params_.quantum_ns),
      interconnect_(params_, &modules_, &obs_) {
  modules_.reserve(params_.num_processors);
  for (int node = 0; node < params_.num_processors; ++node) {
    modules_.emplace_back(node, params_);
  }
}

MemoryModule& Machine::module(int node) {
  PLAT_CHECK_GE(node, 0);
  PLAT_CHECK_LT(node, num_nodes());
  return modules_[node];
}

void Machine::BlockTransferPage(int src_node, uint32_t src_frame, int dst_node,
                                uint32_t dst_frame) {
  PLAT_CHECK_NE(src_node, dst_node);
  SimTime started = scheduler_.now();
  SimTime done = interconnect_.BlockTransfer(scheduler_.current_processor_or(-1), src_node,
                                             dst_node, params_.words_per_page(), started);
  std::memcpy(modules_[dst_node].FrameData(dst_frame), modules_[src_node].FrameData(src_frame),
              params_.page_size_bytes);
  scheduler_.AdvanceTo(done);
  // Request-to-completion duration, including the time queued behind other
  // traffic on either bus.
  obs_.RecordLatency(obs::HistKind::kBlockTransfer, done - started);
}

}  // namespace platinum::sim
