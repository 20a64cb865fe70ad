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
      interconnect_(params_, &modules_, &stats_, &obs_) {
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

SimTime Machine::Reference(int target_node, AccessKind kind) {
  int requester = scheduler_.current() != nullptr ? scheduler_.current_processor() : 0;
  SimTime latency = interconnect_.Reference(requester, target_node, kind, scheduler_.now());
  scheduler_.Advance(latency);
  return latency;
}

void Machine::BlockTransferPage(int src_node, uint32_t src_frame, int dst_node,
                                uint32_t dst_frame) {
  PLAT_CHECK_NE(src_node, dst_node);
  SimTime started = scheduler_.now();
  SimTime done = interconnect_.BlockTransfer(src_node, dst_node, params_.words_per_page(),
                                             started);
  std::memcpy(modules_[dst_node].FrameData(dst_frame), modules_[src_node].FrameData(src_frame),
              params_.page_size_bytes);
  scheduler_.AdvanceTo(done);
  // Request-to-completion duration, including the time queued behind other
  // traffic on either bus.
  obs_.RecordLatency(obs::HistKind::kBlockTransfer, done - started);
}

uint32_t Machine::ReadWordRaw(int node, uint32_t frame, uint32_t word_offset) const {
  PLAT_DCHECK(word_offset < params_.words_per_page());
  uint32_t value;
  std::memcpy(&value, modules_[node].FrameData(frame) + word_offset * 4, 4);
  return value;
}

void Machine::WriteWordRaw(int node, uint32_t frame, uint32_t word_offset, uint32_t value) {
  PLAT_DCHECK(word_offset < params_.words_per_page());
  std::memcpy(modules_[node].FrameData(frame) + word_offset * 4, &value, 4);
}

}  // namespace platinum::sim
