#include "src/sim/machine.h"

#include <cstring>

#include "src/base/check.h"

namespace platinum::sim {
namespace {

// The bytes of one node's frames, checked so that all nodes' frames together
// fit in a size_t.
size_t ModuleBytes(const MachineParams& params) {
  size_t bytes = size_t{params.frames_per_module} * params.page_size_bytes;
  PLAT_CHECK_LE(bytes, SIZE_MAX / params.num_processors)
      << "the frames of " << params.num_processors << " nodes exceed the host address space";
  return bytes;
}

}  // namespace

Machine::Machine(const MachineParams& params)
    : params_([&] {
        params.Validate();
        return params;
      }()),
      obs_(params_.num_processors),
      scheduler_(params_.num_processors, params_.quantum_ns),
      frames_(params_.num_processors * ModuleBytes(params_)),
      interconnect_(params_, &modules_, &obs_) {
  auto* frames = static_cast<uint8_t*>(frames_.data());
  const size_t module_bytes = ModuleBytes(params_);
  modules_.reserve(params_.num_processors);
  for (int node = 0; node < params_.num_processors; ++node) {
    modules_.emplace_back(node, params_, frames + node * module_bytes);
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
