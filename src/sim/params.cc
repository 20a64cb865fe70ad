#include "src/sim/params.h"

#include "src/base/check.h"

namespace platinum::sim {

void MachineParams::Validate() const {
  PLAT_CHECK_GT(num_processors, 0);
  PLAT_CHECK_LE(num_processors, kMaxProcessors);
  PLAT_CHECK_GT(frames_per_module, 0u);
  PLAT_CHECK_GT(page_size_bytes, 0u);
  PLAT_CHECK_EQ(page_size_bytes % 4, 0u) << "pages must hold whole 32-bit words";
  PLAT_CHECK((page_size_bytes & (page_size_bytes - 1)) == 0) << "page size must be a power of 2";
  PLAT_CHECK_GT(atc_entries, 0u);
  PLAT_CHECK((atc_entries & (atc_entries - 1)) == 0) << "ATC must be a power-of-2 direct map";
  PLAT_CHECK_LE(block_bus_steal_permille, 1000u);
  PLAT_CHECK_GT(quantum_ns, SimTime{0});
  PLAT_CHECK_GE(defrost_processor, 0);
  PLAT_CHECK_LT(defrost_processor, num_processors);
}

MachineParams ButterflyPlusParams(int num_processors) {
  MachineParams params;
  params.num_processors = num_processors;
  return params;
}

}  // namespace platinum::sim
