// The paper's 4-state directory protocol (Sections 3.2 and 3.3), behind the
// CoherenceProtocol interface.
//
// The fault handler (fault_handler.cc) chooses between replicating,
// migrating and remote-mapping a page; this file supplies how the directory
// protocol takes copies and write mappings away: shootdown rounds
// (Section 3.1) — Cmap messages plus synchronous IPIs to the processors that
// hold translations and have the space active. A remote reader may share a
// writer's single copy (the page stays modified), and a granted mapping
// costs nothing later.
#include <vector>

#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

void DirectoryProtocol::DowngradeToRead(Cpage& page, int initiator) {
  CoherentMemory::ShootdownRound round;
  memory_->RestrictCpageToRead(page, initiator, &round);
  memory_->CommitShootdown(page, round, initiator);
  page.SetState(CpageState::kPresent1);  // protocol: restrict modified -> present1
}

uint32_t DirectoryProtocol::ReleaseAllMappings(Cpage& page, int initiator) {
  CoherentMemory::ShootdownRound round;
  memory_->InvalidateMappingsToCopy(page, /*module=*/-1, initiator, &round);
  memory_->CommitShootdown(page, round, initiator);
  return round.invalidated_translations;
}

uint32_t DirectoryProtocol::ReleaseCopyMappings(Cpage& page, const std::vector<int>& modules,
                                                int initiator) {
  CoherentMemory::ShootdownRound round;
  for (int module : modules) {
    memory_->InvalidateMappingsToCopy(page, module, initiator, &round);
  }
  memory_->CommitShootdown(page, round, initiator);
  return round.invalidated_translations;
}

uint32_t DirectoryProtocol::Collapse(Cpage& page, int keep_module, int initiator) {
  std::vector<int> victims;
  for (const PhysicalCopy& copy : page.copies()) {
    if (copy.module != keep_module) {
      victims.push_back(copy.module);
    }
  }
  uint32_t invalidated = ReleaseCopyMappings(page, victims, initiator);
  for (int module : victims) {
    memory_->FreeCopy(page, module);
  }
  page.SetState(CpageState::kPresent1);  // protocol: collapse present+ -> present1
  return invalidated;
}

}  // namespace platinum::mem
