// The NUMA shootdown mechanism (Section 3.1).
//
// Because every processor has a private Pmap per address space, a shootdown
// updates Pmaps as well as ATCs. The initiator posts a Cmap message to every
// affected address space and synchronously interrupts only the processors
// that (a) appear in the reference mask of a Cmap entry for the page — i.e.
// actually hold a translation — and (b) currently have the space active.
// Inactive processors pick the change up from the message queue when they
// next activate the space. In this simulation the initiator applies the
// structural change for every target immediately (the lazily-applying
// processor cannot touch the page before activating, so this is
// behaviour-preserving); the *cost* model follows the paper: a setup charge
// per synchronous round plus ~7 us per interrupted processor.
//
// Every transition that takes translations away runs through TakeAway, for
// either protocol. The protocol's one answer (AwaitRelease) picks the round
// or a lease protocol's alternative: the same two walkers without a round,
// after the protocol has waited out the victims' leases — the same
// structural change, no messages and no IPIs, with only the per-translation
// directory bookkeeping charged.
#include <bit>
#include <vector>

#include "src/base/check.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

uint32_t CoherentMemory::TakeAway(Cpage& page, Release release, int initiator,
                                  const std::vector<int>& modules) {
  uint64_t interrupted = 0;
  uint64_t* round = protocol_->AwaitRelease(page, release) ? nullptr : &interrupted;
  uint32_t taken = 0;
  if (release == Release::kWriteRights) {
    taken = RestrictCpageToRead(page, initiator, round);
  } else if (release == Release::kAllMappings) {
    taken = InvalidateMappingsToCopy(page, /*module=*/-1, initiator, round);
  } else {
    for (int module : modules) {
      taken += InvalidateMappingsToCopy(page, module, initiator, round);
    }
  }
  if (taken == 0) {
    return 0;
  }
  if (round != nullptr) {
    CommitShootdown(page, interrupted, initiator);
  } else {
    Trace(TraceEventType::kLeaseExpire, page.id(), initiator, taken);
  }
  return taken;
}

void CoherentMemory::DowngradeToRead(Cpage& page, int initiator) {
  TakeAway(page, Release::kWriteRights, initiator);
  page.SetState(CpageState::kPresent1);  // protocol: restrict modified -> present1
}

uint32_t CoherentMemory::Collapse(Cpage& page, int keep_module, int initiator) {
  std::vector<int> victims;
  for (const PhysicalCopy& copy : page.copies()) {
    if (copy.module != keep_module) {
      victims.push_back(copy.module);
    }
  }
  uint32_t taken = TakeAway(page, Release::kCopyMappings, initiator, victims);
  for (int module : victims) {
    FreeCopy(page, module);
  }
  page.SetState(CpageState::kPresent1);  // protocol: collapse present+ -> present1
  return taken;
}

uint32_t CoherentMemory::RestrictCpageToRead(Cpage& page, int initiator,
                                             uint64_t* interrupted) {
  uint32_t restricted = 0;
  for (const CpageMapper& mapper : page.mappers()) {
    Cmap& cm = cmap(mapper.as_id);
    CmapEntry& entry = cm.entry(mapper.vpn);
    uint64_t changed = 0;
    for (int p = 0; p < machine_->num_nodes(); ++p) {
      if (((entry.reference_mask >> p) & 1) == 0) {
        continue;
      }
      hw::Pmap& pmap = cm.pmap(p);
      const hw::PmapEntry& pe = pmap.entry(mapper.vpn);
      PLAT_CHECK(pe.valid) << "reference mask bit without translation";
      if (pe.rights != hw::Rights::kReadWrite) {
        continue;
      }
      pmap.Restrict(mapper.vpn, hw::Rights::kRead);
      page.DropWriteMapping();
      mmus_[p].atc().FlushPage(mapper.as_id, mapper.vpn);
      changed |= uint64_t{1} << p;
      ++restricted;
      ++machine_->stats(initiator).mappings_restricted;
      if (interrupted != nullptr && p != initiator && cm.IsActive(p)) {
        *interrupted |= uint64_t{1} << p;
      }
    }
    if (interrupted != nullptr && changed != 0) {
      uint64_t lazy = changed & ~cm.active_mask();
      cm.PostMessage(CmapMessage{mapper.vpn, CmapMessage::Directive::kRestrictToRead, lazy});
    }
  }
  PLAT_CHECK_EQ(page.write_mappings(), 0u)
      << (interrupted != nullptr ? "restrict" : "scrub") << " left write mappings on cpage "
      << page.id();
  if (interrupted == nullptr) {
    machine_->Compute(static_cast<sim::SimTime>(restricted) * machine_->params().local_read_ns);
  }
  return restricted;
}

uint32_t CoherentMemory::InvalidateMappingsToCopy(Cpage& page, int module, int initiator,
                                                  uint64_t* interrupted) {
  uint32_t invalidated = 0;
  for (const CpageMapper& mapper : page.mappers()) {
    Cmap& cm = cmap(mapper.as_id);
    CmapEntry& entry = cm.entry(mapper.vpn);
    uint64_t changed = 0;
    for (int p = 0; p < machine_->num_nodes(); ++p) {
      if (((entry.reference_mask >> p) & 1) == 0) {
        continue;
      }
      hw::Pmap& pmap = cm.pmap(p);
      const hw::PmapEntry& pe = pmap.entry(mapper.vpn);
      PLAT_CHECK(pe.valid) << "reference mask bit without translation";
      if (module >= 0 && pe.module != module) {
        continue;
      }
      if (pe.rights == hw::Rights::kReadWrite) {
        page.DropWriteMapping();
      }
      pmap.Remove(mapper.vpn);
      entry.reference_mask &= ~(uint64_t{1} << p);
      mmus_[p].atc().FlushPage(mapper.as_id, mapper.vpn);
      changed |= uint64_t{1} << p;
      ++invalidated;
      ++machine_->stats(initiator).mappings_invalidated;
      if (interrupted != nullptr && p != initiator && cm.IsActive(p)) {
        *interrupted |= uint64_t{1} << p;
      }
    }
    if (interrupted != nullptr && changed != 0) {
      uint64_t lazy = changed & ~cm.active_mask();
      cm.PostMessage(CmapMessage{mapper.vpn, CmapMessage::Directive::kInvalidate, lazy});
    }
  }
  if (interrupted == nullptr) {
    machine_->Compute(static_cast<sim::SimTime>(invalidated) * machine_->params().local_read_ns);
  }
  return invalidated;
}

void CoherentMemory::CommitShootdown(const Cpage& page, uint64_t interrupted, int initiator) {
  const sim::MachineParams& params = machine_->params();
  sim::MachineStats& counters = machine_->stats(initiator);
  ++counters.shootdowns;
  int targets = std::popcount(interrupted);
  Trace(TraceEventType::kShootdown, page.id(), initiator, static_cast<uint32_t>(targets));
  if (interrupted != 0) {
    sim::SimTime round_cost =
        params.shootdown_setup_ns +
        static_cast<sim::SimTime>(targets) * params.shootdown_per_processor_ns;
    machine_->Compute(round_cost);
    // Initiator-side round-trip of a synchronous round (rounds that only
    // post lazy messages cost nothing and are not recorded).
    machine_->obs().RecordLatency(obs::HistKind::kShootdown, round_cost);
    counters.ipis_sent += static_cast<uint64_t>(targets);
    for (int p = 0; p < machine_->num_nodes(); ++p) {
      if ((interrupted >> p) & 1) {
        machine_->scheduler().AddInterruptCost(p, params.ipi_handler_ns);
        ++machine_->obs().ipis_received(p);
      }
    }
  }
}

}  // namespace platinum::mem
