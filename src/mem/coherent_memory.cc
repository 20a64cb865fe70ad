#include "src/mem/coherent_memory.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/base/check.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

CoherentMemory::CoherentMemory(sim::Machine* machine, std::unique_ptr<ReplicationPolicy> policy,
                               std::unique_ptr<CoherenceProtocol> protocol)
    : machine_(machine),
      policy_(std::move(policy)),
      protocol_(std::move(protocol)),
      cpages_(machine->num_nodes()),
      frames_per_module_(machine->params().frames_per_module) {
  PLAT_CHECK(machine_ != nullptr);
  PLAT_CHECK(policy_ != nullptr);
  if (protocol_ == nullptr) {
    protocol_ = std::make_unique<DirectoryProtocol>();
  }
  protocol_->Attach(machine_);
  mmus_.reserve(machine_->num_nodes());
  for (int p = 0; p < machine_->num_nodes(); ++p) {
    mmus_.emplace_back(p, machine_->params().atc_entries);
  }
}

CoherentMemory::~CoherentMemory() = default;

hw::ProcessorMmu& CoherentMemory::mmu(int processor) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, static_cast<int>(mmus_.size()));
  return mmus_[processor];
}

uint32_t CoherentMemory::RegisterAddressSpace(uint32_t num_pages) {
  uint32_t as_id = static_cast<uint32_t>(cmaps_.size());
  cmaps_.push_back(std::make_unique<Cmap>(as_id, num_pages));
  return as_id;
}

uint32_t CoherentMemory::CreateCpage(int home_module) { return cpages_.Create(home_module); }

void CoherentMemory::BindPage(uint32_t as_id, uint32_t vpn, uint32_t cpage, hw::Rights rights) {
  PLAT_CHECK(rights != hw::Rights::kNone);
  Cmap& cm = cmap(as_id);
  CmapEntry& entry = cm.entry(vpn);
  PLAT_CHECK(!entry.bound()) << "vpn " << vpn << " of AS " << as_id << " already bound";
  entry.cpage = cpage;
  entry.rights = rights;
  entry.reference_mask = 0;
  cpages_.at(cpage).AddMapper(CpageMapper{as_id, vpn});
}

void CoherentMemory::UnbindPage(uint32_t as_id, uint32_t vpn) {
  Cmap& cm = cmap(as_id);
  CmapEntry& entry = cm.entry(vpn);
  PLAT_CHECK(entry.bound());
  Cpage& page = cpages_.at(entry.cpage);

  // Tear down every translation this space holds for the page.
  for (int p = 0; p < machine_->num_nodes(); ++p) {
    if (((entry.reference_mask >> p) & 1) == 0) {
      continue;
    }
    hw::Pmap& pmap = cm.pmap(p);
    const hw::PmapEntry& pe = pmap.entry(vpn);
    PLAT_CHECK(pe.valid);
    if (pe.rights == hw::Rights::kReadWrite) {
      page.DropWriteMapping();
    }
    pmap.Remove(vpn);
    mmus_[p].atc().FlushPage(as_id, vpn);
  }
  entry.reference_mask = 0;
  if (page.state() == CpageState::kModified && page.write_mappings() == 0) {
    page.SetState(CpageState::kPresent1);  // protocol: unbind-downgrade modified -> present1
  }
  page.RemoveMapper(as_id, vpn);
  // Unbind can run outside any fiber (address-space teardown from the host
  // harness), where there is no current processor to attribute.
  Trace(TraceEventType::kUnbind, page.id(), machine_->scheduler().current_processor_or(-1),
        as_id);
  entry = CmapEntry{};
  NotifyTransition(ProtocolTrigger::kUnbind);
}

void CoherentMemory::Activate(uint32_t as_id, int processor) {
  Cmap& cm = cmap(as_id);
  cm.Activate(processor);
  // A processor must apply pending Cmap messages before running any thread in
  // the space (Section 3.1). Structural changes were applied synchronously by
  // the initiator in this simulation, so acknowledging is bookkeeping only.
  cm.AcknowledgeMessages(processor);
}

void CoherentMemory::Deactivate(uint32_t as_id, int processor) {
  cmap(as_id).Deactivate(processor);
}

void CoherentMemory::EnterMapping(Cmap& cm, CmapEntry& entry, Cpage& page, uint32_t vpn,
                                  int processor, const PhysicalCopy& copy, hw::Rights rights) {
  PLAT_CHECK(rights != hw::Rights::kNone);
  PLAT_CHECK(page.HasCopyOn(copy.module));
  hw::Pmap& pmap = cm.pmap(processor);
  const hw::PmapEntry& old_entry = pmap.entry(vpn);
  if (old_entry.valid && old_entry.rights == hw::Rights::kReadWrite) {
    page.DropWriteMapping();
  }
  pmap.Enter(vpn, copy.module, copy.frame, rights);
  if (rights == hw::Rights::kReadWrite) {
    page.AddWriteMapping();
  }
  entry.reference_mask |= uint64_t{1} << processor;
  // Refresh the faulting processor's ATC so no stale translation survives.
  mmus_[processor].atc().Fill(cm.as_id(), vpn, pmap.entry(vpn));
}

void CoherentMemory::ChargeCpageStructures(const Cpage& page, int processor) {
  if (page.home_module() != processor) {
    machine_->Compute(machine_->params().fault_remote_extra_ns);
  }
}

CoherentMemory::AccessResult CoherentMemory::AccessFault(uint32_t as_id, uint32_t vpn,
                                                         uint32_t word_offset,
                                                         sim::AccessKind kind,
                                                         uint32_t write_value, bool allow_yield,
                                                         hw::Rights needed, int processor) {
  AccessOutcome outcome = HandleFault(as_id, vpn, kind);
  if (outcome != AccessOutcome::kOk) {
    return AccessResult{outcome, 0};
  }

  // One post-fault Pmap read (the handler may have replaced the entry, so the
  // pre-fault reference cannot be reused).
  const hw::PmapEntry& resolved = cmap(as_id).pmap(processor).entry(vpn);
  PLAT_CHECK(resolved.valid && Allows(resolved.rights, needed))
      << "fault handler left no usable translation for vpn " << vpn;
  // EnterMapping refreshed this processor's ATC at the end of the fault, but a
  // conflicting fill during the handler can have evicted it again.
  hw::Atc& atc = mmus_[processor].atc();
  const hw::PmapEntry* translation = atc.Lookup(as_id, vpn);
  if (translation == nullptr || !Allows(translation->rights, needed)) {
    atc.Fill(as_id, vpn, resolved);
  }
  return FinishAccess(as_id, vpn, word_offset, kind, write_value, allow_yield, resolved,
                      processor);
}

void CoherentMemory::NotifyAccessObserver(uint32_t as_id, uint32_t vpn, uint32_t word_offset,
                                          sim::AccessKind kind, int processor) {
  sim::Scheduler& sched = machine_->scheduler();
  const sim::Fiber* fiber = sched.current();
  access_observer_->OnMemoryAccess(MemoryAccess{as_id, vpn, word_offset,
                                                kind == sim::AccessKind::kWrite,
                                                fiber != nullptr ? fiber->id() : kNoFiber,
                                                processor, sched.now()});
}

AccessOutcome CoherentMemory::ReadRange(uint32_t as_id, uint32_t vpn, uint32_t word_offset,
                                        uint32_t count, uint32_t* out, bool allow_yield) {
  const uint32_t wpp = machine_->params().words_per_page();
  PLAT_CHECK_LT(word_offset, wpp);
  for (uint32_t i = 0; i < count; ++i) {
    AccessResult r = Access(as_id, vpn, word_offset, sim::AccessKind::kRead, 0, allow_yield);
    if (r.outcome != AccessOutcome::kOk) {
      return r.outcome;
    }
    out[i] = r.value;
    if (++word_offset == wpp) {
      word_offset = 0;
      ++vpn;
    }
  }
  return AccessOutcome::kOk;
}

AccessOutcome CoherentMemory::WriteRange(uint32_t as_id, uint32_t vpn, uint32_t word_offset,
                                         uint32_t count, const uint32_t* values,
                                         bool allow_yield) {
  const uint32_t wpp = machine_->params().words_per_page();
  PLAT_CHECK_LT(word_offset, wpp);
  for (uint32_t i = 0; i < count; ++i) {
    AccessResult r =
        Access(as_id, vpn, word_offset, sim::AccessKind::kWrite, values[i], allow_yield);
    if (r.outcome != AccessOutcome::kOk) {
      return r.outcome;
    }
    if (++word_offset == wpp) {
      word_offset = 0;
      ++vpn;
    }
  }
  return AccessOutcome::kOk;
}

void CoherentMemory::EnableTracing(size_t capacity) {
  trace_ = std::make_unique<TraceLog>(capacity);
}

void CoherentMemory::SetPageEventSink(PageEventSink* sink) {
  if (sink != nullptr && copy_reads_ == nullptr) {
    copy_reads_mapping_.emplace(machine_->params().total_frames() * sizeof(uint64_t));
    copy_reads_ = static_cast<uint64_t*>(copy_reads_mapping_->data());
  }
  page_sink_ = sink;
}

uint32_t CoherentMemory::TakeCopyReads(int module, uint32_t frame) {
  if (copy_reads_ == nullptr) {
    return 0;
  }
  uint64_t& count = copy_reads_[static_cast<size_t>(module) * frames_per_module_ + frame];
  uint64_t reads = std::min<uint64_t>(count, std::numeric_limits<uint32_t>::max());
  count = 0;
  return static_cast<uint32_t>(reads);
}

void CoherentMemory::Trace(TraceEventType type, uint32_t cpage, int processor,
                           uint32_t detail, uint32_t reads) {
  if (trace_ == nullptr && page_sink_ == nullptr) [[likely]] {
    return;
  }
  const sim::Fiber* fiber = machine_->scheduler().current();
  TraceEvent event{machine_->scheduler().now(), type, cpage, static_cast<int16_t>(processor),
                   detail, fiber != nullptr ? fiber->id() : 0, reads};
  if (trace_ != nullptr) {
    trace_->Record(event);
  }
  if (page_sink_ != nullptr) {
    page_sink_->OnPageEvent(event);
  }
}

void CoherentMemory::CheckInvariants() const {
  cpages_.CheckAllInvariants();

  // Recount write mappings and validate reference masks against Pmaps/ATCs.
  std::vector<uint32_t> write_mappings(cpages_.size(), 0);
  for (const auto& cm : cmaps_) {
    for (uint32_t vpn = 0; vpn < cm->num_pages(); ++vpn) {
      const CmapEntry& entry = cm->entry(vpn);
      if (!entry.bound()) {
        PLAT_CHECK_EQ(entry.reference_mask, uint64_t{0});
        continue;
      }
      const Cpage& page = cpages_.at(entry.cpage);
      for (int p = 0; p < machine_->num_nodes(); ++p) {
        bool referenced = (entry.reference_mask >> p) & 1;
        // A processor without a Pmap holds no translation.
        const hw::Pmap* pmap = cm->find_pmap(p);
        const hw::PmapEntry pe = pmap != nullptr ? pmap->entry(vpn) : hw::PmapEntry{};
        bool has_translation = pe.valid;
        if (pe.valid) {
          PLAT_CHECK(page.HasCopyOn(pe.module))
              << "pmap of cpu " << p << " maps vpn " << vpn << " to module " << pe.module
              << " which holds no copy of cpage " << entry.cpage;
          PLAT_CHECK(Allows(entry.rights, pe.rights))
              << "pmap rights exceed VM rights for vpn " << vpn;
          if (pe.rights == hw::Rights::kReadWrite) {
            // Rights domination: a writable translation may exist only
            // while the directory says the page is modified. Together with
            // the directory's one-copy rule for modified pages this gives
            // "a writable copy implies exactly one copy".
            PLAT_CHECK(page.state() == CpageState::kModified)
                << "cpu " << p << " holds a write mapping of vpn " << vpn << " but cpage "
                << entry.cpage << " is not in the modified state";
            ++write_mappings[entry.cpage];
          }
          // The physical frame must still belong to this coherent page.
          auto copy = page.FindCopy(pe.module);
          PLAT_CHECK(copy.has_value() && copy->frame == pe.frame);
        }
        PLAT_CHECK_EQ(referenced, has_translation)
            << "reference-mask mismatch for AS " << cm->as_id() << " vpn " << vpn << " cpu " << p;
        // A cached ATC translation must agree with the Pmap.
        const hw::PmapEntry* cached = mmus_[p].atc().Lookup(cm->as_id(), vpn);
        if (cached != nullptr) {
          PLAT_CHECK(has_translation) << "stale ATC entry for AS " << cm->as_id() << " vpn "
                                      << vpn << " cpu " << p;
          PLAT_CHECK_EQ(cached->module, pe.module);
          PLAT_CHECK_EQ(cached->frame, pe.frame);
          PLAT_CHECK(Allows(pe.rights, cached->rights)) << "ATC rights exceed Pmap rights";
        }
      }
    }
  }
  for (uint32_t id = 0; id < cpages_.size(); ++id) {
    PLAT_CHECK_EQ(write_mappings[id], cpages_.at(id).write_mappings())
        << "write-mapping census wrong for cpage " << id;
  }

  // Frozen list matches frozen flags.
  std::vector<bool> in_list(cpages_.size(), false);
  frozen_lock_.Acquire();
  for (uint32_t id : frozen_list_) {
    PLAT_CHECK(cpages_.at(id).frozen());
    PLAT_CHECK(!in_list[id]) << "cpage " << id << " twice in frozen list";
    in_list[id] = true;
  }
  frozen_lock_.Release();
  for (uint32_t id = 0; id < cpages_.size(); ++id) {
    if (cpages_.at(id).frozen()) {
      PLAT_CHECK(in_list[id]) << "frozen cpage " << id << " missing from defrost list";
    }
  }
}

}  // namespace platinum::mem
