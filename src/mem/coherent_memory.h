// The coherent memory system (Sections 2-4 of the paper).
//
// CoherentMemory owns the Cpage table, the per-address-space Cmaps, the
// per-processor MMU state, the replication policy and the defrost daemon. It
// implements:
//   * the access path: ATC lookup -> Pmap walk -> coherent page fault;
//   * the data-coherency protocol (empty / present1 / present+ / modified)
//     driven by the page-fault handler, replicating, migrating or
//     remote-mapping pages (Sections 3.2, 3.3);
//   * the NUMA shootdown mechanism built on private per-processor Pmaps and
//     Cmap message queues (Section 3.1);
//   * freezing of actively write-shared pages and the defrost daemon that
//     thaws them (Section 4.2).
//
// All timing is charged to the faulting fiber as a consequence of the
// operations actually performed (words block-transferred, processors
// interrupted, frames freed), using the constants of sim::MachineParams.
#ifndef SRC_MEM_COHERENT_MEMORY_H_
#define SRC_MEM_COHERENT_MEMORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/check.h"
#include "src/base/discipline_lock.h"
#include "src/base/thread_annotations.h"
#include "src/hw/processor.h"
#include "src/mem/access_observer.h"
#include "src/mem/cmap.h"
#include "src/mem/cpage.h"
#include "src/mem/policy.h"
#include "src/mem/trace.h"
#include "src/sim/machine.h"

namespace platinum::mem {

class CoherenceProtocol;
class DirectoryProtocol;
class PageEventSink;
class TardisProtocol;

enum class AccessOutcome : uint8_t {
  kOk,
  kNoMapping,   // virtual page not bound to a coherent page
  kProtection,  // bound, but the VM-level rights forbid this access
};

class CoherentMemory {
 public:
  // `protocol` selects the coherence protocol (src/mem/protocol.h); nullptr
  // selects the paper's DirectoryProtocol.
  CoherentMemory(sim::Machine* machine, std::unique_ptr<ReplicationPolicy> policy,
                 std::unique_ptr<CoherenceProtocol> protocol = nullptr);
  ~CoherentMemory();

  CoherentMemory(const CoherentMemory&) = delete;
  CoherentMemory& operator=(const CoherentMemory&) = delete;

  sim::Machine& machine() { return *machine_; }
  ReplicationPolicy& policy() { return *policy_; }
  // The active coherence protocol (the spec the checkers validate against).
  CoherenceProtocol& protocol() { return *protocol_; }
  const CoherenceProtocol& protocol() const { return *protocol_; }
  CpageTable& cpages() { return cpages_; }
  const CpageTable& cpages() const { return cpages_; }
  hw::ProcessorMmu& mmu(int processor);

  // --- Setup -----------------------------------------------------------------
  // Registers an address space of `num_pages` virtual pages; returns its id.
  uint32_t RegisterAddressSpace(uint32_t num_pages);
  Cmap& cmap(uint32_t as_id) {
    PLAT_CHECK_LT(as_id, cmaps_.size());
    return *cmaps_[as_id];
  }
  const Cmap& cmap(uint32_t as_id) const {
    PLAT_CHECK_LT(as_id, cmaps_.size());
    return *cmaps_[as_id];
  }

  // Creates a coherent page whose kernel structures live on `home_module`
  // (round-robin when negative).
  uint32_t CreateCpage(int home_module = -1);
  // Binds `vpn` of address space `as_id` to `cpage` with VM-level `rights`.
  void BindPage(uint32_t as_id, uint32_t vpn, uint32_t cpage, hw::Rights rights);
  // Removes the binding, its translations everywhere, and the mapper record.
  void UnbindPage(uint32_t as_id, uint32_t vpn);

  // Activation census used to limit shootdown IPIs (Section 3.1). Called by
  // the thread layer when threads of the space start/stop running on a node.
  // Activation drains the Cmap message queue for that processor.
  void Activate(uint32_t as_id, int processor);
  void Deactivate(uint32_t as_id, int processor);

  // --- The access path ---------------------------------------------------------
  struct AccessResult {
    AccessOutcome outcome = AccessOutcome::kOk;
    uint32_t value = 0;  // loaded word, for reads
  };
  // One 32-bit access by the current fiber's processor. Resolves faults,
  // charges all latencies, moves real data. `allow_yield` lets the quantum
  // scheduler preempt after the access; read-modify-write sequences pass
  // false for all but the last access.
  //
  // Everything the MMU does in hardware is inline (docs/PERFORMANCE.md). An
  // ATC hit with sufficient rights goes straight to the reference. An ATC
  // miss walks the processor's private Pmap; a usable entry is loaded into
  // the ATC, charging the paper's fill cost, and the access goes on as a
  // hit would. Only a missing or too-weak Pmap translation traps into the
  // out-of-line AccessFault, mirroring the paper's cheap-hardware-path /
  // software-trap split.
  AccessResult Access(uint32_t as_id, uint32_t vpn, uint32_t word_offset, sim::AccessKind kind,
                      uint32_t write_value = 0, bool allow_yield = true) PLATINUM_MAY_YIELD {
    int processor = machine_->scheduler().current_processor();
    hw::Rights needed =
        kind == sim::AccessKind::kWrite ? hw::Rights::kReadWrite : hw::Rights::kRead;
    hw::Atc& atc = mmus_[processor].atc();
    const hw::PmapEntry* translation = atc.Lookup(as_id, vpn);
    if (translation != nullptr && Allows(translation->rights, needed)) [[likely]] {
      ++machine_->stats().atc_hits;
    } else {
      // An ATC miss: the slot held another page (or nothing), or its cached
      // rights were too weak to be used.
      ++machine_->stats().atc_misses;
      const hw::PmapEntry& pe = cmap(as_id).pmap(processor).entry(vpn);
      if (!pe.valid || !Allows(pe.rights, needed)) [[unlikely]] {
        return AccessFault(as_id, vpn, word_offset, kind, write_value, allow_yield, needed,
                           processor);
      }
      machine_->Compute(machine_->params().atc_fill_ns);
      atc.Fill(as_id, vpn, pe);
      translation = &pe;
    }
    return FinishAccess(as_id, vpn, word_offset, kind, write_value, allow_yield, *translation,
                        processor);
  }

  // Block access (the Butterfly's microcoded block transfer): performs `count`
  // consecutive word accesses starting at (vpn, word_offset), crossing page
  // boundaries as needed. Simulated behavior — stats, charged latencies,
  // faults, observer callbacks, trace events, yield points — is identical to
  // the equivalent word-by-word Access loop; only host-side dispatch overhead
  // is amortized (translation reuse within a page between switch points).
  // Stops at the first failing word and returns its outcome; earlier words
  // have already been transferred.
  AccessOutcome ReadRange(uint32_t as_id, uint32_t vpn, uint32_t word_offset, uint32_t count,
                          uint32_t* out, bool allow_yield = true) PLATINUM_MAY_YIELD;
  AccessOutcome WriteRange(uint32_t as_id, uint32_t vpn, uint32_t word_offset, uint32_t count,
                           const uint32_t* values, bool allow_yield = true) PLATINUM_MAY_YIELD;

  // The coherent page fault handler (public so microbenchmarks can measure a
  // single transition). On success the current processor holds a translation
  // permitting `kind`. A fault resolves synchronously on the faulting fiber:
  // waiting is modeled in virtual time (AdvanceTo), never by a fiber switch,
  // so the handler's updates to Cpage/Pmap/module state are atomic — the
  // paper's handler critical section. Enforced by tools/platlint.
  AccessOutcome HandleFault(uint32_t as_id, uint32_t vpn, sim::AccessKind kind)
      PLATINUM_NO_YIELD;

  // --- Non-transparent hooks (Section 9) -----------------------------------------
  // Attaches placement advice to `npages` coherent pages starting at `vpn`;
  // advice overrides the fault-time replication decision.
  void Advise(uint32_t as_id, uint32_t vpn, uint32_t npages, MemoryAdvice advice);
  // Moves the page backing `vpn` to `node` and freezes it there (for data a
  // runtime knows will be write-shared at fine grain). Charged to the caller.
  void PinTo(uint32_t as_id, uint32_t vpn, int node);
  // Pre-replicates the page backing `vpn` onto `node` (prefetch for
  // read-mostly data). No-op if a copy already exists there or the page is
  // empty. Charged to the caller.
  void ReplicateTo(uint32_t as_id, uint32_t vpn, int node);

  // --- Defrost (Section 4.2) ---------------------------------------------------
  // Spawns the defrost daemon fiber (idempotent). Without it frozen pages
  // stay frozen forever under the default policy.
  void StartDefrostDaemon();
  // One defrost pass: invalidates all translations to every frozen page and
  // thaws it. Runs on the caller (daemon or test). Returns pages thawed.
  size_t ThawAllFrozen();
  // Thaws a single page (the explicit "thaw" hook mentioned in Section 4.2).
  void Thaw(uint32_t cpage_id);
  // Thaws every page frozen at least `min_age` ago (adaptive-defrost pass).
  // Returns pages thawed.
  size_t ThawExpired(sim::SimTime min_age);
  size_t frozen_count() const {
    frozen_lock_.Acquire();
    size_t n = frozen_list_.size();
    frozen_lock_.Release();
    return n;
  }

  // --- Instrumentation (Sections 1.1, 9) -------------------------------------------
  // Starts recording protocol events into a bounded ring buffer.
  void EnableTracing(size_t capacity = 4096);
  // The trace log, or nullptr when tracing is off.
  TraceLog* trace() { return trace_.get(); }

  // --- Checking hooks (src/check) ----------------------------------------------
  // Installs an observer notified of every charged word access, after fault
  // resolution and before the reference is performed (race detection).
  void SetAccessObserver(AccessObserver* observer) { access_observer_ = observer; }
  // The currently installed observer (for consumers that chain, e.g. the
  // page-forensics layer keeping an existing race detector live).
  AccessObserver* access_observer() const { return access_observer_; }
  // Installs a streaming sink for protocol events and page bind/unbind
  // notifications (the obs-layer forensics). Sinks see every event the
  // TraceLog would record, whether or not tracing is enabled. Pass nullptr
  // to detach.
  void SetPageEventSink(PageEventSink* sink) { page_sink_ = sink; }
  // Installs a hook invoked after every completed protocol transition —
  // fault resolution, thaw, pin, pre-replicate, unbind — with a short name
  // for the transition (the invariant oracle). Pass nullptr to detach.
  using TransitionHook = std::function<void(const char* transition)>;
  void SetTransitionHook(TransitionHook hook) { transition_hook_ = std::move(hook); }

  // --- Introspection -------------------------------------------------------------
  uint32_t num_address_spaces() const { return static_cast<uint32_t>(cmaps_.size()); }
  // Cross-structure invariants: directory vs reference masks vs Pmaps vs ATCs.
  void CheckInvariants() const;

 private:
  // The concrete protocols drive the private fault-resolution helpers
  // (AllocateFrame, CopyInto, shootdown rounds, lease scrubs, ...) directly;
  // they are the protocol layer's implementation, split into their own
  // translation units.
  friend class DirectoryProtocol;
  friend class TardisProtocol;

  // One shootdown round accumulates targets across restrict/invalidate steps
  // so the initiator pays the setup latency once per fault.
  struct ShootdownRound {
    uint64_t interrupted_mask = 0;  // processors needing a synchronous IPI
    uint32_t messages_posted = 0;
    uint32_t invalidated_translations = 0;
    uint32_t restricted_translations = 0;
  };

  // ---- shootdown.cc ----
  // Downgrades every write mapping of `page` to read-only.
  void RestrictCpageToRead(Cpage& page, int initiator, ShootdownRound* round);
  // Removes every translation to `page`'s copy on `module`.
  void InvalidateMappingsToCopy(Cpage& page, int module, int initiator, ShootdownRound* round);
  // Removes every translation to `page` regardless of copy (defrost path).
  void InvalidateAllMappings(Cpage& page, int initiator, ShootdownRound* round);
  // Charges the initiator for the round's IPIs and bills handler time to the
  // interrupted processors.
  void CommitShootdown(const Cpage& page, const ShootdownRound& round, int initiator);
  // Lease-protocol scrubs: the structural effect of a shootdown with none of
  // its cost model — no IPIs, no messages, no interrupted processors. Used
  // after a lease wait has guaranteed no processor still relies on the
  // translations. Each charges per-translation directory bookkeeping and
  // returns the number of translations touched.
  uint32_t ScrubWriteMappings(Cpage& page);                  // RW -> R everywhere
  uint32_t ScrubMappingsToCopy(Cpage& page, int module);     // module < 0: all
  uint32_t ScrubAllMappings(Cpage& page);

  // ---- fault_handler.cc ----
  AccessOutcome HandleFaultLocked(Cmap& cm, CmapEntry& entry, Cpage& page, uint32_t vpn,
                                  sim::AccessKind kind, int processor);
  // Allocates a frame for `page`, preferring `preferred_module`; falls back
  // to the page's home module, then any module. Charges probe costs.
  std::optional<PhysicalCopy> AllocateFrame(Cpage& page, int preferred_module);
  // Creates the first physical copy of an empty page, zero-filled.
  PhysicalCopy InitialFill(Cpage& page, int processor);
  // Copies `page`'s primary copy onto `dst` with the block-transfer engine.
  void CopyInto(Cpage& page, const PhysicalCopy& dst);
  // Virtual time the current fault spent in block transfers. The transfer
  // happens *outside* the per-Cpage handler critical section (the paper's
  // pivot-row serialization is the source module's bus, not the handler
  // lock), so HandleFault excludes it from handler_busy_until.
  sim::SimTime fault_copy_ns_ = 0;
  void FreeCopy(Cpage& page, int module);
  // Records a protocol event into the trace ring (if tracing is enabled) and
  // fans it out to the page-event sink (if attached); the faulting fiber id
  // is captured automatically. A no-op when neither consumer is present.
  void Trace(TraceEventType type, const Cpage& page, int processor, uint32_t detail);
  // As Trace, for events not tied to a coherent page (defrost scans).
  void TraceGlobal(TraceEventType type, int processor, uint32_t detail);
  // Shared tail of Trace/TraceGlobal: builds the event once, then fans out.
  void EmitTrace(TraceEventType type, uint32_t cpage, int processor, uint32_t detail);
  // Invokes the transition hook, if any, at the end of a completed transition.
  void NotifyTransition(const char* transition) {
    if (transition_hook_) {
      transition_hook_(transition);
    }
  }
  // Central fault-time choice: advice first, then the replication policy.
  bool DecideCache(Cpage& page, const FaultInfo& fault, sim::SimTime now);
  // Marks the page frozen if the policy (or its advice) wants declined pages
  // frozen.
  void MaybeFreeze(Cpage& page);
  // Clears the frozen flag and removes the page from the defrost list.
  void Unfreeze(Cpage& page);

  // ---- coherent_memory.cc ----
  // The coherent page fault trap, taken by Access after it has counted the
  // ATC miss and found no usable translation in the processor's private Pmap.
  // Runs the fault handler, reads the resolved translation from the Pmap
  // once, reloads the ATC if the handler's fill did not survive, and
  // finishes the access. `needed` and `processor` are forwarded from Access
  // so neither is derived twice.
  AccessResult AccessFault(uint32_t as_id, uint32_t vpn, uint32_t word_offset,
                           sim::AccessKind kind, uint32_t write_value, bool allow_yield,
                           hw::Rights needed, int processor) PLATINUM_MAY_YIELD;
  // Tail of every access: observer callback, the reference itself (latency +
  // data), and the post-access yield point. `translation` must permit `kind`.
  // Forced inline: Access shares one copy between the hit and the Pmap
  // refill, and an out-of-line copy would put a call on the hit path.
  [[gnu::always_inline]] AccessResult FinishAccess(uint32_t as_id, uint32_t vpn,
                                                   uint32_t word_offset, sim::AccessKind kind,
                                                   uint32_t write_value, bool allow_yield,
                                                   const hw::PmapEntry& translation,
                                                   int processor) PLATINUM_MAY_YIELD {
    if (access_observer_ != nullptr) [[unlikely]] {
      NotifyAccessObserver(as_id, vpn, word_offset, kind, processor);
    }
    machine_->Reference(processor, translation.module, kind);
    AccessResult result;
    if (kind == sim::AccessKind::kRead) {
      result.value = machine_->ReadWordRaw(translation.module, translation.frame, word_offset);
    } else {
      machine_->WriteWordRaw(translation.module, translation.frame, word_offset, write_value);
    }
    if (allow_yield) {
      machine_->scheduler().MaybeYield();
    }
    return result;
  }
  // Out-of-line observer dispatch so the inline fast path stays small.
  void NotifyAccessObserver(uint32_t as_id, uint32_t vpn, uint32_t word_offset,
                            sim::AccessKind kind, int processor) PLATINUM_NO_YIELD;
  // Shared engine behind ReadRange/WriteRange. Exactly one of read_out /
  // write_in is non-null.
  AccessOutcome AccessRange(uint32_t as_id, uint32_t vpn, uint32_t word_offset, uint32_t count,
                            sim::AccessKind kind, uint32_t* read_out, const uint32_t* write_in,
                            bool allow_yield) PLATINUM_MAY_YIELD;
  // Installs a translation for (as, vpn) on `processor` and updates the
  // reference mask, write-mapping census and the processor's ATC.
  void EnterMapping(Cmap& cm, CmapEntry& entry, Cpage& page, uint32_t vpn, int processor,
                    const PhysicalCopy& copy, hw::Rights rights);
  // Charges the cost of consulting the Cpage entry (remote when its home is
  // another node).
  void ChargeCpageStructures(const Cpage& page, int processor);

  sim::Machine* machine_;
  std::unique_ptr<ReplicationPolicy> policy_;
  std::unique_ptr<CoherenceProtocol> protocol_;
  std::vector<hw::ProcessorMmu> mmus_;
  CpageTable cpages_;
  std::vector<std::unique_ptr<Cmap>> cmaps_;
  // Kernel lock for the defrost list: faults freeze pages while the defrost
  // daemon scans and thaws, and both sides' list updates are critical
  // sections (zero-cost under fiber serialization; see
  // src/base/discipline_lock.h).
  base::DisciplineLock frozen_lock_;
  std::vector<uint32_t> frozen_list_ GUARDED_BY(frozen_lock_);
  bool defrost_daemon_started_ = false;
  std::unique_ptr<TraceLog> trace_;
  AccessObserver* access_observer_ = nullptr;
  PageEventSink* page_sink_ = nullptr;
  TransitionHook transition_hook_;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_COHERENT_MEMORY_H_
