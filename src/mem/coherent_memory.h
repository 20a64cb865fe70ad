// The coherent memory system (Sections 2-4 of the paper).
//
// CoherentMemory owns the Cpage table, the per-address-space Cmaps, the
// per-processor MMU state, the replication policy and the defrost daemon. It
// implements:
//   * the access path: ATC lookup -> Pmap walk -> coherent page fault;
//   * the data-coherency protocol (empty / present1 / present+ / modified)
//     driven by the page-fault handler, replicating, migrating or
//     remote-mapping pages (Sections 3.2, 3.3) under the active coherence
//     protocol (protocol.h), which decides whether taking translations away
//     interrupts their holders or waits out their leases;
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

#include "src/base/anonymous_mapping.h"
#include "src/base/check.h"
#include "src/base/discipline_lock.h"
#include "src/base/thread_annotations.h"
#include "src/hw/processor.h"
#include "src/mem/access_observer.h"
#include "src/mem/cmap.h"
#include "src/mem/cpage.h"
#include "src/mem/page_event.h"
#include "src/mem/policy.h"
#include "src/mem/protocol_spec.h"
#include "src/mem/trace.h"
#include "src/sim/machine.h"

namespace platinum::mem {

class CoherenceProtocol;
enum class Release : uint8_t;  // protocol.h

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
      ++machine_->stats(processor).atc_hits;
    } else {
      // An ATC miss: the slot held another page (or nothing), or its cached
      // rights were too weak to be used.
      ++machine_->stats(processor).atc_misses;
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

  // A word loop: one Access per word over `count` consecutive words starting
  // at (vpn, word_offset), crossing page boundaries as needed, each passing
  // `allow_yield`. Stops at the first word whose outcome is not kOk and
  // returns that outcome; earlier words have already been accessed.
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
  // Aborts when the page needs a frame on `node` and the module is full.
  void PinTo(uint32_t as_id, uint32_t vpn, int node);
  // Pre-replicates the page backing `vpn` onto `node` (prefetch for
  // read-mostly data). No-op if a copy already exists there, the page is
  // empty or frozen, or the module is full. Charged to the caller.
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
  // Installs a streaming sink for protocol events (the obs-layer
  // forensics). Sinks see every event the TraceLog would record, whether or
  // not tracing is enabled. While a sink is attached the access path counts
  // each word access in the sink and each read in the served copy's frame;
  // a kPageFree event carries its copy's count. The first attach maps the
  // per-frame counters. Pass nullptr to detach.
  void SetPageEventSink(PageEventSink* sink);
  // Installs a hook invoked after every completed protocol transition —
  // fault resolution, thaw, pin, pre-replicate, unbind — with the spec
  // trigger that completed (the invariant oracle). Pass nullptr to detach.
  using TransitionHook = std::function<void(ProtocolTrigger trigger)>;
  void SetTransitionHook(TransitionHook hook) { transition_hook_ = std::move(hook); }

  // --- Introspection -------------------------------------------------------------
  // Cross-structure invariants: directory vs reference masks vs Pmaps vs ATCs.
  void CheckInvariants() const;

 private:
  // ---- shootdown.cc ----
  // Taking translations away, written once for every protocol.
  //
  // Takes the page from modified to present1: every write mapping becomes
  // read-only.
  void DowngradeToRead(Cpage& page, int initiator);
  // Collapses a replicated page to its copy on `keep_module`: takes away the
  // translations to every other copy, frees those copies and sets present1.
  // Returns the number of translations taken away.
  uint32_t Collapse(Cpage& page, int keep_module, int initiator);
  // The engine behind both and behind the migrate, thaw and pin-migrate
  // paths (kAllMappings), which set the state themselves. Asks the protocol
  // whether to run a shootdown round or to scrub after a lease wait and runs
  // the walker (kCopyMappings: once per module in `modules`, all in one
  // round, so the initiator pays the setup charge once). When it took a
  // translation away, it commits the round or traces the lease expiry.
  // Returns the translations changed.
  uint32_t TakeAway(Cpage& page, Release release, int initiator,
                    const std::vector<int>& modules = {});
  // One walker per kind of change, shared by shootdown rounds and lease
  // scrubs. In a round, each posts the Cmap messages and adds the active
  // processors whose translations it changed to `interrupted`, the round's
  // synchronous IPI targets. With nullptr (a lease scrub, after a lease wait
  // has guaranteed no processor still relies on the translations) each
  // applies the same structural change with none of the round's cost model
  // and charges per-translation directory bookkeeping. Both return the
  // number of translations changed.
  //
  // Downgrades every write mapping of `page` to read-only.
  uint32_t RestrictCpageToRead(Cpage& page, int initiator, uint64_t* interrupted);
  // Removes every translation to `page`'s copy on `module` (module < 0: to
  // every copy).
  uint32_t InvalidateMappingsToCopy(Cpage& page, int module, int initiator,
                                    uint64_t* interrupted);
  // Counts a round that took translations away, charges the initiator for
  // its IPIs and bills handler time to the `interrupted` processors.
  void CommitShootdown(const Cpage& page, uint64_t interrupted, int initiator);

  // ---- fault_handler.cc ----
  // Fault resolution, one skeleton for every protocol: fill, local-copy
  // probe, replicate or migrate, remote map. Each returns the copy that
  // HandleFault maps for the faulting processor (read-only for a read fault,
  // read-write for a write fault) and the protocol grants. The protocol
  // supplies whether taking translations away waits on leases and what a
  // grant costs.
  PhysicalCopy ResolveReadFault(Cpage& page, int processor);
  PhysicalCopy ResolveWriteFault(Cpage& page, int processor);
  // The four page moves, shared by the fault resolvers and the Section 9
  // hooks. Each does its copy work, counts it for the processor making the
  // move and traces it; the caller sets the page state.
  //
  // Fill: zero-fills `frame` as the first copy of an empty page and returns
  // it. Aborts when no frame could be allocated.
  PhysicalCopy Fill(Cpage& page, std::optional<PhysicalCopy> frame, int initiator);
  // Replicate: adds `dst` as another copy, block-transferred from an
  // existing one; a modified page is first downgraded to read-only.
  void Replicate(Cpage& page, const PhysicalCopy& dst, int initiator);
  // Migrate: takes away every translation, moves the data to `dst` and frees
  // every old copy. Returns the translations taken away.
  uint32_t Migrate(Cpage& page, const PhysicalCopy& dst, int initiator);
  // Remote map: returns the primary copy for a mapping from another node; a
  // page the policy `declined` to cache may freeze (MaybeFreeze).
  PhysicalCopy MapRemote(Cpage& page, int processor, bool declined);
  // The copy of `page` on `processor`'s own module, located through the
  // local inverted page table and charged as local references.
  PhysicalCopy LocalCopy(const Cpage& page, int processor);
  // Allocates a frame for `page`, preferring `preferred_module`; falls back
  // to the page's home module, then any module. Charges probe costs.
  std::optional<PhysicalCopy> AllocateFrame(Cpage& page, int preferred_module);
  // Allocates a frame for `page` on `module` only; nullopt when the module is
  // full or already holds a copy. Charges the inverted-page-table probes as
  // local references from `requester`'s node, remote ones otherwise.
  std::optional<PhysicalCopy> AllocateFrameOn(Cpage& page, int module, int requester);
  // Copies `page`'s primary copy onto `dst` with the block-transfer engine.
  void CopyInto(Cpage& page, const PhysicalCopy& dst);
  // Virtual time the current fault spent in block transfers. The transfer
  // happens *outside* the per-Cpage handler critical section (the paper's
  // pivot-row serialization is the source module's bus, not the handler
  // lock), so HandleFault excludes it from handler_busy_until.
  sim::SimTime fault_copy_ns_ = 0;
  void FreeCopy(Cpage& page, int module);
  // Records a protocol event on `cpage` (kTraceNoCpage for a machine-wide
  // event) into the trace ring (if tracing is enabled) and fans it out to the
  // page-event sink (if attached); the faulting fiber id is captured
  // automatically. A no-op when neither consumer is present. `reads` is set
  // for kPageFree only (TraceEvent::reads).
  void Trace(TraceEventType type, uint32_t cpage, int processor, uint32_t detail,
             uint32_t reads = 0);
  // The reads the copy in (module, frame) served while a sink was attached,
  // saturating at UINT32_MAX; zeroes the count for the frame's next copy.
  uint32_t TakeCopyReads(int module, uint32_t frame);
  // Invokes the transition hook, if any, at the end of a completed transition.
  void NotifyTransition(ProtocolTrigger trigger) {
    if (transition_hook_) {
      transition_hook_(trigger);
    }
  }
  // Central fault-time choice: advice first, then the replication policy.
  bool DecideCache(const Cpage& page, bool is_write, sim::SimTime now);
  // Marks the page frozen if the policy (or its advice) wants declined pages
  // frozen.
  void MaybeFreeze(Cpage& page);
  // Freezes `page` and puts it on the defrost list, counted for `processor`.
  void Freeze(Cpage& page, int processor);
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
  // Tail of every access: observer callback, the page-event sink's counts,
  // the reference itself (latency + data), and the post-access yield point.
  // `translation` must permit `kind`.
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
    if (page_sink_ != nullptr) [[unlikely]] {
      CountForSink(kind, translation.module, translation.frame);
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
  // Counts one access for the attached page-event sink and, for a read, one
  // read served by the copy in (module, frame).
  [[gnu::always_inline]] void CountForSink(sim::AccessKind kind, uint32_t module,
                                           uint32_t frame) {
    page_sink_->CountAccess();
    if (kind == sim::AccessKind::kRead) {
      ++copy_reads_[module * frames_per_module_ + frame];
    }
  }
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
  // Reads served by each frame's current copy while a sink was attached,
  // indexed module * frames_per_module_ + frame. Mapped at the first sink
  // attach (zero pages on first touch), so a run without a sink pays nothing.
  std::optional<base::AnonymousMapping> copy_reads_mapping_;
  uint64_t* copy_reads_ = nullptr;
  const size_t frames_per_module_;
  TransitionHook transition_hook_;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_COHERENT_MEMORY_H_
