// The PLATINUM kernel facade.
//
// Ties the layers together: the virtual memory system (memory objects,
// address spaces) on top, the coherent memory system in the middle, and the
// simulated machine at the bottom — the three-layer structure of Section 2.
// Also provides the thread and port abstractions and the global name space
// in which all kernel objects live.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/check.h"
#include "src/kernel/port.h"
#include "src/kernel/thread.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/policy.h"
#include "src/sim/machine.h"
#include "src/vm/address_space.h"
#include "src/vm/memory_object.h"

namespace platinum::check {
class RaceDetector;
}  // namespace platinum::check

namespace platinum::obs {
class PageTrace;
}  // namespace platinum::obs

namespace platinum::kernel {

struct KernelOptions {
  // Replication policy; defaults to the paper's timestamp policy with the
  // machine's t1.
  std::unique_ptr<mem::ReplicationPolicy> policy;
  // Coherence protocol: "directory" (the paper's shootdown protocol) or
  // "tardis" (timestamp leases — see docs/PROTOCOL.md).
  std::string protocol = "directory";
  // Tardis tuning: initial lease duration in simulated ns (0 = the protocol
  // default) and the lease policy, "fixed" or "doubling".
  sim::SimTime tardis_lease_ns = 0;
  std::string tardis_lease_policy = "fixed";
  // Start the defrost daemon at boot (Section 4.2). Disable for ablations.
  bool start_defrost_daemon = true;
  // Default virtual-address capacity of new address spaces, in pages.
  uint32_t address_space_pages = 16 * 1024;  // 64 MB of VA at 4 KB pages
};

class Kernel {
 public:
  explicit Kernel(sim::Machine* machine, KernelOptions options = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Machine& machine() { return *machine_; }
  mem::CoherentMemory& memory() { return *memory_; }
  sim::SimTime Now() const { return machine_->scheduler().now(); }
  int num_processors() const { return machine_->num_nodes(); }

  // --- Virtual memory ---------------------------------------------------------
  // Creates a memory object of `pages` pages. `home_module` places the pages'
  // kernel structures (round-robin across nodes when negative).
  vm::MemoryObject* CreateMemoryObject(std::string name, uint32_t pages, int home_module = -1);
  vm::AddressSpace* CreateAddressSpace(std::string name, uint32_t num_pages = 0);
  // Binds `num_pages` object pages starting at `object_page` to the virtual
  // range starting at page `vpn`.
  void Map(vm::AddressSpace* space, vm::MemoryObject* object, uint32_t object_page,
           uint32_t num_pages, uint32_t vpn, hw::Rights rights);
  // Removes the binding one Map made at `vpn` of `num_pages` pages and unbinds
  // its pages, so the range can be mapped again.
  void Unmap(vm::AddressSpace* space, uint32_t vpn, uint32_t num_pages);

  // --- Threads -----------------------------------------------------------------
  Thread* SpawnThread(vm::AddressSpace* space, int processor, std::string name,
                      std::function<void()> body);
  // The thread owning the calling fiber, or nullptr outside any thread.
  Thread* CurrentThread();
  // Blocks the calling thread until `thread` finishes.
  void JoinThread(Thread* thread);
  // Runs the machine until all threads complete.
  void Run();

  // --- Coherent memory access (32-bit words; `va` is a byte address) -----------
  uint32_t ReadWord(vm::AddressSpace* space, uint32_t va) {
    VaParts parts = Split(va);
    mem::CoherentMemory::AccessResult result =
        memory_->Access(space->id(), parts.vpn, parts.word_offset, sim::AccessKind::kRead);
    PLAT_CHECK(result.outcome == mem::AccessOutcome::kOk)
        << "read fault at va " << va << " in space '" << space->name() << "'";
    return result.value;
  }
  void WriteWord(vm::AddressSpace* space, uint32_t va, uint32_t value) {
    VaParts parts = Split(va);
    mem::CoherentMemory::AccessResult result = memory_->Access(
        space->id(), parts.vpn, parts.word_offset, sim::AccessKind::kWrite, value);
    PLAT_CHECK(result.outcome == mem::AccessOutcome::kOk)
        << "write fault at va " << va << " in space '" << space->name() << "'";
  }
  // Atomic read-modify-write (the Butterfly's atomic remote operations).
  // Returns the *previous* value.
  uint32_t AtomicFetchAdd(vm::AddressSpace* space, uint32_t va, uint32_t delta);
  // Returns the previous value, then stores 1 (spin-lock acquire primitive).
  uint32_t AtomicTestAndSet(vm::AddressSpace* space, uint32_t va);

  // --- Memory-placement hooks (Section 9) ---------------------------------------
  // Attaches placement advice to the pages covering [va, va + bytes).
  void AdviseMemory(vm::AddressSpace* space, uint32_t va, uint32_t bytes,
                    mem::MemoryAdvice advice);
  // Migrates the page holding `va` to `node` and freezes it there.
  void PinMemory(vm::AddressSpace* space, uint32_t va, int node);
  // Pre-replicates the page holding `va` onto `node`.
  void ReplicateMemory(vm::AddressSpace* space, uint32_t va, int node);
  // Explicitly thaws the page holding `va` (Section 4.2's thaw hook).
  void ThawMemory(vm::AddressSpace* space, uint32_t va);

  // --- Ports ---------------------------------------------------------------------
  Port* CreatePort(std::string name);
  void Send(Port* port, std::span<const uint32_t> message);
  std::vector<uint32_t> Receive(Port* port);

  // --- Correctness checking (src/check) ---------------------------------------
  // Creates and installs the simulated race detector (idempotent) as the
  // memory system's access observer, its only consumer. Previously
  // registered synchronization words and intentional-sharing annotations are
  // replayed into it. Enable before spawning the threads to be checked;
  // before or after AttachPageTrace makes no difference, since the page
  // trace takes no access callbacks.
  check::RaceDetector& EnableRaceDetection();
  // The installed detector, or nullptr when race detection is off.
  check::RaceDetector* race_detector() { return race_detector_.get(); }
  // Declares `count` words starting at `va` synchronization variables
  // (acquire on read, release on write). rt::SpinLock, rt::EventCountArray
  // and rt::Barrier register their words automatically; apps with hand-rolled
  // spin flags must call this themselves.
  void RegisterSyncWords(vm::AddressSpace* space, uint32_t va, uint32_t count);
  // Excludes [va, va + bytes) from race checking: the program shares these
  // words unsynchronized by design (e.g. chaotic relaxation).
  void AnnotateIntentionalSharing(vm::AddressSpace* space, uint32_t va, uint32_t bytes);

  // --- Forensics (src/obs/page_trace.h) ----------------------------------------
  // Installs `trace` as the memory system's page-event sink. The memory
  // system counts accesses and per-copy reads for it at their source, so it
  // leaves the access observer (the race detector) alone. The caller keeps
  // ownership and must outlive the run.
  void AttachPageTrace(obs::PageTrace* trace);

  // --- Name space ------------------------------------------------------------------
  vm::MemoryObject* FindMemoryObject(const std::string& name);
  Port* FindPort(const std::string& name);

  uint32_t page_size() const { return machine_->params().page_size_bytes; }
  uint32_t VpnOf(uint32_t va) const { return va >> page_shift_; }

 private:
  friend class Thread;

  struct VaParts {
    uint32_t vpn;
    uint32_t word_offset;
  };
  VaParts Split(uint32_t va) const {
    PLAT_DCHECK((va & 3u) == 0) << "unaligned word access at va " << va;
    return VaParts{va >> page_shift_, (va & (machine_->params().page_size_bytes - 1)) >> 2};
  }
  // Reads the word at `va`, then stores `update(old)`; returns the old value.
  template <typename Update>
  uint32_t AtomicReadModifyWrite(vm::AddressSpace* space, uint32_t va, Update update);
  void MigrateCurrentThread(Thread* thread, int new_processor);

  // A registered word range, kept so ranges declared before the detector is
  // enabled can be replayed into it.
  struct WordRange {
    uint32_t as_id;
    uint32_t va;
    uint32_t count;  // words
  };
  void ForwardSyncWords(const WordRange& range);
  void ForwardIntentionalSharing(const WordRange& range);

  sim::Machine* machine_;
  std::unique_ptr<mem::CoherentMemory> memory_;
  const uint32_t default_as_pages_;
  uint32_t page_shift_ = 0;

  std::vector<std::unique_ptr<vm::MemoryObject>> objects_;
  std::vector<std::unique_ptr<vm::AddressSpace>> spaces_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::unique_ptr<Port>> ports_;
  // Lookup-only (never iterated), so the hash order cannot affect the
  // simulation. nondet-ok: keyed lookup, no iteration.
  std::unordered_map<const sim::Fiber*, Thread*> thread_by_fiber_;

  std::vector<WordRange> sync_word_ranges_;
  std::vector<WordRange> intentional_ranges_;
  std::unique_ptr<check::RaceDetector> race_detector_;
};

}  // namespace platinum::kernel

#endif  // SRC_KERNEL_KERNEL_H_
