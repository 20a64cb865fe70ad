// Coherent pages and the Cpage table.
//
// A coherent page (Cpage) is the unit of the coherent-memory abstraction: an
// ordered page of a memory object that may be backed by one or more physical
// pages on different nodes. Each Cpage-table entry holds the directory of
// physical copies, the protocol state (Section 3.2 of the paper), the
// freeze/invalidation history used by the replication policy (Section 4.2),
// and per-page statistics matching the kernel's post-mortem report.
#ifndef SRC_MEM_CPAGE_H_
#define SRC_MEM_CPAGE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace platinum::mem {

inline constexpr uint32_t kInvalidCpageId = UINT32_MAX;

// Protocol states, Section 3.2.
enum class CpageState : uint8_t {
  kEmpty,        // no physical pages back the Cpage
  kPresent1,     // exactly one physical copy; all mappings read-only
  kPresentPlus,  // two or more physical copies; all mappings read-only
  kModified,     // one physical copy; at least one mapping allows writes
};

const char* CpageStateName(CpageState state);

// Non-transparent placement hints (the kernel-interface extension sketched in
// Section 9, intended for language run-time systems rather than application
// programmers). Advice overrides the replication policy's fault-time choice.
enum class MemoryAdvice : uint8_t {
  kDefault,     // let the replication policy decide
  kReadMostly,  // replicate freely on read misses, never freeze on reads
  kWriteShared, // never cache; freeze in place at the first miss
  kPrivate,     // migrate freely toward the (single) user
};

struct PhysicalCopy {
  int16_t module = -1;
  uint32_t frame = 0;
};

// A (address space, virtual page) pair where this Cpage is bound. The
// coherency protocol must reach every address space that maps the page
// (Section 3.1).
struct CpageMapper {
  uint32_t as_id = 0;
  uint32_t vpn = 0;
};

// Per-page counters: the "detailed report on the behavior of memory
// management" of Section 4.2.
struct CpageStats {
  uint64_t faults = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t replications = 0;
  uint64_t migrations = 0;
  uint64_t remote_maps = 0;
  uint64_t invalidation_rounds = 0;  // coherence-driven invalidations
  uint64_t freezes = 0;
  uint64_t thaws = 0;
  // Contention in the Cpage fault handler for this page.
  uint64_t handler_waits = 0;
  sim::SimTime handler_wait_ns = 0;
};

class Cpage {
 public:
  explicit Cpage(uint32_t id, int16_t home_module)
      : id_(id), home_module_(home_module) {}

  uint32_t id() const { return id_; }
  // Node holding this Cpage's kernel data structures; faults handled on other
  // nodes pay remote-reference overhead (Section 4's 1.34 ms vs 1.38 ms).
  int16_t home_module() const { return home_module_; }

  CpageState state() const { return state_; }
  const std::vector<PhysicalCopy>& copies() const { return copies_; }
  bool HasCopyOn(int module) const { return (module_mask_ >> module) & 1; }
  std::optional<PhysicalCopy> FindCopy(int module) const;
  // The copy used as the source of replications / the survivor of collapses.
  const PhysicalCopy& PrimaryCopy() const;

  void AddCopy(PhysicalCopy copy);
  // Removes and returns the copy on `module`.
  PhysicalCopy RemoveCopy(int module);

  void SetState(CpageState state) { state_ = state; }

  // Write-mapping census, maintained by the mapping operations in
  // CoherentMemory. state == kModified iff one copy and write_mappings > 0.
  uint32_t write_mappings() const { return write_mappings_; }
  void AddWriteMapping() { ++write_mappings_; }
  void DropWriteMapping();

  // Freeze/thaw bookkeeping (Section 4.2).
  bool frozen() const { return frozen_; }
  void SetFrozen(bool frozen) { frozen_ = frozen; }
  // When the page was last frozen; drives the adaptive (per-page deadline)
  // defrost variant.
  sim::SimTime freeze_time() const { return freeze_time_; }
  void SetFreezeTime(sim::SimTime t) { freeze_time_ = t; }

  MemoryAdvice advice() const { return advice_; }
  void SetAdvice(MemoryAdvice advice) { advice_ = advice; }

  // History of coherence-driven invalidations used by the replication policy.
  bool ever_invalidated() const { return ever_invalidated_; }
  sim::SimTime last_invalidation() const { return last_invalidation_; }
  void RecordInvalidation(sim::SimTime now) {
    ever_invalidated_ = true;
    last_invalidation_ = now;
  }

  // Virtual time until which a fault on this page is serialized behind an
  // in-progress fault (handler contention, Section 5.1).
  sim::SimTime handler_busy_until = 0;

  const std::vector<CpageMapper>& mappers() const { return mappers_; }
  void AddMapper(CpageMapper mapper) { mappers_.push_back(mapper); }
  void RemoveMapper(uint32_t as_id, uint32_t vpn);

  CpageStats& stats() { return stats_; }
  const CpageStats& stats() const { return stats_; }

  // Aborts if the state/directory/write-mapping invariants (Section 3.2) do
  // not hold.
  void CheckInvariants() const;

 private:
  const uint32_t id_;
  const int16_t home_module_;
  CpageState state_ = CpageState::kEmpty;
  uint64_t module_mask_ = 0;
  std::vector<PhysicalCopy> copies_;
  uint32_t write_mappings_ = 0;
  bool frozen_ = false;
  sim::SimTime freeze_time_ = 0;
  MemoryAdvice advice_ = MemoryAdvice::kDefault;
  bool ever_invalidated_ = false;
  sim::SimTime last_invalidation_ = 0;
  std::vector<CpageMapper> mappers_;
  CpageStats stats_;
};

// The list of all coherent pages (Section 2.3). Deque keeps references stable
// while pages are created.
class CpageTable {
 public:
  explicit CpageTable(int num_modules) : num_modules_(num_modules) {}

  // Creates an empty Cpage whose kernel structures live on `home_module`
  // (round-robin across nodes when negative).
  uint32_t Create(int home_module = -1);

  Cpage& at(uint32_t id);
  const Cpage& at(uint32_t id) const;
  uint32_t size() const { return static_cast<uint32_t>(pages_.size()); }

  // Runs CheckInvariants on every page (used by tests after experiments).
  void CheckAllInvariants() const;

 private:
  const int num_modules_;
  std::deque<Cpage> pages_;
};

}  // namespace platinum::mem

#endif  // SRC_MEM_CPAGE_H_
