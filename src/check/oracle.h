// Transition-level protocol invariant oracle.
//
// CoherentMemory::CheckInvariants validates the full cross-structure state:
// directory (Cpage) invariants, reference masks vs private Pmaps vs ATCs,
// the write-mapping census, rights domination (a read-write translation may
// exist only while the directory says the page is modified, which with the
// one-copy rule for modified pages gives "a writable copy implies exactly
// one copy"), and the frozen list. The oracle attaches that check to every
// completed protocol transition — fault resolution, defrost/thaw, pin,
// pre-replicate, unbind — so a violated invariant aborts at the transition
// that introduced it rather than at the end of the run.
//
// Transient mid-transition states (e.g. between a shootdown commit and the
// directory update that follows it) are deliberately not checked: the hook
// fires only when a top-level transition has completed, mirroring when the
// per-Cpage handler lock would be released on the real machine.
//
// In addition to the structural invariants, the oracle validates every
// per-page state *change* between consecutive hook firings against the
// machine-readable spec of the *active* protocol (src/mem/protocol_spec*.json
// via mem::ProtocolAllowsEdge, keyed by the ProtocolKind the memory system
// was built with): a page may only move along a (trigger, from, to) row that
// protocol's spec declares for the trigger the memory system reported with
// the transition that just completed. The implementation, this oracle, and
// the bounded explorer all consume the same generated tables, so a
// transition added to the code without a spec row — or an edge legal only
// under the *other* protocol — aborts here.
#ifndef SRC_CHECK_ORACLE_H_
#define SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/mem/coherent_memory.h"
#include "src/mem/protocol_spec.h"

namespace platinum::check {

class InvariantOracle {
 public:
  // Installs the transition hook on `memory`; detaches on destruction.
  explicit InvariantOracle(mem::CoherentMemory* memory);
  ~InvariantOracle();

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  // Runs the full invariant check once, outside any transition (e.g. at the
  // end of a run). Aborts with a diagnostic on violation.
  void CheckNow();

  uint64_t transitions_checked() const { return transitions_checked_; }

 private:
  // Diffs the per-page states against the shadow copy and checks every
  // changed page's edge against the spec rows of `trigger`.
  void CheckTransitionEdges(mem::ProtocolTrigger trigger);

  mem::CoherentMemory* memory_;
  // The active protocol's spec, snapshotted at attach.
  mem::ProtocolKind kind_;
  uint64_t transitions_checked_ = 0;
  // Per-page state as of the previous hook firing (pages created since are
  // empty, their creation state).
  std::vector<mem::CpageState> shadow_states_;
};

}  // namespace platinum::check

#endif  // SRC_CHECK_ORACLE_H_
