// C++ view of the machine-readable protocol specs (protocol_spec*.json).
//
// Each coherence protocol carries a normative transition table as JSON
// (docs/PROTOCOL.md): protocol_spec.json for the 4-state directory protocol
// and protocol_spec_tardis.json for the timestamp/lease protocol.
// tools/gen_protocol_spec.py compiles them into protocol_spec.gen.h, and
// this header wraps the generated tables in typed queries parametrized by
// ProtocolKind. Three consumers share this one source of truth:
//
//   * the implementation — every Cpage::SetState site in src/mem carries a
//     `// protocol:` annotation that platlint's protocol-conformance rule
//     diffs against the specs' micro transitions;
//   * the invariant oracle (src/check/oracle) — validates every per-page
//     state change a completed transition produced against the active
//     protocol's composed rows for the trigger the transition reported;
//   * the bounded explorer (src/check/explorer) — records the (trigger,
//     from, to) edges it replays and checks each against the active spec;
//     the protocol_spec ctest proves the closed 2p/3p edge set equals the
//     spec's reachable relation, per protocol.
#ifndef SRC_MEM_PROTOCOL_SPEC_H_
#define SRC_MEM_PROTOCOL_SPEC_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/mem/cpage.h"

namespace platinum::mem {

// The committed protocols, in the order of the generated spec registry
// (spec_gen::kSpecs) and of the `protocol` field of the spec JSONs.
enum class ProtocolKind : uint8_t {
  kDirectory = 0,
  kTardis = 1,
};

const char* ProtocolKindName(ProtocolKind kind);

// Maps a runtime protocol name ("directory" | "tardis") to its kind.
// Returns false for unknown names.
bool ProtocolKindFromName(const char* name, ProtocolKind* out);

// External events that complete a protocol transition, in the order of the
// spec's trigger table. CoherentMemory's transition hook reports each
// completed transition with one of these. Both specs declare the same states
// and triggers — only the rows differ — so trigger indices are
// protocol-independent.
enum class ProtocolTrigger : uint8_t {
  kRead = 0,         // read-fault resolution
  kWrite = 1,        // write-fault resolution
  kThaw = 2,         // defrost or explicit thaw
  kPin = 3,          // CoherentMemory::PinTo
  kReplicateTo = 4,  // CoherentMemory::ReplicateTo (prefetch)
  kUnbind = 5,       // CoherentMemory::UnbindPage
};

// The spec's name for `trigger` ("read", "write", "thaw", "pin",
// "replicate-to", "unbind").
const char* ProtocolTriggerName(ProtocolTrigger trigger);

// True iff `kind`'s spec allows a page observed in `from` before the trigger
// to be in `to` when the transition hook fires (self-edges included).
bool ProtocolAllowsEdge(ProtocolKind kind, ProtocolTrigger trigger, CpageState from,
                        CpageState to);

// Bit i set iff CpageState(i) appears in some allowed transition of `kind`.
uint32_t ProtocolReachableStateMask(ProtocolKind kind);

// One composed (trigger, from, to) row of a spec.
struct ProtocolEdge {
  ProtocolTrigger trigger;
  CpageState from;
  CpageState to;

  friend bool operator==(const ProtocolEdge& a, const ProtocolEdge& b) {
    return a.trigger == b.trigger && a.from == b.from && a.to == b.to;
  }
  friend bool operator<(const ProtocolEdge& a, const ProtocolEdge& b) {
    return std::tuple(a.trigger, a.from, a.to) < std::tuple(b.trigger, b.from, b.to);
  }
};

// All rows of `kind`'s spec, sorted (stable across runs; the generator emits
// them in spec order, this accessor re-sorts for set comparisons).
const std::vector<ProtocolEdge>& ProtocolEdges(ProtocolKind kind);

}  // namespace platinum::mem

#endif  // SRC_MEM_PROTOCOL_SPEC_H_
