// Bounded model checker for the Cpage protocol state machine.
//
// Drives a tiny, freshly booted machine/kernel through interleavings of the
// protocol's external events — a read or write by any processor to any page,
// and an explicit thaw of a frozen page — and runs the full invariant oracle
// after every transition of every replayed sequence. States are abstracted
// to what the protocol itself distinguishes: per page, the Cpage state
// (empty / present1 / present+ / modified), the frozen flag, the set of
// modules holding a physical copy, and each processor's translation rights.
// Breadth-first search with deduplication on that abstraction keeps the
// number of replays near |states| x |alphabet|.
//
// "Exhaustive" means the frontier closed before the depth bound: every
// reachable abstract state had all of its successor events explored (from
// one concrete representative per abstract state — paths reaching the same
// abstraction with different virtual-time histories are merged).
#ifndef SRC_CHECK_EXPLORER_H_
#define SRC_CHECK_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/policy.h"
#include "src/mem/protocol_spec.h"

namespace platinum::check {

struct ExplorerConfig {
  int processors = 2;
  int pages = 1;
  // Maximum events per interleaving; the search is exhaustive iff no state
  // was left unexpanded at this depth.
  int max_depth = 32;
  // Replication policy driving the cache/don't-cache decision, by its
  // mem::MakePolicy name ("timestamp" freezes declined pages).
  std::string policy = "timestamp";
  // Coherence protocol the explored kernel is booted with ("directory" or
  // "tardis"). Observed edges are checked against this protocol's spec.
  std::string protocol = "directory";
  // Placement advice applied to every page before the run (kWriteShared
  // forces the never-cache + freeze path).
  mem::MemoryAdvice advice = mem::MemoryAdvice::kDefault;
};

struct ExplorerResult {
  uint64_t states_visited = 0;
  uint64_t transitions_explored = 0;  // abstract edges, each fully replayed
  uint64_t oracle_checks = 0;         // protocol transitions checked in replays
  int max_depth_reached = 0;
  bool exhaustive = false;
  // Deduplicated (trigger, from, to) edges of the explored pages, sorted;
  // self-edges of the event's target page are recorded too. Each edge was
  // checked against the active protocol's spec (src/mem/protocol_spec.json
  // or protocol_spec_tardis.json, per config.protocol) as it was replayed —
  // an edge outside that spec aborts the exploration.
  std::vector<mem::ProtocolEdge> observed_edges;
  // Bit i set iff mem::CpageState(i) appeared in some visited state.
  uint32_t state_mask_seen = 0;

  std::string Summary() const;
};

// Explores the protocol under `config`. Invariant violations abort with a
// diagnostic (via the oracle); a normal return means every reached state and
// every replayed transition passed the full invariant check.
ExplorerResult ExploreProtocol(const ExplorerConfig& config);

}  // namespace platinum::check

#endif  // SRC_CHECK_EXPLORER_H_
