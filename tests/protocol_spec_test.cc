// Three-way consistency between the machine-readable protocol specs
// (src/mem/protocol_spec*.json, compiled to protocol_spec.gen.h), the
// implementations, and the correctness layer — per protocol:
//
//   * the bounded explorer's closed 2p/3p state spaces must traverse exactly
//     the active spec's read/write/thaw rows — a row the explorer never
//     takes is a spec claim the implementation does not honor, and an edge
//     outside the spec aborts the exploration itself;
//   * pin / replicate-to / unbind scenarios driven under the oracle must
//     complete (the oracle validates every per-page change against the spec
//     rows of the trigger that fired, keyed by the active ProtocolKind);
//   * a state mutation smuggled past the sanctioned funnel must abort at the
//     next transition with a protocol-spec violation — including an edge
//     that IS legal under the other protocol (the specs genuinely differ,
//     and the oracle enforces the one the kernel was booted with);
//   * the spec-level proofs (tools/gen_protocol_spec.py --verify, baked into
//     protocol_spec.gen.h) must agree with the concrete closures: a row the
//     symbolic closure covers but no exploration traverses would be a proof
//     about an idealized machine, and vice versa an unsound abstraction.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/check/oracle.h"
#include "src/mem/cpage.h"
#include "src/mem/protocol_spec.gen.h"
#include "src/mem/protocol_spec.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using test::RunInThread;
using test::TestSystem;

std::string EdgeName(const mem::ProtocolEdge& edge) {
  std::ostringstream out;
  out << mem::ProtocolTriggerName(edge.trigger) << ": " << mem::CpageStateName(edge.from)
      << " -> " << mem::CpageStateName(edge.to);
  return out.str();
}

std::string Describe(const std::set<mem::ProtocolEdge>& edges) {
  std::ostringstream out;
  for (const mem::ProtocolEdge& edge : edges) {
    out << "  " << EdgeName(edge) << "\n";
  }
  return out.str();
}

bool ExplorerCanDrive(mem::ProtocolTrigger trigger) {
  return trigger == mem::ProtocolTrigger::kRead || trigger == mem::ProtocolTrigger::kWrite ||
         trigger == mem::ProtocolTrigger::kThaw;
}

// The spec rows reachable through the explorer's alphabet (reads, writes,
// and thaws; pin/replicate-to/unbind are host-driven and covered below).
std::set<mem::ProtocolEdge> ExplorableSpecEdges(mem::ProtocolKind kind) {
  std::set<mem::ProtocolEdge> expected;
  for (const mem::ProtocolEdge& edge : mem::ProtocolEdges(kind)) {
    if (ExplorerCanDrive(edge.trigger)) {
      expected.insert(edge);
    }
  }
  return expected;
}

struct ClosureResult {
  std::set<mem::ProtocolEdge> observed;
  uint32_t state_mask = 0;
};

// Runs the standard closed-state-space set (three replication policies, the
// write-shared advice path, and a 3-processor run) under `protocol` and
// collects the union of observed edges. Every run must close before the
// depth bound for its edge set to count as the implementation's relation.
ClosureResult RunClosures(const std::string& protocol) {
  ClosureResult result;
  struct Run {
    const char* name;
    check::ExplorerConfig config;
  };
  std::vector<Run> runs;
  {
    check::ExplorerConfig c;
    c.processors = 2;
    c.pages = 1;
    c.protocol = protocol;
    c.policy = "timestamp";
    runs.push_back({"2p-timestamp", c});
    c.policy = "always";
    runs.push_back({"2p-always", c});
    c.policy = "never";
    runs.push_back({"2p-never", c});
    c.policy = "timestamp";
    c.advice = mem::MemoryAdvice::kWriteShared;
    runs.push_back({"2p-write-shared", c});
    c.advice = mem::MemoryAdvice::kDefault;
    c.processors = 3;
    runs.push_back({"3p-timestamp", c});
  }
  for (const Run& run : runs) {
    check::ExplorerResult r = check::ExploreProtocol(run.config);
    EXPECT_TRUE(r.exhaustive) << protocol << "/" << run.name << ": " << r.Summary();
    result.observed.insert(r.observed_edges.begin(), r.observed_edges.end());
    result.state_mask |= r.state_mask_seen;
  }
  return result;
}

// Compares a protocol's concrete closure against its spec and its baked-in
// symbolic proof, restricted to the explorer-drivable triggers.
void CheckClosureAgainstSpec(mem::ProtocolKind kind, const mem::spec_gen::SpecView& view,
                             const ClosureResult& closure) {
  std::set<mem::ProtocolEdge> expected = ExplorableSpecEdges(kind);
  std::set<mem::ProtocolEdge> missing;
  for (const mem::ProtocolEdge& edge : expected) {
    if (closure.observed.count(edge) == 0) {
      missing.insert(edge);
    }
  }
  std::set<mem::ProtocolEdge> extra;
  for (const mem::ProtocolEdge& edge : closure.observed) {
    if (expected.count(edge) == 0) {
      extra.insert(edge);
    }
  }
  EXPECT_TRUE(missing.empty()) << view.name
                               << " spec rows no closed exploration traversed (stale spec "
                                  "rows, or coverage regression):\n"
                               << Describe(missing);
  EXPECT_TRUE(extra.empty()) << "explored edges absent from the " << view.name << " spec:\n"
                             << Describe(extra);
  EXPECT_EQ(closure.state_mask, mem::ProtocolReachableStateMask(kind))
      << "explorer did not visit every state the " << view.name
      << " spec declares reachable";

  // Cross-check against the spec-level proof: within the explorer's alphabet
  // (read / write / thaw), a row is covered by the symbolic closure iff some
  // concrete exploration traversed it, and both closures see the same states.
  for (int i = 0; i < view.num_edges; ++i) {
    const mem::spec_gen::EdgeRow& row = view.edges[i];
    auto trigger = static_cast<mem::ProtocolTrigger>(row.trigger);
    if (!ExplorerCanDrive(trigger)) {
      continue;
    }
    mem::ProtocolEdge edge{trigger, static_cast<mem::CpageState>(row.from),
                           static_cast<mem::CpageState>(row.to)};
    bool proven = (view.proof_covered_row_mask >> i) & 1;
    EXPECT_EQ(proven, closure.observed.count(edge) == 1)
        << view.name << " " << EdgeName(edge)
        << ": symbolic closure and explorer closure disagree";
  }
  EXPECT_EQ(closure.state_mask, view.proof_state_mask)
      << view.name << ": symbolic closure reaches different states than the explorer";
}

// Every read/write/thaw row of the directory spec is traversed by some
// closed state space, and no exploration ever leaves the spec (the explorer
// aborts on an out-of-spec edge, so reaching the assertions below proves
// containment).
TEST(ProtocolSpecExplorerTest, DirectoryClosedStateSpacesCoverExactlyTheSpec) {
  ClosureResult closure = RunClosures("directory");
  CheckClosureAgainstSpec(mem::ProtocolKind::kDirectory, mem::spec_gen::kSpecs[0], closure);
}

// Same closure argument for the Tardis lease protocol. The run set matters:
// "2p-never" is what reaches (read, modified -> present1) — the reader maps
// the downgraded copy remotely instead of replicating — and the caching
// policies reach (read, modified -> present+). There are no thaw rows: a
// lease protocol never freezes, so the thaw third of the alphabet is
// structurally absent from its closed state spaces.
TEST(ProtocolSpecExplorerTest, TardisClosedStateSpacesCoverExactlyTheSpec) {
  ClosureResult closure = RunClosures("tardis");
  CheckClosureAgainstSpec(mem::ProtocolKind::kTardis, mem::spec_gen::kSpecs[1], closure);
}

// The baked-in proofs certify both specs in full: every event row is
// exercised by its symbolic closure, each state mask equals the spec's
// reachable mask, and the headline safety theorems are among the proved
// properties of each protocol.
TEST(ProtocolSpecProofTest, ProofCoversEveryRowAndProvesSafety) {
  for (const mem::spec_gen::SpecView& view : mem::spec_gen::kSpecs) {
    uint32_t all_rows = (uint32_t{1} << view.num_edges) - 1;
    EXPECT_EQ(view.proof_covered_row_mask, all_rows)
        << view.name << ": spec rows the symbolic closure never exercises";
    mem::ProtocolKind kind;
    ASSERT_TRUE(mem::ProtocolKindFromName(view.name, &kind));
    EXPECT_EQ(view.proof_state_mask, mem::ProtocolReachableStateMask(kind)) << view.name;
  }
  for (const char* const* names : {mem::spec_gen::directory::kProvedProperties,
                                   mem::spec_gen::tardis::kProvedProperties}) {
    std::set<std::string> properties;
    for (size_t i = 0; i < std::size(mem::spec_gen::directory::kProvedProperties); ++i) {
      properties.insert(names[i]);
    }
    for (const char* want : {"swmr", "rights-domination", "no-stuck-state"}) {
      EXPECT_EQ(properties.count(want), 1u) << "property not proved: " << want;
    }
  }
}

// The rows the two protocols disagree on — the edges the cross-protocol
// death tests below lean on. A lease protocol downgrades the writer on any
// remote read (modified -> present1 under 'read'); the directory protocol
// only leaves modified via restrict+replicate (-> present+) or a thaw. And
// only the directory protocol has thaw rows at all.
TEST(ProtocolSpecTest, SpecsDifferOnTheDistinguishingRows) {
  using mem::CpageState;
  using mem::ProtocolKind;
  using mem::ProtocolTrigger;
  EXPECT_FALSE(mem::ProtocolAllowsEdge(ProtocolKind::kDirectory, ProtocolTrigger::kRead,
                                       CpageState::kModified, CpageState::kPresent1));
  EXPECT_TRUE(mem::ProtocolAllowsEdge(ProtocolKind::kTardis, ProtocolTrigger::kRead,
                                      CpageState::kModified, CpageState::kPresent1));
  EXPECT_TRUE(mem::ProtocolAllowsEdge(ProtocolKind::kDirectory, ProtocolTrigger::kThaw,
                                      CpageState::kModified, CpageState::kPresent1));
  EXPECT_FALSE(mem::ProtocolAllowsEdge(ProtocolKind::kTardis, ProtocolTrigger::kThaw,
                                       CpageState::kModified, CpageState::kPresent1));
  // Shared rows stay shared: both protocols fill an empty page the same way.
  EXPECT_TRUE(mem::ProtocolAllowsEdge(ProtocolKind::kDirectory, ProtocolTrigger::kRead,
                                      CpageState::kEmpty, CpageState::kPresent1));
  EXPECT_TRUE(mem::ProtocolAllowsEdge(ProtocolKind::kTardis, ProtocolTrigger::kRead,
                                      CpageState::kEmpty, CpageState::kPresent1));
}

// Host-driven triggers: pin, replicate-to, and unbind, each exercised from
// every from-state its spec rows name, with the oracle attached throughout.
TEST(ProtocolSpecOracleTest, HostTriggersStayWithinSpec) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("spec");
  vm::MemoryObject* object = sys.kernel.CreateMemoryObject("spec-pages", 8);
  sys.kernel.Map(space, object, 0, 8, /*vpn=*/0, hw::Rights::kReadWrite);
  check::InvariantOracle oracle(&sys.kernel.memory());
  uint32_t page_size = sys.kernel.page_size();

  // pin: empty -> present1 (page 0 untouched before the pin).
  sys.kernel.PinMemory(space, 0 * page_size, /*node=*/1);
  // pin: present1 -> present1 on another node (migrate), then replicate-to:
  // present1 -> present+ is blocked by the pin's freeze, so thaw first.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.ReadWord(space, 1 * page_size); });
  sys.kernel.PinMemory(space, 1 * page_size, /*node=*/2);
  sys.kernel.ThawMemory(space, 1 * page_size);
  sys.kernel.ReplicateMemory(space, 1 * page_size, /*node=*/3);
  // pin: present+ -> present1 collapses the replicas again.
  sys.kernel.PinMemory(space, 1 * page_size, /*node=*/3);

  // replicate-to: modified -> present+ (restrict then replicate), then a
  // write takes it back and pin: modified -> present1.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 2 * page_size, 7); });
  sys.kernel.ReplicateMemory(space, 2 * page_size, /*node=*/2);
  RunInThread(sys.kernel, space, 1, [&] { sys.kernel.WriteWord(space, 2 * page_size, 8); });
  sys.kernel.PinMemory(space, 2 * page_size, /*node=*/0);

  // replicate-to: present+ -> present+ adds a third copy.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.ReadWord(space, 3 * page_size); });
  sys.kernel.ReplicateMemory(space, 3 * page_size, /*node=*/1);
  sys.kernel.ReplicateMemory(space, 3 * page_size, /*node=*/2);

  // unbind: modified -> present1 (write mappings die with the space's
  // translations), plus self-edges for the other bound pages.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 4 * page_size, 9); });
  sys.kernel.Unmap(space, /*vpn=*/0, /*num_pages=*/8);

  EXPECT_GT(oracle.transitions_checked(), 0u);
  oracle.CheckNow();
}

// The same host-trigger tour under the Tardis protocol: no pin ever freezes
// a page, so no thaw is needed between a pin and the replication that
// follows it, and the oracle validates every edge against the tardis spec.
TEST(ProtocolSpecOracleTest, TardisHostTriggersStayWithinSpec) {
  kernel::KernelOptions options;
  options.protocol = "tardis";
  TestSystem sys(4, std::move(options));
  auto* space = sys.kernel.CreateAddressSpace("spec-tardis");
  vm::MemoryObject* object = sys.kernel.CreateMemoryObject("spec-tardis-pages", 8);
  sys.kernel.Map(space, object, 0, 8, /*vpn=*/0, hw::Rights::kReadWrite);
  check::InvariantOracle oracle(&sys.kernel.memory());
  uint32_t page_size = sys.kernel.page_size();

  // pin: empty -> present1, then present1 -> present1 (migrate) and
  // replicate-to: present1 -> present+ with no thaw in between.
  sys.kernel.PinMemory(space, 0 * page_size, /*node=*/1);
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.ReadWord(space, 1 * page_size); });
  sys.kernel.PinMemory(space, 1 * page_size, /*node=*/2);
  sys.kernel.ReplicateMemory(space, 1 * page_size, /*node=*/3);
  // pin: present+ -> present1 collapses the replicas again.
  sys.kernel.PinMemory(space, 1 * page_size, /*node=*/3);

  // replicate-to: modified -> present+ (restrict then replicate),
  // then a write takes it back and pin: modified -> present1.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 2 * page_size, 7); });
  sys.kernel.ReplicateMemory(space, 2 * page_size, /*node=*/2);
  RunInThread(sys.kernel, space, 1, [&] { sys.kernel.WriteWord(space, 2 * page_size, 8); });
  sys.kernel.PinMemory(space, 2 * page_size, /*node=*/0);

  // replicate-to: present+ -> present+ adds a third copy.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.ReadWord(space, 3 * page_size); });
  sys.kernel.ReplicateMemory(space, 3 * page_size, /*node=*/1);
  sys.kernel.ReplicateMemory(space, 3 * page_size, /*node=*/2);

  // unbind: modified -> present1 plus self-edges for the other bound pages.
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 4 * page_size, 9); });
  sys.kernel.Unmap(space, /*vpn=*/0, /*num_pages=*/8);

  EXPECT_GT(oracle.transitions_checked(), 0u);
  oracle.CheckNow();
}

// A SetState outside the sanctioned funnel is caught at the next transition:
// the oracle's shadow diff sees an edge no spec row allows and aborts with a
// protocol-spec violation naming the page and the trigger.
TEST(ProtocolSpecOracleDeathTest, SmuggledMutationAbortsAtNextTransition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("smuggle");
  vm::MemoryObject* object = sys.kernel.CreateMemoryObject("smuggle-page", 1);
  sys.kernel.Map(space, object, 0, 1, /*vpn=*/0, hw::Rights::kReadWrite);
  check::InvariantOracle oracle(&sys.kernel.memory());
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 0, 1); });

  EXPECT_DEATH(
      {
        mem::Cmap& cm = sys.kernel.memory().cmap(space->id());
        uint32_t cpage = cm.entry(0).cpage;
        // Bypasses the funnel: no fault, no hook, shadow still says modified.
        sys.kernel.memory().cpages().at(cpage).SetState(mem::CpageState::kEmpty);
        sys.kernel.Unmap(space, /*vpn=*/0, /*num_pages=*/1);
      },
      "protocol-spec violation");
}

// The oracle enforces the ACTIVE spec, not the union of all specs: a
// (read, modified -> present1) edge is a legal restrict under tardis,
// but smuggled into a directory-protocol kernel it must still die. The
// smuggled downgrade is planted on page 0; the read that trips the shadow
// diff runs on page 1, so the trigger seen for page 0's edge is 'read'.
TEST(ProtocolSpecOracleDeathTest, DirectoryRejectsTardisOnlyEdge) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("cross-smuggle");
  vm::MemoryObject* object = sys.kernel.CreateMemoryObject("cross-smuggle-pages", 2);
  sys.kernel.Map(space, object, 0, 2, /*vpn=*/0, hw::Rights::kReadWrite);
  check::InvariantOracle oracle(&sys.kernel.memory());
  uint32_t page_size = sys.kernel.page_size();
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 0, 1); });

  EXPECT_DEATH(
      {
        mem::Cmap& cm = sys.kernel.memory().cmap(space->id());
        uint32_t cpage = cm.entry(0).cpage;
        sys.kernel.memory().cpages().at(cpage).SetState(mem::CpageState::kPresent1);
        RunInThread(sys.kernel, space, 1,
                    [&] { sys.kernel.ReadWord(space, 1 * page_size); });
      },
      "protocol-spec violation.*directory spec has no such row");
}

// And symmetrically under tardis: the funnel bypass dies against the tardis
// spec, by name, proving the oracle picked up the protocol the kernel was
// actually booted with.
TEST(ProtocolSpecOracleDeathTest, TardisSmuggledMutationAbortsAtNextTransition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  kernel::KernelOptions options;
  options.protocol = "tardis";
  TestSystem sys(2, std::move(options));
  auto* space = sys.kernel.CreateAddressSpace("smuggle-tardis");
  vm::MemoryObject* object = sys.kernel.CreateMemoryObject("smuggle-tardis-page", 1);
  sys.kernel.Map(space, object, 0, 1, /*vpn=*/0, hw::Rights::kReadWrite);
  check::InvariantOracle oracle(&sys.kernel.memory());
  RunInThread(sys.kernel, space, 0, [&] { sys.kernel.WriteWord(space, 0, 1); });

  EXPECT_DEATH(
      {
        mem::Cmap& cm = sys.kernel.memory().cmap(space->id());
        uint32_t cpage = cm.entry(0).cpage;
        sys.kernel.memory().cpages().at(cpage).SetState(mem::CpageState::kEmpty);
        sys.kernel.Unmap(space, /*vpn=*/0, /*num_pages=*/1);
      },
      "protocol-spec violation.*tardis spec has no such row");
}

}  // namespace
}  // namespace platinum
