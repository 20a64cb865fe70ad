// The pluggable coherence-protocol layer.
//
// CoherentMemory's fault handler resolves every fault with one skeleton
// (fault_handler.cc): fill, local-copy probe, replicate, migrate, remote map.
// A CoherenceProtocol owns only what differs between protocols: how
// translations and copies are taken away when a transition needs them gone
// (DowngradeToRead, ReleaseAllMappings, ReleaseCopyMappings, Collapse), what
// a granted mapping costs later (Granted), and whether a remote reader may
// share a writer's copy (RemoteReadSharesWriter). The fault handler, defrost
// scanner and advice paths take translations away only through this
// interface (UnbindPage drops the unbound page's own translations directly);
// the concrete protocols are
//
//   * DirectoryProtocol — the paper's 4-state directory protocol with
//     shootdown IPIs and freeze/defrost (Sections 3.2-4.2);
//   * TardisProtocol — a timestamp/lease adaptation: per-page write
//     timestamps and per-copy read leases charged in simulated time, with
//     lease-expiry renewal on the fault path instead of invalidation
//     broadcasts (PAPERS.md: Tardis).
//
// Both protocols preserve strict single-writer/multiple-reader semantics
// over physical copies, so final memory contents are identical under either;
// only the simulated timing and the event mix differ. Each protocol carries
// its own machine-readable spec (src/mem/protocol_spec*.json, compiled and
// proved by tools/gen_protocol_spec.py); the invariant oracle, the bounded
// explorer and platlint's conformance rule are parametrized by the active
// spec via ProtocolKind.
#ifndef SRC_MEM_PROTOCOL_H_
#define SRC_MEM_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/cpage.h"
#include "src/mem/protocol_spec.h"
#include "src/sim/time.h"

namespace platinum::mem {

class CoherentMemory;

// Deterministic lease-duration policy hook for timestamp protocols: decides,
// per page and access kind, how long a granted lease lasts. Pure function of
// its own state and the arguments — no wall-clock, no randomness — so runs
// stay reproducible.
class LeasePolicy {
 public:
  virtual ~LeasePolicy() = default;
  virtual const char* name() const = 0;
  // Lease duration (simulated ns) for the lease being granted on `cpage_id`.
  virtual sim::SimTime NextLease(uint32_t cpage_id, bool is_write) = 0;
};

// Every lease lasts exactly `duration_ns`.
class FixedLeasePolicy : public LeasePolicy {
 public:
  explicit FixedLeasePolicy(sim::SimTime duration_ns) : duration_ns_(duration_ns) {}
  const char* name() const override { return "fixed"; }
  sim::SimTime NextLease(uint32_t, bool) override { return duration_ns_; }

 private:
  const sim::SimTime duration_ns_;
};

// Read leases double per renewal up to a cap (read-mostly pages converge to
// long leases); any write lease resets the page back to the base duration.
class DoublingLeasePolicy : public LeasePolicy {
 public:
  DoublingLeasePolicy(sim::SimTime base_ns, sim::SimTime max_ns)
      : base_ns_(base_ns), max_ns_(max_ns) {}
  const char* name() const override { return "doubling"; }
  sim::SimTime NextLease(uint32_t cpage_id, bool is_write) override;

 private:
  const sim::SimTime base_ns_;
  const sim::SimTime max_ns_;
  std::vector<sim::SimTime> current_;  // per-cpage, grown on demand
};

class CoherenceProtocol {
 public:
  virtual ~CoherenceProtocol() = default;

  virtual const char* name() const = 0;
  virtual ProtocolKind kind() const = 0;
  // Whether this protocol ever freezes pages (and hence needs the defrost
  // daemon). The advice path skips its pin-freeze and the fault path skips
  // MaybeFreeze when false.
  virtual bool UsesFreezing() const = 0;
  // Whether a read fault may map a modified page's single copy remotely
  // while the writer keeps its write mapping. When false, the fault handler
  // downgrades the writer (DowngradeToRead) before such a remote map.
  virtual bool RemoteReadSharesWriter() const = 0;

  // Called after every mapping the fault handler enters for `page`; `write`
  // is true for a read-write mapping.
  virtual void Granted(Cpage& page, bool write) = 0;

  // Takes the page from modified to present1: every write mapping becomes
  // read-only (shootdown round under the directory protocol, lease wait +
  // host-side scrub under Tardis) and the protocol state is updated.
  virtual void DowngradeToRead(Cpage& page, int initiator) = 0;
  // Removes every translation to the page (migrate, defrost and pin-migrate
  // paths). Leaves write_mappings at zero; does not change the protocol
  // state. Returns the number of translations taken away.
  virtual uint32_t ReleaseAllMappings(Cpage& page, int initiator) = 0;
  // Removes every translation to the page's copies on `modules` (collapse
  // paths). Does not change the protocol state. Returns the number of
  // translations taken away.
  virtual uint32_t ReleaseCopyMappings(Cpage& page, const std::vector<int>& modules,
                                       int initiator) = 0;
  // Collapses a replicated page to its copy on `keep_module`: releases the
  // translations to every other copy, frees those copies and sets present1.
  // Returns the number of translations taken away.
  virtual uint32_t Collapse(Cpage& page, int keep_module, int initiator) = 0;

  void Attach(CoherentMemory* memory) { memory_ = memory; }

 protected:
  CoherentMemory* memory_ = nullptr;
};

// The paper's protocol: directory states driven by shootdown rounds, with
// freezing of actively write-shared pages. Implementation in
// directory_protocol.cc.
class DirectoryProtocol : public CoherenceProtocol {
 public:
  const char* name() const override { return "directory"; }
  ProtocolKind kind() const override { return ProtocolKind::kDirectory; }
  bool UsesFreezing() const override { return true; }
  bool RemoteReadSharesWriter() const override { return true; }

  void Granted(Cpage&, bool) override {}
  void DowngradeToRead(Cpage& page, int initiator) override;
  uint32_t ReleaseAllMappings(Cpage& page, int initiator) override;
  uint32_t ReleaseCopyMappings(Cpage& page, const std::vector<int>& modules,
                               int initiator) override;
  uint32_t Collapse(Cpage& page, int keep_module, int initiator) override;
};

// Timestamp/lease protocol: transitions that the directory protocol resolves
// with invalidation IPIs instead wait (in simulated time) for the victims'
// leases to expire, then reclaim the translations host-side — no messages,
// no interrupts. Implementation in tardis_protocol.cc.
class TardisProtocol : public CoherenceProtocol {
 public:
  explicit TardisProtocol(std::unique_ptr<LeasePolicy> lease_policy);

  const char* name() const override { return "tardis"; }
  ProtocolKind kind() const override { return ProtocolKind::kTardis; }
  bool UsesFreezing() const override { return false; }
  bool RemoteReadSharesWriter() const override { return false; }

  // Extends the page's aggregate read lease, or stamps the write lease, per
  // the lease policy.
  void Granted(Cpage& page, bool write) override;
  void DowngradeToRead(Cpage& page, int initiator) override;
  uint32_t ReleaseAllMappings(Cpage& page, int initiator) override;
  uint32_t ReleaseCopyMappings(Cpage& page, const std::vector<int>& modules,
                               int initiator) override;
  uint32_t Collapse(Cpage& page, int keep_module, int initiator) override;

  LeasePolicy& lease_policy() { return *lease_policy_; }

 private:
  // Per-page lease state, charged entirely in simulated time.
  struct PageLease {
    sim::SimTime read_until = 0;   // latest read lease over all copies
    sim::SimTime write_until = 0;  // the writer's lease, when modified
  };
  PageLease& lease(uint32_t cpage_id);

  // Advances simulated time to the expiry of the given lease bound; the
  // fault-path replacement for a shootdown round's IPI round-trip.
  void WaitForLeaseExpiry(sim::SimTime until);

  std::unique_ptr<LeasePolicy> lease_policy_;
  std::vector<PageLease> leases_;  // indexed by cpage id, grown on demand
};

// Default lease duration when the caller does not override it: 50 us of
// simulated time, roughly 7x the directory protocol's shootdown round-trip,
// so lease waits and IPI costs are the same order of magnitude.
inline constexpr sim::SimTime kDefaultLeaseNs = 50'000;

// Factory keyed by the runtime protocol name ("directory" | "tardis").
// `lease_ns` <= 0 selects kDefaultLeaseNs; `lease_policy` is "fixed" or
// "doubling". Aborts on an unknown protocol or lease-policy name.
std::unique_ptr<CoherenceProtocol> MakeProtocol(const std::string& name,
                                                sim::SimTime lease_ns = 0,
                                                const std::string& lease_policy = "fixed");

}  // namespace platinum::mem

#endif  // SRC_MEM_PROTOCOL_H_
