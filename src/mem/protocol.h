// The pluggable coherence-protocol layer.
//
// CoherentMemory's fault handler resolves every fault with one skeleton
// (fault_handler.cc), and takes translations and copies away with one
// engine (shootdown.cc): DowngradeToRead, Collapse and the release of every
// mapping all run the same walkers and change the same page state under
// either protocol. A CoherenceProtocol owns only what differs, and changes
// no page:
//
//   * AwaitRelease — before translations are taken away, whether their
//     holders are interrupted by a shootdown round or the protocol waits
//     until their leases expire and they are scrubbed without one;
//   * Granted — what a granted mapping costs later;
//   * RemoteReadSharesWriter — whether a remote reader may share a
//     writer's copy;
//   * UsesFreezing — whether pages are ever frozen.
//
// The concrete protocols are
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

namespace platinum::sim {
class Machine;
}  // namespace platinum::sim

namespace platinum::mem {

// Deterministic lease-duration policy hook for timestamp protocols: decides,
// per page and access kind, how long a granted lease lasts. Pure function of
// its own state and the arguments — no wall-clock, no randomness — so runs
// stay reproducible.
class LeasePolicy {
 public:
  virtual ~LeasePolicy() = default;
  // Lease duration (simulated ns) for the lease being granted on `cpage_id`.
  virtual sim::SimTime NextLease(uint32_t cpage_id, bool is_write) = 0;
};

// Every lease lasts exactly `duration_ns`.
class FixedLeasePolicy : public LeasePolicy {
 public:
  explicit FixedLeasePolicy(sim::SimTime duration_ns) : duration_ns_(duration_ns) {}
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
  sim::SimTime NextLease(uint32_t cpage_id, bool is_write) override;

 private:
  const sim::SimTime base_ns_;
  const sim::SimTime max_ns_;
  std::vector<sim::SimTime> current_;  // per-cpage, grown on demand
};

// What a transition takes away from a page's translations, which decides
// how long a lease protocol must wait before it can do so.
enum class Release : uint8_t {
  kWriteRights,   // every write mapping becomes read-only (restrict)
  kAllMappings,   // every translation goes (migrate, thaw, pin-migrate)
  kCopyMappings,  // translations to some read copies go (collapse)
};

class CoherenceProtocol {
 public:
  virtual ~CoherenceProtocol() = default;

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
  virtual void Granted(const Cpage& page, bool write) = 0;

  // Called before `release` is taken away from `page`'s translations. False:
  // the holders are interrupted by a shootdown round. True: the protocol has
  // waited until no holder still relies on them, so they are scrubbed
  // without a round.
  virtual bool AwaitRelease(const Cpage& page, Release release) = 0;

  void Attach(sim::Machine* machine) { machine_ = machine; }

 protected:
  sim::Machine* machine_ = nullptr;
};

// The paper's protocol: directory states driven by shootdown rounds, with
// freezing of actively write-shared pages.
class DirectoryProtocol : public CoherenceProtocol {
 public:
  ProtocolKind kind() const override { return ProtocolKind::kDirectory; }
  bool UsesFreezing() const override { return true; }
  bool RemoteReadSharesWriter() const override { return true; }

  void Granted(const Cpage&, bool) override {}
  bool AwaitRelease(const Cpage&, Release) override { return false; }
};

// Timestamp/lease protocol: transitions that the directory protocol resolves
// with invalidation IPIs instead wait (in simulated time) for the victims'
// leases to expire, then reclaim the translations host-side — no messages,
// no interrupts. Implementation in tardis_protocol.cc.
class TardisProtocol : public CoherenceProtocol {
 public:
  explicit TardisProtocol(std::unique_ptr<LeasePolicy> lease_policy);

  ProtocolKind kind() const override { return ProtocolKind::kTardis; }
  bool UsesFreezing() const override { return false; }
  bool RemoteReadSharesWriter() const override { return false; }

  // Extends the page's aggregate read lease, or stamps the write lease, per
  // the lease policy.
  void Granted(const Cpage& page, bool write) override;
  // Advances simulated time to the expiry of the leases that `release`
  // takes away and counts the wait; always true.
  bool AwaitRelease(const Cpage& page, Release release) override;

 private:
  // Per-page lease state, charged entirely in simulated time.
  struct PageLease {
    sim::SimTime read_until = 0;   // latest read lease over all copies
    sim::SimTime write_until = 0;  // the writer's lease, when modified
  };
  PageLease& lease(uint32_t cpage_id);

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
