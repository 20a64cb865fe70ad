// Replication policies (Section 4.2).
//
// On every coherent-memory fault with no local copy, a policy module decides
// between caching the page locally (replicate on a read miss, migrate on a
// write miss) and creating a mapping to an existing remote copy. PLATINUM's
// interim policy uses the timestamp of the most recent coherence-driven
// invalidation: pages invalidated less than t1 ago are frozen in place. The
// alternative policies here support the paper's ablation discussion
// (Section 8 contrasts Bolosky et al.'s migrate-then-freeze scheme; always-
// and never-replicate bound the design space).
#ifndef SRC_MEM_POLICY_H_
#define SRC_MEM_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/mem/cpage.h"
#include "src/sim/time.h"

namespace platinum::mem {

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;

  // True: give the faulting processor a local copy (replicate on a read
  // fault, migrate on a write fault). False: resolve the fault with a
  // mapping to an existing remote copy.
  virtual bool ShouldCache(const Cpage& page, bool is_write, sim::SimTime now) = 0;

  // Whether a declined page should be marked frozen and handed to the defrost
  // daemon (the PLATINUM behaviour), as opposed to simply staying put.
  virtual bool FreezeOnDecline() const { return true; }
};

// The paper's interim policy: cache unless the page was invalidated by the
// coherency protocol within the last t1. Once frozen, the default variant
// keeps creating remote mappings until the defrost daemon thaws the page;
// the thaw_on_access variant lets an access after t1 thaw it directly
// (Section 4.2 reports no significant difference between the two).
class TimestampPolicy : public ReplicationPolicy {
 public:
  explicit TimestampPolicy(sim::SimTime t1, bool thaw_on_access = false)
      : t1_(t1), thaw_on_access_(thaw_on_access) {}

  bool ShouldCache(const Cpage& page, bool is_write, sim::SimTime now) override;

 private:
  const sim::SimTime t1_;
  const bool thaw_on_access_;
};

// Upper bound of the design space: always replicate/migrate, never freeze.
// Degenerates badly under fine-grain write sharing.
class AlwaysCachePolicy : public ReplicationPolicy {
 public:
  bool ShouldCache(const Cpage&, bool, sim::SimTime) override { return true; }
  bool FreezeOnDecline() const override { return false; }
};

// Lower bound: the first touch places the page; every later miss uses a
// remote mapping. Approximates static placement with no data motion.
class NeverCachePolicy : public ReplicationPolicy {
 public:
  bool ShouldCache(const Cpage& page, bool, sim::SimTime) override {
    return page.state() == CpageState::kEmpty;  // someone must create the first copy
  }
  bool FreezeOnDecline() const override { return false; }
};

// Bolosky/Scott/Fitzgerald-style (Section 8): read-only pages replicate
// freely, but a page that has ever been written may move only
// `max_migrations` times before being frozen in place for good.
class MigrateThenFreezePolicy : public ReplicationPolicy {
 public:
  explicit MigrateThenFreezePolicy(uint32_t max_migrations) : max_migrations_(max_migrations) {}

  bool ShouldCache(const Cpage& page, bool is_write, sim::SimTime now) override;

 private:
  const uint32_t max_migrations_;
};

// Factory keyed by the runtime policy name: "timestamp", "timestamp-thaw"
// (TimestampPolicy with thaw on access), "always", "never" or
// "migrate-then-freeze" (three moves). `t1` is the timestamp policies'
// freeze window. Aborts on an unknown name.
std::unique_ptr<ReplicationPolicy> MakePolicy(const std::string& name, sim::SimTime t1);

}  // namespace platinum::mem

#endif  // SRC_MEM_POLICY_H_
