// Timestamp/lease coherence (PAPERS.md: Tardis), adapted to PLATINUM's
// physical-copy model.
//
// The fault handler (fault_handler.cc) resolves faults, and shootdown.cc
// takes translations away, exactly as under the directory protocol; what
// differs is when. The directory protocol interrupts the holders with a
// shootdown round: Cmap messages plus synchronous IPIs. Tardis instead
// charges *leases* in simulated time. Every mapping the fault handler grants
// extends the page's aggregate read lease or stamps a write lease (Granted),
// and before a transition destroys copies or downgrades the writer,
// AwaitRelease waits (AdvanceTo on the faulting fiber) until the victims'
// leases have expired, so the shared engine then scrubs the translations
// host-side — no messages, no interrupts, no interrupted-processor cost. The
// wait is the protocol's entire communication cost, which is what the
// abl_protocol ablation measures against the directory's IPI bill.
//
// Strict single-writer/multiple-reader over physical copies is preserved
// exactly as in the directory protocol (a scrub produces the same
// structural end state a shootdown round would), so final memory contents
// are identical under either protocol; only timing and the event mix
// differ. Two deliberate simplifications, both conservative:
//
//   * the read lease is an aggregate max over all copies, so a collapse
//     waits for the newest lease anywhere rather than per-victim leases;
//   * a read fault on a modified page with no local copy always downgrades
//     the writer (restrict) before mapping — a Tardis read must not
//     observe a page with a live write lease (RemoteReadSharesWriter() ==
//     false). This adds the (read, modified -> present1) spec row the
//     directory protocol lacks.
//
// Tardis never freezes pages: freezing exists to batch invalidation traffic
// the lease mechanism does not generate (UsesFreezing() == false; the thaw
// trigger has no rows in protocol_spec_tardis.json).
#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/mem/protocol.h"
#include "src/sim/machine.h"

namespace platinum::mem {

sim::SimTime DoublingLeasePolicy::NextLease(uint32_t cpage_id, bool is_write) {
  if (current_.size() <= cpage_id) {
    current_.resize(cpage_id + 1, 0);
  }
  if (current_[cpage_id] == 0) {
    current_[cpage_id] = base_ns_;
  }
  if (is_write) {
    current_[cpage_id] = base_ns_;
    return base_ns_;
  }
  sim::SimTime lease = current_[cpage_id];
  current_[cpage_id] = std::min(lease * 2, max_ns_);
  return lease;
}

TardisProtocol::TardisProtocol(std::unique_ptr<LeasePolicy> lease_policy)
    : lease_policy_(std::move(lease_policy)) {
  PLAT_CHECK(lease_policy_ != nullptr);
}

TardisProtocol::PageLease& TardisProtocol::lease(uint32_t cpage_id) {
  if (leases_.size() <= cpage_id) {
    leases_.resize(cpage_id + 1);
  }
  return leases_[cpage_id];
}

void TardisProtocol::Granted(const Cpage& page, bool write) {
  PageLease& l = lease(page.id());
  sim::SimTime until = machine_->scheduler().now() + lease_policy_->NextLease(page.id(), write);
  if (write) {
    l.write_until = until;
  } else {
    l.read_until = std::max(l.read_until, until);
  }
}

bool TardisProtocol::AwaitRelease(const Cpage& page, Release release) {
  // Victim copies of a collapse are read copies: the read lease bounds them.
  const PageLease& l = lease(page.id());
  sim::SimTime until = release == Release::kWriteRights    ? l.write_until
                       : release == Release::kCopyMappings ? l.read_until
                                                           : std::max(l.read_until, l.write_until);
  sim::Scheduler& sched = machine_->scheduler();
  sim::SimTime now = sched.now();
  if (until > now) {
    sched.AdvanceTo(until);
    sim::MachineStats& counters = machine_->stats(sched.current_processor_or(-1));
    ++counters.lease_waits;
    counters.lease_wait_ns += until - now;
  }
  return true;
}

}  // namespace platinum::mem
