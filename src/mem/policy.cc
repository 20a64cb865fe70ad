#include "src/mem/policy.h"

#include "src/base/check.h"

namespace platinum::mem {

bool TimestampPolicy::ShouldCache(const Cpage& page, bool, sim::SimTime now) {
  // Bounded clock skew between simulated processors can place `now` slightly
  // before the recorded invalidation; such a page is by definition hot.
  bool quiescent = !page.ever_invalidated() ||
                   (now >= page.last_invalidation() &&
                    now - page.last_invalidation() >= t1_);
  if (page.frozen()) {
    // Default PLATINUM behaviour: stay frozen until the defrost daemon thaws
    // the page. The variant thaws on any access after the t1 window.
    return thaw_on_access_ && quiescent;
  }
  return quiescent;
}

bool MigrateThenFreezePolicy::ShouldCache(const Cpage& page, bool is_write, sim::SimTime) {
  if (page.frozen()) {
    return false;  // frozen for good
  }
  // Pages never written replicate freely.
  if (page.stats().write_faults == 0 && !is_write) {
    return true;
  }
  return page.stats().migrations + page.stats().replications < max_migrations_;
}

std::unique_ptr<ReplicationPolicy> MakePolicy(const std::string& name, sim::SimTime t1) {
  if (name == "timestamp") {
    return std::make_unique<TimestampPolicy>(t1);
  }
  if (name == "timestamp-thaw") {
    return std::make_unique<TimestampPolicy>(t1, /*thaw_on_access=*/true);
  }
  if (name == "always") {
    return std::make_unique<AlwaysCachePolicy>();
  }
  if (name == "never") {
    return std::make_unique<NeverCachePolicy>();
  }
  if (name == "migrate-then-freeze") {
    return std::make_unique<MigrateThenFreezePolicy>(3);
  }
  PLAT_CHECK(false) << "unknown replication policy '" << name
                    << "' (want timestamp|timestamp-thaw|always|never|migrate-then-freeze)";
  return nullptr;
}

}  // namespace platinum::mem
