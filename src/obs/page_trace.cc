#include "src/obs/page_trace.h"

#include <algorithm>

#include "src/obs/json.h"

namespace platinum::obs {

PageTrace::PageTrace(PageTraceOptions options)
    : options_(options), ring_(options.ring_capacity) {}

PageTrace::PageRollup* PageTrace::RollupFor(uint32_t cpage) {
  if (cpage >= options_.max_pages) {
    return nullptr;
  }
  if (cpage >= rollups_.size()) {
    rollups_.resize(cpage + 1);
  }
  return &rollups_[cpage];
}

const PageTrace::PageRollup* PageTrace::rollup(uint32_t cpage) const {
  if (cpage >= rollups_.size() || rollups_[cpage].events == 0) {
    return nullptr;
  }
  return &rollups_[cpage];
}

size_t PageTrace::pages_tracked() const {
  size_t n = 0;
  for (const PageRollup& r : rollups_) {
    if (r.events > 0) {
      ++n;
    }
  }
  return n;
}

void PageTrace::OnPageEvent(const mem::TraceEvent& event) {
  ring_.Record(event);
  if (event.cpage == mem::kTraceNoCpage) {
    return;  // machine-wide event (defrost scan); nothing per-page to roll up
  }
  PageRollup* r = RollupFor(event.cpage);
  if (r == nullptr) {
    ++rollups_dropped_;
    return;
  }
  if (r->events == 0) {
    r->first_event_ns = event.time;
  }
  ++r->events;
  r->last_event_ns = event.time;
  UpdateDetectors(*r, event);
}

void PageTrace::UpdateDetectors(PageRollup& r, const mem::TraceEvent& event) {
  switch (event.type) {
    case mem::TraceEventType::kFault:
      ++r.faults;
      if (event.detail == 1) {
        ++r.write_faults;
        // Each write fault from a new processor invalidated the previous
        // writer's mapping: one write-invalidate alternation.
        if (r.last_writer >= 0 && event.processor != r.last_writer) {
          ++r.write_alternations;
        }
        r.last_writer = event.processor;
      } else {
        ++r.read_faults;
      }
      break;
    case mem::TraceEventType::kFill:
      ++r.fills;
      break;
    case mem::TraceEventType::kReplicate:
      ++r.replications;
      ++r.replicas_created;
      r.live_replicas.push_back(static_cast<int16_t>(event.detail));
      break;
    case mem::TraceEventType::kMigrate:
      ++r.migrations;
      break;
    case mem::TraceEventType::kRemoteMap:
      ++r.remote_maps;
      break;
    case mem::TraceEventType::kFreeze:
      ++r.freezes;
      r.frozen = true;
      break;
    case mem::TraceEventType::kThaw:
      ++r.thaws;
      if (r.frozen) {
        r.frozen = false;
        ++r.freeze_cycles;
      }
      break;
    case mem::TraceEventType::kShootdown:
      ++r.shootdowns;
      break;
    case mem::TraceEventType::kLeaseExpire:
      // Lease reclamation is not an invalidation IPI; kept separate so the
      // ping-pong detector keyed on shootdowns stays meaningful under tardis.
      ++r.lease_expiries;
      break;
    case mem::TraceEventType::kDefrostScan:
      break;  // machine-wide; never reaches here (no cpage)
    case mem::TraceEventType::kPageFree: {
      ++r.frees;
      auto it = std::find(r.live_replicas.begin(), r.live_replicas.end(),
                          static_cast<int16_t>(event.detail));
      if (it != r.live_replicas.end()) {
        // <= 1: at most the faulting read that created the replica — the
        // copy was torn down before it ever served an independent read.
        if (event.reads <= 1) {
          ++r.replicas_wasted;
        }
        r.live_replicas.erase(it);
      }
      break;
    }
    case mem::TraceEventType::kPin:
      ++r.pins;
      break;
    case mem::TraceEventType::kUnbind:
      ++r.unbinds;
      break;
  }
}

std::vector<uint32_t> PageTrace::Flagged(Detector detector) const {
  std::vector<uint32_t> out;
  for (uint32_t id = 0; id < rollups_.size(); ++id) {
    if (rollups_[id].events > 0 && (this->*detector)(rollups_[id])) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<uint32_t> PageTrace::FlaggedPingPong() const { return Flagged(&PageTrace::IsPingPong); }

std::vector<uint32_t> PageTrace::FlaggedFreezeChurn() const {
  return Flagged(&PageTrace::IsFreezeChurn);
}

std::vector<uint32_t> PageTrace::FlaggedReplicationWaste() const {
  return Flagged(&PageTrace::IsReplicationWaste);
}

std::vector<uint32_t> PageTrace::TopPages() const {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < rollups_.size(); ++id) {
    if (rollups_[id].events > 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    const PageRollup& ra = rollups_[a];
    const PageRollup& rb = rollups_[b];
    if (ra.faults != rb.faults) {
      return ra.faults > rb.faults;
    }
    if (ra.events != rb.events) {
      return ra.events > rb.events;
    }
    return a < b;
  });
  if (ids.size() > options_.top_k) {
    ids.resize(options_.top_k);
  }
  return ids;
}

std::string PageTrace::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("platinum-page-forensics-v1");
  w.Key("events_seen").Value(events_seen());
  w.Key("accesses_seen").Value(accesses_seen());
  w.Key("pages_tracked").Value(static_cast<uint64_t>(pages_tracked()));
  w.Key("rollups_dropped").Value(rollups_dropped_);
  w.Key("ring").BeginObject();
  w.Key("capacity").Value(static_cast<uint64_t>(ring_.capacity()));
  w.Key("recorded").Value(ring_.recorded());
  w.Key("dropped").Value(ring_.dropped());
  w.EndObject();
  w.Key("thresholds").BeginObject();
  w.Key("ping_pong_min_alternations").Value(static_cast<uint64_t>(options_.ping_pong_min_alternations));
  w.Key("freeze_churn_min_cycles").Value(static_cast<uint64_t>(options_.freeze_churn_min_cycles));
  w.EndObject();

  auto id_array = [&w](const char* key, const std::vector<uint32_t>& ids) {
    w.Key(key).BeginArray();
    for (uint32_t id : ids) {
      w.Value(static_cast<uint64_t>(id));
    }
    w.EndArray();
  };
  w.Key("flagged").BeginObject();
  id_array("ping_pong", FlaggedPingPong());
  id_array("freeze_churn", FlaggedFreezeChurn());
  id_array("replication_waste", FlaggedReplicationWaste());
  w.EndObject();

  std::vector<uint32_t> top = TopPages();
  // One pass over the retained ring events, bucketed by selected page.
  std::vector<std::vector<const mem::TraceEvent*>> timelines(top.size());
  std::vector<mem::TraceEvent> retained = ring_.Snapshot();
  for (const mem::TraceEvent& e : retained) {
    auto it = std::find(top.begin(), top.end(), e.cpage);
    if (it != top.end()) {
      timelines[static_cast<size_t>(it - top.begin())].push_back(&e);
    }
  }

  w.Key("top_pages").BeginArray();
  for (size_t i = 0; i < top.size(); ++i) {
    const PageRollup& r = rollups_[top[i]];
    w.BeginObject();
    w.Key("cpage").Value(static_cast<uint64_t>(top[i]));
    w.Key("events").Value(r.events);
    w.Key("faults").Value(r.faults);
    w.Key("read_faults").Value(r.read_faults);
    w.Key("write_faults").Value(r.write_faults);
    w.Key("fills").Value(r.fills);
    w.Key("replications").Value(r.replications);
    w.Key("migrations").Value(r.migrations);
    w.Key("remote_maps").Value(r.remote_maps);
    w.Key("freezes").Value(r.freezes);
    w.Key("thaws").Value(r.thaws);
    w.Key("shootdowns").Value(r.shootdowns);
    w.Key("lease_expiries").Value(r.lease_expiries);
    w.Key("frees").Value(r.frees);
    w.Key("pins").Value(r.pins);
    w.Key("unbinds").Value(r.unbinds);
    w.Key("write_alternations").Value(static_cast<uint64_t>(r.write_alternations));
    w.Key("freeze_cycles").Value(static_cast<uint64_t>(r.freeze_cycles));
    w.Key("replicas_created").Value(r.replicas_created);
    w.Key("replicas_wasted").Value(r.replicas_wasted);
    w.Key("ping_pong").Value(IsPingPong(r));
    w.Key("freeze_churn").Value(IsFreezeChurn(r));
    w.Key("replication_waste").Value(IsReplicationWaste(r));
    w.Key("first_event_ns").Value(r.first_event_ns);
    w.Key("last_event_ns").Value(r.last_event_ns);
    const std::vector<const mem::TraceEvent*>& tl = timelines[i];
    size_t first =
        tl.size() > options_.timeline_events_per_page ? tl.size() - options_.timeline_events_per_page : 0;
    w.Key("timeline_truncated").Value(first > 0 || ring_.dropped() > 0);
    w.Key("timeline").BeginArray();
    for (size_t j = first; j < tl.size(); ++j) {
      const mem::TraceEvent& e = *tl[j];
      w.BeginObject();
      w.Key("t_ns").Value(e.time);
      w.Key("type").Value(mem::TraceEventTypeName(e.type));
      w.Key("cpu").Value(static_cast<int>(e.processor));
      w.Key("detail").Value(static_cast<uint64_t>(e.detail));
      w.Key("thread").Value(static_cast<uint64_t>(e.thread));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace platinum::obs
