#include "src/mem/trace.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace platinum::mem {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kFault:
      return "fault";
    case TraceEventType::kFill:
      return "fill";
    case TraceEventType::kReplicate:
      return "replicate";
    case TraceEventType::kMigrate:
      return "migrate";
    case TraceEventType::kRemoteMap:
      return "remote-map";
    case TraceEventType::kFreeze:
      return "freeze";
    case TraceEventType::kThaw:
      return "thaw";
    case TraceEventType::kShootdown:
      return "shootdown";
    case TraceEventType::kDefrostScan:
      return "defrost-scan";
    case TraceEventType::kPageFree:
      return "page-free";
    case TraceEventType::kPin:
      return "pin";
    case TraceEventType::kUnbind:
      return "unbind";
    case TraceEventType::kLeaseExpire:
      return "lease-expire";
  }
  return "?";
}

TraceLog::TraceLog(size_t capacity) : capacity_(capacity) { buffer_.reserve(capacity); }

void TraceLog::Record(const TraceEvent& event) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
  } else if (capacity_ != 0) {
    buffer_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

void TraceLog::Record(sim::SimTime time, TraceEventType type, uint32_t cpage, int processor,
                      uint32_t detail, uint32_t thread) {
  Record(TraceEvent{time, type, cpage, static_cast<int16_t>(processor), detail, thread});
}

std::vector<TraceEvent> TraceLog::Snapshot() const {
  std::vector<TraceEvent> events;
  uint64_t count = buffer_.size();
  events.reserve(count);
  uint64_t first = recorded_ - count;
  for (uint64_t i = 0; i < count; ++i) {
    events.push_back(buffer_[(first + i) % capacity_]);
  }
  return events;
}

uint64_t TraceLog::dropped() const { return recorded_ - buffer_.size(); }

std::string TraceLog::ToString(size_t last) const {
  std::vector<TraceEvent> events = Snapshot();
  size_t first = events.size() > last ? events.size() - last : 0;
  std::ostringstream out;
  char line[128];
  for (size_t i = first; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.cpage == kTraceNoCpage) {
      std::snprintf(line, sizeof(line),
                    "%12.3f ms  cpu%-3d %-12s detail=%-6u thread=%u\n",
                    sim::ToMilliseconds(e.time), e.processor, TraceEventTypeName(e.type),
                    e.detail, e.thread);
    } else {
      std::snprintf(line, sizeof(line),
                    "%12.3f ms  cpu%-3d %-12s cpage=%-6" PRIu32 " detail=%-6u thread=%u\n",
                    sim::ToMilliseconds(e.time), e.processor, TraceEventTypeName(e.type),
                    e.cpage, e.detail, e.thread);
    }
    out << line;
  }
  return out.str();
}

}  // namespace platinum::mem
