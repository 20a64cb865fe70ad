#include "src/mem/protocol_spec.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/base/check.h"
#include "src/mem/protocol_spec.gen.h"

namespace platinum::mem {

namespace {

const spec_gen::SpecView& View(ProtocolKind kind) {
  int idx = static_cast<int>(kind);
  PLAT_CHECK_GE(idx, 0);
  PLAT_CHECK_LT(idx, static_cast<int>(std::size(spec_gen::kSpecs)));
  return spec_gen::kSpecs[idx];
}

}  // namespace

const char* ProtocolKindName(ProtocolKind kind) { return View(kind).name; }

bool ProtocolKindFromName(const char* name, ProtocolKind* out) {
  for (size_t i = 0; i < std::size(spec_gen::kSpecs); ++i) {
    if (std::strcmp(name, spec_gen::kSpecs[i].name) == 0) {
      *out = static_cast<ProtocolKind>(i);
      return true;
    }
  }
  return false;
}

const char* ProtocolTriggerName(ProtocolTrigger trigger) {
  int idx = static_cast<int>(trigger);
  PLAT_CHECK_GE(idx, 0);
  PLAT_CHECK_LT(idx, spec_gen::kNumTriggers);
  return spec_gen::kTriggerNames[idx];
}

bool ProtocolAllowsEdge(ProtocolKind kind, ProtocolTrigger trigger, CpageState from,
                        CpageState to) {
  const spec_gen::SpecView& view = View(kind);
  for (int i = 0; i < view.num_edges; ++i) {
    const spec_gen::EdgeRow& row = view.edges[i];
    if (row.trigger == static_cast<uint8_t>(trigger) &&
        row.from == static_cast<uint8_t>(from) && row.to == static_cast<uint8_t>(to)) {
      return true;
    }
  }
  return false;
}

uint32_t ProtocolReachableStateMask(ProtocolKind kind) {
  return View(kind).reachable_state_mask;
}

const std::vector<ProtocolEdge>& ProtocolEdges(ProtocolKind kind) {
  static const auto* edges_by_kind = [] {
    auto* out = new std::vector<std::vector<ProtocolEdge>>(std::size(spec_gen::kSpecs));
    for (size_t k = 0; k < std::size(spec_gen::kSpecs); ++k) {
      const spec_gen::SpecView& view = spec_gen::kSpecs[k];
      for (int i = 0; i < view.num_edges; ++i) {
        const spec_gen::EdgeRow& row = view.edges[i];
        (*out)[k].push_back(ProtocolEdge{static_cast<ProtocolTrigger>(row.trigger),
                                         static_cast<CpageState>(row.from),
                                         static_cast<CpageState>(row.to)});
      }
      std::sort((*out)[k].begin(), (*out)[k].end());
    }
    return out;
  }();
  int idx = static_cast<int>(kind);
  PLAT_CHECK_LT(static_cast<size_t>(idx), edges_by_kind->size());
  return (*edges_by_kind)[idx];
}

}  // namespace platinum::mem
