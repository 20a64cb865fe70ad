#include "src/obs/observability.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/base/check.h"

namespace platinum::obs {

const char* HistKindName(HistKind kind) {
  switch (kind) {
    case HistKind::kFaultService:
      return "fault_service";
    case HistKind::kShootdown:
      return "shootdown_round";
    case HistKind::kBlockTransfer:
      return "block_transfer";
    case HistKind::kModuleQueue:
      return "module_queue";
  }
  return "?";
}

Observability::Observability(int num_nodes)
    : cpu_(static_cast<size_t>(num_nodes) + 1),
      ipis_received_(static_cast<size_t>(num_nodes)),
      module_(static_cast<size_t>(num_nodes)) {
  PLAT_CHECK_GT(num_nodes, 0);
}

sim::MachineStats Observability::Totals() const {
  sim::MachineStats total;
  for (const sim::MachineStats& block : cpu_) {
    total += block;
  }
  return total;
}

LatencyHistogram Observability::hist(HistKind kind) const {
  LatencyHistogram h = hist_[static_cast<size_t>(kind)];
  if (kind == HistKind::kModuleQueue) {
    uint64_t references = 0;
    for (const sim::MachineStats& block : cpu_) {
      references += block.total_references();
    }
    PLAT_CHECK_GE(references, h.count())
        << "module-queue histogram holds more waits than the processors issued references";
    h.AddZeros(references - h.count());
  }
  return h;
}

void Observability::RecordSpan(Span span) {
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void Observability::BeginPhase(std::string name, sim::SimTime now,
                               const sim::MachineStats& stats) {
  Phase phase;
  phase.name = std::move(name);
  phase.begin = now;
  phase.stats_at_begin_ = stats;
  for (int k = 0; k < kNumHistKinds; ++k) {
    LatencyHistogram h = hist(static_cast<HistKind>(k));
    phase.hist_at_begin_[static_cast<size_t>(k)] = Phase::HistDelta{h.count(), h.sum()};
  }
  open_phases_.push_back(phases_.size());
  phases_.push_back(std::move(phase));
}

void Observability::EndPhase(sim::SimTime now, const sim::MachineStats& stats) {
  PLAT_CHECK(!open_phases_.empty()) << "EndPhase without a matching BeginPhase";
  Phase& phase = phases_[open_phases_.back()];
  open_phases_.pop_back();
  phase.end = now;
  phase.open = false;
  phase.delta = stats - phase.stats_at_begin_;
  for (int k = 0; k < kNumHistKinds; ++k) {
    LatencyHistogram h = hist(static_cast<HistKind>(k));
    const Phase::HistDelta& at_begin = phase.hist_at_begin_[static_cast<size_t>(k)];
    phase.hist_delta[static_cast<size_t>(k)] =
        Phase::HistDelta{h.count() - at_begin.count, h.sum() - at_begin.sum};
  }
}

const std::string& Observability::current_phase() const {
  static const std::string kNone;
  return open_phases_.empty() ? kNone : phases_[open_phases_.back()].name;
}

std::string Observability::ToString() const {
  std::ostringstream out;
  for (int k = 0; k < kNumHistKinds; ++k) {
    out << "histogram " << HistKindName(static_cast<HistKind>(k)) << ": "
        << hist(static_cast<HistKind>(k)).ToString();
  }
  out << "cpu   faults  (r/w)            fills  repl  migr  rmaps  shoot  ipis   "
         "local-refs  remote-refs\n";
  char line[192];
  for (int p = 0; p < num_nodes(); ++p) {
    const sim::MachineStats& c = cpu(p);
    std::snprintf(line, sizeof(line),
                  "%-5d %-7llu (%llu/%llu)%*s%-6llu %-5llu %-5llu %-6llu %-6llu %-6llu "
                  "%-11llu %llu\n",
                  p, static_cast<unsigned long long>(c.faults),
                  static_cast<unsigned long long>(c.read_faults),
                  static_cast<unsigned long long>(c.write_faults), 2, "",
                  static_cast<unsigned long long>(c.initial_fills),
                  static_cast<unsigned long long>(c.replications),
                  static_cast<unsigned long long>(c.migrations),
                  static_cast<unsigned long long>(c.remote_maps),
                  static_cast<unsigned long long>(c.shootdowns),
                  static_cast<unsigned long long>(ipis_received(p)),
                  static_cast<unsigned long long>(c.local_reads + c.local_writes),
                  static_cast<unsigned long long>(c.remote_references()));
    out << line;
  }
  out << "module  refs-served  bt-in  bt-out  frames-alloc  frames-freed  queue-wait-ms\n";
  for (size_t m = 0; m < module_.size(); ++m) {
    const ModuleCounters& c = module_[m];
    std::snprintf(line, sizeof(line), "%-7zu %-12llu %-6llu %-7llu %-13llu %-13llu %.2f\n", m,
                  static_cast<unsigned long long>(references_served(static_cast<int>(m))),
                  static_cast<unsigned long long>(c.block_transfers_in),
                  static_cast<unsigned long long>(c.block_transfers_out),
                  static_cast<unsigned long long>(c.frames_allocated),
                  static_cast<unsigned long long>(c.frames_freed),
                  sim::ToMilliseconds(c.queue_wait_ns));
    out << line;
  }
  if (!phases_.empty()) {
    out << "phases:\n";
    for (const Phase& phase : phases_) {
      std::snprintf(line, sizeof(line), "  %-24s [%.3f ms, %.3f ms]  faults %llu, repl %llu, "
                    "migr %llu, shootdowns %llu%s\n",
                    phase.name.c_str(), sim::ToMilliseconds(phase.begin),
                    sim::ToMilliseconds(phase.end),
                    static_cast<unsigned long long>(phase.delta.faults),
                    static_cast<unsigned long long>(phase.delta.replications),
                    static_cast<unsigned long long>(phase.delta.migrations),
                    static_cast<unsigned long long>(phase.delta.shootdowns),
                    phase.open ? " (open)" : "");
      out << line;
    }
  }
  return out.str();
}

}  // namespace platinum::obs
