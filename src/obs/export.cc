#include "src/obs/export.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/obs/json.h"
#include "src/obs/observability.h"
#include "src/obs/page_trace.h"
#include "src/obs/timeseries.h"

namespace platinum::obs {

namespace {

double ToTraceUs(sim::SimTime ns) { return static_cast<double>(ns) / 1000.0; }

struct TimedFragment {
  sim::SimTime ts;
  uint64_t seq;
  std::string json;
  bool operator<(const TimedFragment& other) const {
    return ts != other.ts ? ts < other.ts : seq < other.seq;
  }
};

// Track ids: processors use their own number; kernel-context events (no
// fiber) and phases get dedicated rows past the processor range.
int TidOf(int processor, int num_nodes) { return processor >= 0 ? processor : num_nodes + 1; }

std::string ThreadNameMetadata(int tid, const std::string& name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ph").Value("M");
  w.Key("pid").Value(0);
  w.Key("tid").Value(tid);
  w.Key("name").Value("thread_name");
  w.Key("args").BeginObject();
  w.Key("name").Value(name);
  w.EndObject();
  w.EndObject();
  return w.str();
}

void HistogramJson(JsonWriter& w, const LatencyHistogram& h) {
  w.BeginObject();
  w.Key("count").Value(h.count());
  w.Key("sum_ns").Value(h.sum());
  w.Key("min_ns").Value(h.min());
  w.Key("max_ns").Value(h.max());
  w.Key("mean_ns").Value(h.Mean());
  w.Key("p50_ns").Value(h.Percentile(50));
  w.Key("p90_ns").Value(h.Percentile(90));
  w.Key("p99_ns").Value(h.Percentile(99));
  w.Key("buckets").BeginArray();
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    uint64_t c = h.buckets()[static_cast<size_t>(b)];
    if (c == 0) {
      continue;
    }
    w.BeginObject();
    w.Key("lo_ns").Value(LatencyHistogram::BucketLower(b));
    w.Key("hi_ns").Value(LatencyHistogram::BucketUpper(b));
    w.Key("count").Value(c);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void MachineStatsJson(JsonWriter& w, const sim::MachineStats& s) {
  w.BeginObject();
  w.Key("local_reads").Value(s.local_reads);
  w.Key("local_writes").Value(s.local_writes);
  w.Key("remote_reads").Value(s.remote_reads);
  w.Key("remote_writes").Value(s.remote_writes);
  w.Key("atc_hits").Value(s.atc_hits);
  w.Key("atc_misses").Value(s.atc_misses);
  w.Key("faults").Value(s.faults);
  w.Key("read_faults").Value(s.read_faults);
  w.Key("write_faults").Value(s.write_faults);
  w.Key("replications").Value(s.replications);
  w.Key("migrations").Value(s.migrations);
  w.Key("remote_maps").Value(s.remote_maps);
  w.Key("initial_fills").Value(s.initial_fills);
  w.Key("freezes").Value(s.freezes);
  w.Key("thaws").Value(s.thaws);
  w.Key("shootdowns").Value(s.shootdowns);
  w.Key("ipis_sent").Value(s.ipis_sent);
  w.Key("mappings_invalidated").Value(s.mappings_invalidated);
  w.Key("mappings_restricted").Value(s.mappings_restricted);
  w.Key("pages_freed").Value(s.pages_freed);
  w.Key("lease_waits").Value(s.lease_waits);
  w.Key("lease_wait_ns").Value(s.lease_wait_ns);
  w.Key("block_transfers").Value(s.block_transfers);
  w.Key("block_words_copied").Value(s.block_words_copied);
  w.Key("module_wait_ns").Value(s.module_wait_ns);
  w.Key("fault_handler_wait_ns").Value(s.fault_handler_wait_ns);
  w.EndObject();
}

}  // namespace

std::string ExportChromeTrace(const sim::Machine& machine, const mem::TraceLog* trace,
                              const EpochSampler* sampler) {
  const Observability& obs = machine.obs();
  int num_nodes = machine.num_nodes();
  std::vector<TimedFragment> fragments;
  uint64_t seq = 0;

  if (trace != nullptr) {
    for (const mem::TraceEvent& e : trace->Snapshot()) {
      JsonWriter w;
      w.BeginObject();
      w.Key("name").Value(mem::TraceEventTypeName(e.type));
      w.Key("cat").Value("protocol");
      w.Key("ph").Value("i");
      w.Key("s").Value("t");
      w.Key("ts").Value(ToTraceUs(e.time));
      w.Key("pid").Value(0);
      w.Key("tid").Value(TidOf(e.processor, num_nodes));
      w.Key("args").BeginObject();
      if (e.cpage != mem::kTraceNoCpage) {
        w.Key("cpage").Value(static_cast<uint64_t>(e.cpage));
      }
      w.Key("detail").Value(static_cast<uint64_t>(e.detail));
      w.Key("thread").Value(static_cast<uint64_t>(e.thread));
      w.EndObject();
      w.EndObject();
      fragments.push_back(TimedFragment{e.time, seq++, w.str()});
    }
  }

  for (const Span& span : obs.spans()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("name").Value(span.name);
    w.Key("cat").Value("span");
    w.Key("ph").Value("X");
    w.Key("ts").Value(ToTraceUs(span.begin));
    w.Key("dur").Value(ToTraceUs(span.end - span.begin));
    w.Key("pid").Value(0);
    w.Key("tid").Value(TidOf(span.processor, num_nodes));
    w.Key("args").BeginObject();
    w.Key("thread").Value(static_cast<uint64_t>(span.thread));
    w.EndObject();
    w.EndObject();
    fragments.push_back(TimedFragment{span.begin, seq++, w.str()});
  }

  for (const Phase& phase : obs.phases()) {
    sim::SimTime end = phase.open ? machine.scheduler().global_now() : phase.end;
    JsonWriter w;
    w.BeginObject();
    w.Key("name").Value(phase.name);
    w.Key("cat").Value("phase");
    w.Key("ph").Value("X");
    w.Key("ts").Value(ToTraceUs(phase.begin));
    w.Key("dur").Value(ToTraceUs(end - phase.begin));
    w.Key("pid").Value(0);
    w.Key("tid").Value(num_nodes);
    w.Key("args").BeginObject();
    w.Key("faults").Value(phase.delta.faults);
    w.Key("replications").Value(phase.delta.replications);
    w.Key("migrations").Value(phase.delta.migrations);
    w.Key("shootdowns").Value(phase.delta.shootdowns);
    w.EndObject();
    w.EndObject();
    fragments.push_back(TimedFragment{phase.begin, seq++, w.str()});
  }

  if (sampler != nullptr) {
    // Per-epoch protocol counters as Perfetto counter tracks: each "ph":"C"
    // event plots the delta for the epoch ending at its timestamp.
    const EpochSampler::Sample* prev = nullptr;
    for (const EpochSampler::Sample& s : sampler->samples()) {
      sim::MachineStats base;
      if (prev != nullptr) {
        base = prev->stats;
      }
      sim::MachineStats d = s.stats - base;
      JsonWriter w;
      w.BeginObject();
      w.Key("name").Value("protocol/epoch");
      w.Key("ph").Value("C");
      w.Key("ts").Value(ToTraceUs(s.end_ns));
      w.Key("pid").Value(0);
      w.Key("args").BeginObject();
      w.Key("faults").Value(d.faults);
      w.Key("replications").Value(d.replications);
      w.Key("migrations").Value(d.migrations);
      w.Key("remote_maps").Value(d.remote_maps);
      w.EndObject();
      w.EndObject();
      fragments.push_back(TimedFragment{s.end_ns, seq++, w.str()});

      JsonWriter f;
      f.BeginObject();
      f.Key("name").Value("freeze/epoch");
      f.Key("ph").Value("C");
      f.Key("ts").Value(ToTraceUs(s.end_ns));
      f.Key("pid").Value(0);
      f.Key("args").BeginObject();
      f.Key("freezes").Value(d.freezes);
      f.Key("thaws").Value(d.thaws);
      f.Key("shootdowns").Value(d.shootdowns);
      f.EndObject();
      f.EndObject();
      fragments.push_back(TimedFragment{s.end_ns, seq++, f.str()});
      prev = &s;
    }
  }

  // Viewers expect events sorted by timestamp. The TraceLog is recorded in
  // per-fiber clock order, which may run ahead of other fibers by up to the
  // scheduler quantum, so sorting is required, not cosmetic.
  std::stable_sort(fragments.begin(), fragments.end());

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (int t = 0; t < num_nodes; ++t) {
    out += first ? "" : ",";
    out += ThreadNameMetadata(t, "cpu" + std::to_string(t));
    first = false;
  }
  out += ",";
  out += ThreadNameMetadata(num_nodes, "phases");
  out += ",";
  out += ThreadNameMetadata(num_nodes + 1, "kernel");
  for (const TimedFragment& fragment : fragments) {
    out += ",";
    out += fragment.json;
  }
  out += "]}";
  return out;
}

std::string ExportStatsJson(const sim::Machine& machine, const kernel::MemoryReport* report,
                            const TelemetrySummary* telemetry) {
  const Observability& obs = machine.obs();
  JsonWriter w;
  w.BeginObject();
  w.Key("sim_time_ns").Value(machine.scheduler().global_now());
  w.Key("num_processors").Value(machine.num_nodes());

  w.Key("machine");
  MachineStatsJson(w, machine.stats());

  w.Key("per_processor").BeginArray();
  for (int p = 0; p < machine.num_nodes(); ++p) {
    const sim::MachineStats& c = obs.cpu(p);
    w.BeginObject();
    w.Key("processor").Value(p);
    w.Key("faults").Value(c.faults);
    w.Key("read_faults").Value(c.read_faults);
    w.Key("write_faults").Value(c.write_faults);
    w.Key("initial_fills").Value(c.initial_fills);
    w.Key("replications").Value(c.replications);
    w.Key("migrations").Value(c.migrations);
    w.Key("remote_maps").Value(c.remote_maps);
    w.Key("shootdowns_initiated").Value(c.shootdowns);
    w.Key("ipis_received").Value(obs.ipis_received(p));
    w.Key("local_refs").Value(c.local_reads + c.local_writes);
    w.Key("remote_refs").Value(c.remote_references());
    w.Key("pages_freed").Value(c.pages_freed);
    w.EndObject();
  }
  w.EndArray();

  w.Key("per_module").BeginArray();
  for (int m = 0; m < machine.num_nodes(); ++m) {
    const ModuleCounters& c = obs.module(m);
    w.BeginObject();
    w.Key("module").Value(m);
    w.Key("references_served").Value(obs.references_served(m));
    w.Key("block_transfers_in").Value(c.block_transfers_in);
    w.Key("block_transfers_out").Value(c.block_transfers_out);
    w.Key("frames_allocated").Value(c.frames_allocated);
    w.Key("frames_freed").Value(c.frames_freed);
    w.Key("queue_wait_ns").Value(c.queue_wait_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("histograms").BeginObject();
  for (int k = 0; k < kNumHistKinds; ++k) {
    w.Key(HistKindName(static_cast<HistKind>(k)));
    HistogramJson(w, obs.hist(static_cast<HistKind>(k)));
  }
  w.EndObject();

  w.Key("phases").BeginArray();
  for (const Phase& phase : obs.phases()) {
    w.BeginObject();
    w.Key("name").Value(phase.name);
    w.Key("begin_ns").Value(phase.begin);
    w.Key("end_ns").Value(phase.open ? machine.scheduler().global_now() : phase.end);
    w.Key("open").Value(phase.open);
    w.Key("delta");
    MachineStatsJson(w, phase.delta);
    w.Key("hist_delta").BeginObject();
    for (int k = 0; k < kNumHistKinds; ++k) {
      const Phase::HistDelta& d = phase.hist_delta[static_cast<size_t>(k)];
      w.Key(HistKindName(static_cast<HistKind>(k))).BeginObject();
      w.Key("count").Value(d.count);
      w.Key("sum_ns").Value(d.sum);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans_dropped").Value(obs.spans_dropped());

  if (telemetry != nullptr && (telemetry->page_trace != nullptr || telemetry->sampler != nullptr)) {
    // Bound/drop accounting for the forensics tier, mirroring spans_dropped:
    // any truncation in the page-event ring, the rollup table, or the
    // time-series is visible here even if the side documents are discarded.
    w.Key("telemetry").BeginObject();
    if (telemetry->page_trace != nullptr) {
      const PageTrace& pt = *telemetry->page_trace;
      w.Key("page_events_seen").Value(pt.events_seen());
      w.Key("page_accesses_seen").Value(pt.accesses_seen());
      w.Key("pages_tracked").Value(static_cast<uint64_t>(pt.pages_tracked()));
      w.Key("page_rollups_dropped").Value(pt.rollups_dropped());
      w.Key("page_ring_recorded").Value(pt.ring().recorded());
      w.Key("page_ring_dropped").Value(pt.ring().dropped());
    }
    if (telemetry->sampler != nullptr) {
      w.Key("timeseries_epoch_ns").Value(telemetry->sampler->epoch_ns());
      w.Key("timeseries_samples").Value(static_cast<uint64_t>(telemetry->sampler->samples().size()));
      w.Key("timeseries_dropped").Value(telemetry->sampler->samples_dropped());
    }
    w.EndObject();
  }
  if (telemetry != nullptr && telemetry->serving_json != nullptr) {
    w.Key("serving").Raw(*telemetry->serving_json);
  }

  if (report != nullptr) {
    w.Key("report").BeginObject();
    w.Key("frozen_pages").Value(static_cast<uint64_t>(report->frozen_pages));
    w.Key("pages_ever_frozen").Value(static_cast<uint64_t>(report->pages_ever_frozen));
    w.Key("pages").BeginArray();
    for (const kernel::CpageReportEntry& e : report->pages) {
      w.BeginObject();
      w.Key("cpage").Value(static_cast<uint64_t>(e.cpage_id));
      w.Key("state").Value(mem::CpageStateName(e.state));
      w.Key("frozen").Value(e.frozen_now);
      w.Key("faults").Value(e.stats.faults);
      w.Key("read_faults").Value(e.stats.read_faults);
      w.Key("write_faults").Value(e.stats.write_faults);
      w.Key("replications").Value(e.stats.replications);
      w.Key("migrations").Value(e.stats.migrations);
      w.Key("remote_maps").Value(e.stats.remote_maps);
      w.Key("invalidation_rounds").Value(e.stats.invalidation_rounds);
      w.Key("freezes").Value(e.stats.freezes);
      w.Key("thaws").Value(e.stats.thaws);
      w.Key("handler_waits").Value(e.stats.handler_waits);
      w.Key("handler_wait_ns").Value(e.stats.handler_wait_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  w.EndObject();
  PLAT_CHECK_EQ(w.depth(), 0);
  return w.str();
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PLAT_CHECK(f != nullptr) << "cannot open " << path << " for writing";
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  PLAT_CHECK_EQ(written, text.size()) << "short write to " << path;
  PLAT_CHECK_EQ(std::fclose(f), 0);
}

}  // namespace platinum::obs
