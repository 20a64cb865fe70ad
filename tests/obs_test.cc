// Tests for the observability subsystem: histogram percentile math (golden
// values), trace-log ring-buffer edge cases, the JSON writer/checkers, and a
// round trip through the Perfetto/stats exporters on a real run.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/kernel/report.h"
#include "src/mem/trace.h"
#include "src/obs/export.h"
#include "src/obs/histogram.h"
#include "src/obs/json.h"
#include "src/obs/observability.h"
#include "src/obs/scope.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using obs::LatencyHistogram;
using test::TestSystem;

// --- Histogram bucket geometry ----------------------------------------------

TEST(HistogramTest, BucketIndexBoundaries) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1023), 10);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1024), 11);
  // The top bucket absorbs everything too large for its own power of two.
  EXPECT_EQ(LatencyHistogram::BucketIndex(~sim::SimTime{0}), LatencyHistogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsAreInclusiveAndAdjacent) {
  EXPECT_EQ(LatencyHistogram::BucketLower(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketLower(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketLower(10), 512u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(10), 1023u);
  for (int b = 1; b < LatencyHistogram::kBuckets - 1; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketUpper(b) + 1, LatencyHistogram::BucketLower(b + 1));
  }
  EXPECT_EQ(LatencyHistogram::BucketUpper(LatencyHistogram::kBuckets - 1), ~sim::SimTime{0});
}

// --- Percentile golden values ------------------------------------------------

TEST(HistogramTest, EmptyHistogramIsAllZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  // Every percentile of an empty distribution is zero, including the
  // boundary ranks (no division by count, no bucket walk off the end).
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SingleValueDominatesEveryPercentile) {
  LatencyHistogram h;
  h.Record(1000);
  // The bucket estimate would be the bucket bound (1023), but the clamp to
  // the observed [min, max] recovers the exact value.
  EXPECT_EQ(h.Percentile(0), 1000u);
  EXPECT_EQ(h.Percentile(50), 1000u);
  EXPECT_EQ(h.Percentile(99), 1000u);
  EXPECT_EQ(h.Percentile(100), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), 1000.0);
}

TEST(HistogramTest, GoldenPercentilesAcrossFourBuckets) {
  // 100 -> bucket 7 [64,127], 200 -> bucket 8 [128,255],
  // 400 -> bucket 9 [256,511], 800 -> bucket 10 [512,1023].
  LatencyHistogram h;
  for (sim::SimTime v : {100, 200, 400, 800}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1500u);
  EXPECT_EQ(h.Mean(), 375.0);
  // p25: rank ceil(0.25*4)=1 lands at the end of bucket 7 -> upper bound 127.
  EXPECT_EQ(h.Percentile(25), 127u);
  // p50: rank 2 lands at the end of bucket 8 -> upper bound 255.
  EXPECT_EQ(h.Percentile(50), 255u);
  // p90: rank ceil(3.6)=4 -> end of bucket 10 (1023), clamped to max 800.
  EXPECT_EQ(h.Percentile(90), 800u);
  EXPECT_EQ(h.Percentile(99), 800u);
}

TEST(HistogramTest, IdenticalValuesClampToExactValue) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(1000);
  }
  // Interpolation inside [512, 1023] would say 767 for p50; the clamp to
  // min=1000 restores the truth.
  EXPECT_EQ(h.Percentile(50), 1000u);
  EXPECT_EQ(h.Percentile(99), 1000u);
}

TEST(HistogramTest, ZeroesLiveInBucketZero) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) {
    h.Record(0);
  }
  EXPECT_EQ(h.buckets()[0], 4u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// --- TraceLog ring buffer -----------------------------------------------------

mem::TraceEvent EventAt(sim::SimTime time, uint32_t thread = 0) {
  return mem::TraceEvent{time, mem::TraceEventType::kFault, 1, 0, 0, thread};
}

TEST(TraceLogTest, WraparoundKeepsNewestOldestFirst) {
  mem::TraceLog log(4);
  for (sim::SimTime t = 0; t < 10; ++t) {
    log.Record(EventAt(t));
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<mem::TraceEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, 6 + i);
  }
}

TEST(TraceLogTest, CapacityIsExactBeforeTheFirstEvent) {
  mem::TraceLog log(5);
  EXPECT_EQ(log.capacity(), 5u);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(TraceLogTest, AFullRingDropsNothingUntilTheNextEvent) {
  mem::TraceLog log(4);
  for (sim::SimTime t = 0; t < 4; ++t) {
    log.Record(EventAt(t));
  }
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.dropped(), 0u);
  std::vector<mem::TraceEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, i);
  }
  log.Record(EventAt(4));
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.dropped(), 1u);
  events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, 1 + i);
  }
}

TEST(TraceLogTest, CapacityZeroCountsButRetainsNothing) {
  mem::TraceLog log(0);
  for (sim::SimTime t = 0; t < 3; ++t) {
    log.Record(EventAt(t));
  }
  EXPECT_EQ(log.capacity(), 0u);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.ToString(), "");
}

TEST(TraceLogTest, ToStringWithLastBeyondRecorded) {
  mem::TraceLog log(8);
  log.Record(EventAt(10));
  log.Record(EventAt(20));
  std::string dump = log.ToString(100);
  // Both events, nothing else, no crash.
  EXPECT_NE(dump.find("fault"), std::string::npos);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.Snapshot().size(), 2u);
}

TEST(TraceLogTest, RecordsFaultingThread) {
  mem::TraceLog log(4);
  log.Record(EventAt(5, /*thread=*/42));
  EXPECT_EQ(log.Snapshot().at(0).thread, 42u);
}

TEST(TraceLogTest, EventTypeNamesAreExhaustive) {
  EXPECT_STREQ(mem::TraceEventTypeName(mem::TraceEventType::kDefrostScan), "defrost-scan");
  EXPECT_STREQ(mem::TraceEventTypeName(mem::TraceEventType::kPageFree), "page-free");
  EXPECT_STREQ(mem::TraceEventTypeName(mem::TraceEventType::kFault), "fault");
  EXPECT_STREQ(mem::TraceEventTypeName(mem::TraceEventType::kShootdown), "shootdown");
}

// --- JSON writer and checkers -------------------------------------------------

TEST(JsonTest, WriterProducesExactDocument) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("a \"b\"\n");
  w.Key("n").Value(3);
  w.Key("xs").BeginArray().Value(uint64_t{1}).Value(uint64_t{2}).EndArray();
  w.Key("ok").Value(true);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"name\":\"a \\\"b\\\"\\n\",\"n\":3,\"xs\":[1,2],\"ok\":true}");
  EXPECT_EQ(w.depth(), 0);
}

TEST(JsonTest, BalancedChecker) {
  EXPECT_TRUE(obs::CheckJsonBalanced("{\"a\":[1,2,{\"b\":\"}\"}]}"));
  EXPECT_TRUE(obs::CheckJsonBalanced("{}"));
  EXPECT_FALSE(obs::CheckJsonBalanced("{\"a\":1"));
  EXPECT_FALSE(obs::CheckJsonBalanced("{[}]"));
  EXPECT_FALSE(obs::CheckJsonBalanced("{\"unterminated"));
}

TEST(JsonTest, HasKeyChecker) {
  const std::string doc = "{\"traceEvents\":[],\"other\":1}";
  EXPECT_TRUE(obs::CheckJsonHasKey(doc, "traceEvents"));
  EXPECT_FALSE(obs::CheckJsonHasKey(doc, "missing"));
}

TEST(JsonTest, TsMonotoneChecker) {
  EXPECT_TRUE(obs::CheckTraceTsMonotone("[{\"ts\":1.5},{\"ts\":1.5},{\"ts\":2.0}]"));
  EXPECT_FALSE(obs::CheckTraceTsMonotone("[{\"ts\":2.0},{\"ts\":1.0}]"));
  EXPECT_TRUE(obs::CheckTraceTsMonotone("{\"no_ts\":true}"));
}

// --- Spans and phases ----------------------------------------------------------

TEST(ObsTest, ScopeRecordsSpanWithProcessorAndFiber) {
  TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("s");
  sys.kernel.SpawnThread(space, 1, "worker", [&] {
    obs::ObsScope scope(sys.machine, "inner-work");
    sys.machine.scheduler().Sleep(5 * sim::kMicrosecond);
  });
  sys.kernel.Run();
  // SpawnThread itself opens a span for the thread body, so at least two.
  const std::vector<obs::Span>& spans = sys.machine.obs().spans();
  ASSERT_GE(spans.size(), 2u);
  bool found = false;
  for (const obs::Span& span : spans) {
    if (span.name == "inner-work") {
      found = true;
      EXPECT_EQ(span.processor, 1);
      EXPECT_GE(span.end - span.begin, 5 * sim::kMicrosecond);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsTest, PhasesNestAndCloseInnermostFirst) {
  obs::Observability obs(2);
  sim::MachineStats stats;
  EXPECT_EQ(obs.current_phase(), "");
  obs.BeginPhase("outer", 10, stats);
  obs.BeginPhase("inner", 20, stats);
  EXPECT_EQ(obs.current_phase(), "inner");
  stats.faults = 7;
  obs.EndPhase(30, stats);
  EXPECT_EQ(obs.current_phase(), "outer");
  stats.faults = 9;
  obs.EndPhase(40, stats);
  EXPECT_EQ(obs.current_phase(), "");
  ASSERT_EQ(obs.phases().size(), 2u);
  EXPECT_EQ(obs.phases()[0].name, "outer");
  EXPECT_EQ(obs.phases()[0].delta.faults, 9u);
  EXPECT_EQ(obs.phases()[1].name, "inner");
  EXPECT_EQ(obs.phases()[1].delta.faults, 7u);
  EXPECT_FALSE(obs.phases()[0].open);
}

TEST(ObsTest, NestedPhasesAttributeHistogramDeltas) {
  obs::Observability obs(1);
  sim::MachineStats stats;
  obs.BeginPhase("outer", 0, stats);
  obs.RecordLatency(obs::HistKind::kFaultService, 100);
  obs.BeginPhase("inner", 10, stats);
  obs.RecordLatency(obs::HistKind::kFaultService, 50);
  obs.EndPhase(20, stats);
  obs.EndPhase(30, stats);
  ASSERT_EQ(obs.phases().size(), 2u);
  const obs::Phase& outer = obs.phases()[0];
  const obs::Phase& inner = obs.phases()[1];
  // The inner phase sees only the record inside it; the outer phase sees
  // both (nesting attributes activity to every enclosing phase).
  constexpr auto kFault = static_cast<size_t>(obs::HistKind::kFaultService);
  EXPECT_EQ(inner.hist_delta[kFault].count, 1u);
  EXPECT_EQ(inner.hist_delta[kFault].sum, 50u);
  EXPECT_EQ(outer.hist_delta[kFault].count, 2u);
  EXPECT_EQ(outer.hist_delta[kFault].sum, 150u);
  constexpr auto kQueue = static_cast<size_t>(obs::HistKind::kModuleQueue);
  EXPECT_EQ(outer.hist_delta[kQueue].count, 0u);
}

// The module-queue histogram's zero bucket is derived from the reference
// counters; a wait recorded without a reference breaks that identity.
TEST(ObsDeathTest, ModuleQueueWaitWithoutAReferenceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  obs::Observability obs(2);
  obs.RecordLatency(obs::HistKind::kModuleQueue, 100);
  EXPECT_DEATH((void)obs.hist(obs::HistKind::kModuleQueue),
               "module-queue histogram holds more waits than the processors issued references");
}

TEST(ObsTest, SpanStorageIsBoundedAndDropCounted) {
  obs::Observability obs(1);
  constexpr uint64_t kTotal = 70000;  // comfortably past the span bound
  for (uint64_t i = 0; i < kTotal; ++i) {
    obs.RecordSpan(obs::Span{"s", 0, 0, sim::SimTime{i}, sim::SimTime{i + 1}});
  }
  // The bound held, overflow was counted, and nothing was lost silently.
  EXPECT_LT(obs.spans().size(), kTotal);
  EXPECT_GT(obs.spans_dropped(), 0u);
  EXPECT_EQ(obs.spans().size() + obs.spans_dropped(), kTotal);
  uint64_t dropped_before = obs.spans_dropped();
  obs.RecordSpan(obs::Span{"late", 0, 0, 0, 1});
  EXPECT_EQ(obs.spans_dropped(), dropped_before + 1);
}

// --- Exporter round trip --------------------------------------------------------

TEST(ObsTest, ExportersProduceValidDocumentsFromARealRun) {
  TestSystem sys(4);
  sys.kernel.memory().EnableTracing(1024);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", 64);
  rt::RunOnProcessors(sys.kernel, space, 4, "stress", [&](int pid) {
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < 64; ++i) {
        arr.Set(i, arr.Get(i) + static_cast<uint32_t>(pid));
      }
    }
  });

  const obs::Observability& obs = sys.machine.obs();
  // The shared writes must have produced faults and per-processor activity.
  EXPECT_GT(obs.hist(obs::HistKind::kFaultService).count(), 0u);
  EXPECT_GT(obs.hist(obs::HistKind::kModuleQueue).count(), 0u);
  uint64_t cpu_faults = 0;
  for (int p = 0; p < 4; ++p) {
    cpu_faults += obs.cpu(p).faults;
  }
  EXPECT_EQ(cpu_faults, sys.machine.stats().faults);
  // Both derived views cover every reference exactly once.
  uint64_t references = sys.machine.stats().total_references();
  EXPECT_GT(references, 0u);
  EXPECT_EQ(obs.hist(obs::HistKind::kModuleQueue).count(), references);
  uint64_t served = 0;
  for (int m = 0; m < 4; ++m) {
    served += obs.references_served(m);
  }
  EXPECT_EQ(served, references);

  // The fork-join region became a closed phase with attributed faults.
  ASSERT_GE(obs.phases().size(), 1u);
  EXPECT_EQ(obs.phases()[0].name, "stress");
  EXPECT_FALSE(obs.phases()[0].open);
  EXPECT_GT(obs.phases()[0].delta.faults, 0u);
  EXPECT_GT(obs.phases()[0].hist_delta[0].count, 0u);  // fault_service delta

  std::string trace = obs::ExportChromeTrace(sys.machine, sys.kernel.memory().trace());
  EXPECT_TRUE(obs::CheckJsonBalanced(trace));
  EXPECT_TRUE(obs::CheckJsonHasKey(trace, "traceEvents"));
  EXPECT_TRUE(obs::CheckTraceTsMonotone(trace));
  EXPECT_NE(trace.find("\"cpu0\""), std::string::npos);
  EXPECT_NE(trace.find("\"stress\""), std::string::npos);

  kernel::MemoryReport report = BuildMemoryReport(sys.kernel);
  std::string stats = obs::ExportStatsJson(sys.machine, &report);
  EXPECT_TRUE(obs::CheckJsonBalanced(stats));
  for (const char* key : {"sim_time_ns", "machine", "per_processor", "per_module",
                          "histograms", "fault_service", "p50_ns", "p99_ns", "phases",
                          "report"}) {
    EXPECT_TRUE(obs::CheckJsonHasKey(stats, key)) << "missing key " << key;
  }

  // Without a trace log the exporter still produces a valid document from
  // spans and phases alone.
  std::string no_log = obs::ExportChromeTrace(sys.machine, nullptr);
  EXPECT_TRUE(obs::CheckJsonBalanced(no_log));
  EXPECT_TRUE(obs::CheckTraceTsMonotone(no_log));
}

using Counters = std::map<std::string, uint64_t>;

// Parses the flat object of unsigned integers at doc[pos], in the compact form
// the exporter writes ({"a":1,"b":2}). Returns the position after its '}'.
size_t ParseCounters(const std::string& doc, size_t pos, Counters* out) {
  EXPECT_EQ(doc.at(pos), '{');
  size_t end = doc.find('}', pos);
  std::istringstream body(doc.substr(pos + 1, end - pos - 1));
  std::string member;
  while (std::getline(body, member, ',')) {
    size_t colon = member.find(':');
    (*out)[member.substr(1, colon - 2)] = std::stoull(member.substr(colon + 1));
  }
  return end + 1;
}

// The stats document's `machine` object.
Counters MachineCounters(const std::string& doc) {
  const std::string key = "\"machine\":";
  Counters machine;
  ParseCounters(doc, doc.find(key) + key.size(), &machine);
  return machine;
}

// The stats document's `per_processor` array.
std::vector<Counters> PerProcessorCounters(const std::string& doc) {
  const std::string key = "\"per_processor\":[";
  std::vector<Counters> out;
  size_t pos = doc.find(key) + key.size();
  while (doc.at(pos) == '{') {
    pos = ParseCounters(doc, pos, &out.emplace_back());
    if (doc.at(pos) == ',') {
      ++pos;
    }
  }
  return out;
}

// Each event is counted once, in the block of the processor that issued or
// suffered it, so the per-processor breakdown adds up to the machine totals,
// the placement hooks' fills, migrations and replications included.
TEST(ObsTest, PerProcessorCountersAddUpToTheMachineTotals) {
  TestSystem sys(4);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  const uint32_t page_words = sys.kernel.page_size() / 4;
  // Pages 0-3 are shared by every thread; pages 4 and 5 only thread 0 touches.
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", 6 * page_words);
  rt::RunOnProcessors(sys.kernel, space, 4, "share", [&](int pid) {
    for (int round = 0; round < 3; ++round) {
      for (uint32_t page = 0; page < 4; ++page) {
        uint32_t word = page * page_words + static_cast<uint32_t>(pid);
        arr.Set(word, arr.Get(word) + 1);
        (void)arr.Get(page * page_words + static_cast<uint32_t>((pid + 1) % 4));
      }
    }
    if (pid == 0) {
      arr.Set(4 * page_words, 1);
      arr.Set(5 * page_words, 1);
      sys.kernel.PinMemory(space, arr.va(4 * page_words), 3);        // migrates
      sys.kernel.ReplicateMemory(space, arr.va(5 * page_words), 2);  // replicates
    }
  });

  const std::string doc = obs::ExportStatsJson(sys.machine, nullptr);
  const Counters machine = MachineCounters(doc);
  const std::vector<Counters> cpus = PerProcessorCounters(doc);
  ASSERT_EQ(cpus.size(), 4u);
  EXPECT_GT(machine.at("replications"), 0u);
  EXPECT_GT(machine.at("migrations"), 0u);
  EXPECT_GT(machine.at("ipis_sent"), 0u);
  for (const char* key : {"faults", "read_faults", "write_faults", "initial_fills",
                          "replications", "migrations", "remote_maps", "pages_freed"}) {
    uint64_t sum = 0;
    for (const Counters& cpu : cpus) {
      sum += cpu.at(key);
    }
    EXPECT_EQ(sum, machine.at(key)) << key;
  }
  uint64_t shootdowns = 0;
  uint64_t ipis = 0;
  uint64_t references = 0;
  for (const Counters& cpu : cpus) {
    shootdowns += cpu.at("shootdowns_initiated");
    ipis += cpu.at("ipis_received");
    references += cpu.at("local_refs") + cpu.at("remote_refs");
  }
  EXPECT_EQ(shootdowns, machine.at("shootdowns"));
  EXPECT_EQ(ipis, machine.at("ipis_sent"));
  EXPECT_EQ(references, sys.machine.stats().total_references());
}

TEST(ObsTest, StatsJsonWritesEveryMachineCounter) {
  TestSystem sys(2);
  const Counters machine = MachineCounters(obs::ExportStatsJson(sys.machine, nullptr));
  EXPECT_EQ(machine.size(), sizeof(sim::MachineStats) / 8);
  EXPECT_EQ(machine.count("lease_waits"), 1u);
  EXPECT_EQ(machine.count("lease_wait_ns"), 1u);
}

TEST(ObsTest, DefrostScanEventsCarryNoCpage) {
  // A run with tracing and the defrost daemon produces defrost-scan events
  // marked with kTraceNoCpage.
  TestSystem sys(2);
  sys.kernel.memory().EnableTracing(4096);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", 8);
  sys.kernel.SpawnThread(space, 0, "sleeper", [&] {
    arr.Set(0, 1);
    // Sleep past a defrost period so the daemon scans at least once.
    sys.machine.scheduler().Sleep(2 * sys.machine.params().t2_defrost_period_ns);
  });
  sys.kernel.Run();
  bool saw_scan = false;
  for (const mem::TraceEvent& e : sys.kernel.memory().trace()->Snapshot()) {
    if (e.type == mem::TraceEventType::kDefrostScan) {
      saw_scan = true;
      EXPECT_EQ(e.cpage, mem::kTraceNoCpage);
    }
  }
  EXPECT_TRUE(saw_scan);
}

}  // namespace
}  // namespace platinum
