// Tests for the page-forensics layer (src/obs/page_trace.h) and the epoch
// sampler (src/obs/timeseries.h): detector semantics on synthetic event
// streams, read attribution and access counting against real machine runs,
// bounded-storage drop accounting, and epoch sampling.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/load/driver.h"
#include "src/mem/access_observer.h"
#include "src/mem/cmap.h"
#include "src/mem/trace.h"
#include "src/obs/json.h"
#include "src/obs/page_trace.h"
#include "src/obs/timeseries.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/time.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using obs::EpochSampler;
using obs::EpochSamplerOptions;
using obs::PageTrace;
using obs::PageTraceOptions;
using test::TestSystem;

mem::TraceEvent Event(mem::TraceEventType type, uint32_t cpage, int16_t processor,
                      uint32_t detail = 0, sim::SimTime time = 0) {
  return mem::TraceEvent{time, type, cpage, processor, detail, /*thread=*/0};
}

mem::TraceEvent WriteFault(uint32_t cpage, int16_t processor, sim::SimTime time = 0) {
  return Event(mem::TraceEventType::kFault, cpage, processor, /*detail=*/1, time);
}

mem::TraceEvent ReadFault(uint32_t cpage, int16_t processor, sim::SimTime time = 0) {
  return Event(mem::TraceEventType::kFault, cpage, processor, /*detail=*/0, time);
}

// The copy of `cpage` on `module` freed after serving `reads` reads.
mem::TraceEvent PageFree(uint32_t cpage, int16_t processor, uint32_t module, uint32_t reads) {
  mem::TraceEvent event = Event(mem::TraceEventType::kPageFree, cpage, processor, module);
  event.reads = reads;
  return event;
}

// --- Ping-pong ---------------------------------------------------------------

TEST(PageTraceTest, PingPongCountsWriteInvalidateAlternations) {
  PageTrace pt;  // default threshold: 3 alternations
  // Writers 0,1,0,1: three writer changes, each one a write-invalidate the
  // directory protocol resolves with a shootdown round.
  pt.OnPageEvent(WriteFault(5, 0));
  pt.OnPageEvent(WriteFault(5, 1));
  pt.OnPageEvent(Event(mem::TraceEventType::kShootdown, 5, 1));
  pt.OnPageEvent(WriteFault(5, 0));
  pt.OnPageEvent(Event(mem::TraceEventType::kShootdown, 5, 0));
  ASSERT_NE(pt.rollup(5), nullptr);
  EXPECT_EQ(pt.rollup(5)->write_alternations, 2u);
  EXPECT_FALSE(pt.IsPingPong(*pt.rollup(5)));
  pt.OnPageEvent(WriteFault(5, 1));
  pt.OnPageEvent(Event(mem::TraceEventType::kShootdown, 5, 1));
  EXPECT_EQ(pt.rollup(5)->write_alternations, 3u);
  EXPECT_TRUE(pt.IsPingPong(*pt.rollup(5)));
  EXPECT_EQ(pt.FlaggedPingPong(), (std::vector<uint32_t>{5}));
}

TEST(PageTraceTest, NPartyRotationAlsoPingPongs) {
  // A,B,C,D never returns to a previous writer, but every write still
  // invalidates the one before it — the false-sharing cost is identical.
  PageTrace pt;
  for (int16_t p : {0, 1, 2, 3}) {
    pt.OnPageEvent(WriteFault(9, p));
    pt.OnPageEvent(Event(mem::TraceEventType::kShootdown, 9, p));
  }
  EXPECT_EQ(pt.rollup(9)->write_alternations, 3u);
  EXPECT_TRUE(pt.IsPingPong(*pt.rollup(9)));
}

TEST(PageTraceTest, LeaseExpiriesAreNotShootdownsAndDoNotPingPong) {
  // The same writer rotation under a lease protocol: ownership moves by
  // waiting out leases (kLeaseExpire), never by interrupting anyone. The
  // rotation is visible in write_alternations, but with zero shootdowns the
  // ping-pong detector must stay quiet — there is no IPI storm to fix.
  PageTrace pt;
  for (int16_t p : {0, 1, 2, 3}) {
    pt.OnPageEvent(WriteFault(9, p));
    pt.OnPageEvent(Event(mem::TraceEventType::kLeaseExpire, 9, p, /*detail=*/1));
  }
  EXPECT_EQ(pt.rollup(9)->write_alternations, 3u);
  EXPECT_EQ(pt.rollup(9)->shootdowns, 0u);
  EXPECT_EQ(pt.rollup(9)->lease_expiries, 4u);
  EXPECT_FALSE(pt.IsPingPong(*pt.rollup(9)));
  EXPECT_TRUE(pt.FlaggedPingPong().empty());
}

TEST(PageTraceTest, SingleWriterAndReadFaultsDoNotPingPong) {
  PageTrace pt;
  for (int i = 0; i < 10; ++i) {
    pt.OnPageEvent(WriteFault(2, /*processor=*/0));  // same writer every time
    pt.OnPageEvent(ReadFault(3, static_cast<int16_t>(i % 4)));  // reads never alternate
  }
  EXPECT_EQ(pt.rollup(2)->write_alternations, 0u);
  EXPECT_EQ(pt.rollup(3)->write_alternations, 0u);
  EXPECT_EQ(pt.rollup(3)->read_faults, 10u);
  EXPECT_TRUE(pt.FlaggedPingPong().empty());
}

// --- Freeze churn ------------------------------------------------------------

TEST(PageTraceTest, FreezeChurnCountsCompletedCycles) {
  PageTrace pt;  // default threshold: 2 completed cycles
  pt.OnPageEvent(Event(mem::TraceEventType::kFreeze, 7, 0));
  pt.OnPageEvent(Event(mem::TraceEventType::kThaw, 7, 0));
  EXPECT_EQ(pt.rollup(7)->freeze_cycles, 1u);
  EXPECT_FALSE(pt.IsFreezeChurn(*pt.rollup(7)));
  pt.OnPageEvent(Event(mem::TraceEventType::kFreeze, 7, 1));
  // An open freeze is not yet a cycle.
  EXPECT_EQ(pt.rollup(7)->freeze_cycles, 1u);
  pt.OnPageEvent(Event(mem::TraceEventType::kThaw, 7, 1));
  EXPECT_EQ(pt.rollup(7)->freeze_cycles, 2u);
  EXPECT_TRUE(pt.IsFreezeChurn(*pt.rollup(7)));
  EXPECT_EQ(pt.FlaggedFreezeChurn(), (std::vector<uint32_t>{7}));
}

TEST(PageTraceTest, ThawWithoutFreezeIsNotACycle) {
  PageTrace pt;
  pt.OnPageEvent(Event(mem::TraceEventType::kThaw, 4, 0));
  pt.OnPageEvent(Event(mem::TraceEventType::kThaw, 4, 0));
  EXPECT_EQ(pt.rollup(4)->freeze_cycles, 0u);
  EXPECT_EQ(pt.rollup(4)->thaws, 2u);
}

// --- Replication waste -------------------------------------------------------

TEST(PageTraceTest, ReplicaFreedAfterOnlyItsFaultingReadIsWaste) {
  PageTrace pt;
  // Processor 2 read-faults; the protocol replicates onto module 1 and the
  // faulting read lands on the new copy. The copy is invalidated before any
  // independent read, so its kPageFree reports that one read: the copy never
  // paid off.
  pt.OnPageEvent(ReadFault(7, 2));
  pt.OnPageEvent(Event(mem::TraceEventType::kReplicate, 7, 2, /*detail=*/1));
  pt.OnPageEvent(PageFree(7, 0, /*module=*/1, /*reads=*/1));
  EXPECT_EQ(pt.rollup(7)->replicas_created, 1u);
  EXPECT_EQ(pt.rollup(7)->replicas_wasted, 1u);
  EXPECT_TRUE(pt.IsReplicationWaste(*pt.rollup(7)));
  EXPECT_EQ(pt.FlaggedReplicationWaste(), (std::vector<uint32_t>{7}));
}

TEST(PageTraceTest, ReplicaWithIndependentReadsIsNotWaste) {
  PageTrace pt;
  pt.OnPageEvent(ReadFault(7, 2));
  pt.OnPageEvent(Event(mem::TraceEventType::kReplicate, 7, 2, /*detail=*/1));
  // The faulting read, and one read the replica actually served.
  pt.OnPageEvent(PageFree(7, 0, /*module=*/1, /*reads=*/2));
  EXPECT_EQ(pt.rollup(7)->replicas_wasted, 0u);
  EXPECT_FALSE(pt.IsReplicationWaste(*pt.rollup(7)));
}

// Reads through a vpn rebound to another page reach that page's copy, never
// the old page's replica on the same module: the replica is freed with only
// its faulting read to its name.
TEST(PageTraceTest, UnbindStopsReadAttribution) {
  constexpr uint32_t kVpn = 100;
  constexpr uint32_t kOtherVpn = 200;
  PageTrace pt;
  TestSystem sys(4);
  sys.kernel.AttachPageTrace(&pt);
  auto* space = sys.kernel.CreateAddressSpace("s");
  const uint32_t va = kVpn * sys.kernel.page_size();
  const uint32_t other_va = kOtherVpn * sys.kernel.page_size();
  vm::MemoryObject* first = sys.kernel.CreateMemoryObject("first", 1);
  vm::MemoryObject* second = sys.kernel.CreateMemoryObject("second", 1);
  sys.kernel.Map(space, first, 0, 1, kVpn, hw::Rights::kReadWrite);
  sys.kernel.SpawnThread(space, 0, "writer", [&] { sys.kernel.WriteWord(space, va, 5); });
  sys.kernel.SpawnThread(space, 2, "reader", [&] {
    sys.machine.scheduler().Sleep(2 * sim::kMillisecond);
    EXPECT_EQ(sys.kernel.ReadWord(space, va), 5u);  // replicates onto module 2
  });
  sys.kernel.Run();

  // Rebind the vpn to the second object; the first stays mapped elsewhere.
  sys.kernel.Unmap(space, kVpn, 1);
  sys.kernel.Map(space, second, 0, 1, kVpn, hw::Rights::kReadWrite);
  sys.kernel.Map(space, first, 0, 1, kOtherVpn, hw::Rights::kReadWrite);
  sys.kernel.SpawnThread(space, 2, "reader", [&] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(sys.kernel.ReadWord(space, va), 0u);  // the second page's own copy
    }
  });
  sys.kernel.SpawnThread(space, 0, "writer", [&] {
    sys.machine.scheduler().Sleep(2 * sim::kMillisecond);
    sys.kernel.WriteWord(space, other_va, 6);  // frees the first page's replica
  });
  sys.kernel.Run();

  const PageTrace::PageRollup* r = pt.rollup(first->cpage(0));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->replicas_created, 1u);
  EXPECT_EQ(r->frees, 1u);
  EXPECT_EQ(r->replicas_wasted, 1u);
  EXPECT_EQ(pt.accesses_seen(), 6u);
}

// A copy ReplicateMemory prefetched onto another node paid off once that
// node read it, although the reader did not create it.
TEST(PageTraceTest, PrefetchedReplicaThatServesReadsIsNotWaste) {
  PageTrace pt;
  TestSystem sys(4);
  sys.kernel.AttachPageTrace(&pt);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "prefetched", 4);
  const uint32_t cpage = sys.kernel.FindMemoryObject("prefetched")->cpage(0);
  sys.kernel.SpawnThread(space, 0, "writer", [&] {
    arr.Set(0, 1);
    sys.kernel.ReplicateMemory(space, arr.base_va(), 2);
    sys.machine.scheduler().Sleep(20 * sim::kMillisecond);
    arr.Set(0, 2);  // collapses the page, freeing the copy on module 2
  });
  sys.kernel.SpawnThread(space, 2, "reader", [&] {
    sys.machine.scheduler().Sleep(10 * sim::kMillisecond);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(arr.Get(0), 1u);
    }
  });
  sys.kernel.Run();
  const PageTrace::PageRollup* r = pt.rollup(cpage);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->replicas_created, 1u);
  EXPECT_EQ(r->frees, 1u);
  EXPECT_EQ(r->replicas_wasted, 0u);
}

// --- Bounded storage ---------------------------------------------------------

TEST(PageTraceTest, RingIsBoundedAndDropCounted) {
  PageTraceOptions options;
  options.ring_capacity = 4;
  PageTrace pt(options);
  for (uint32_t i = 0; i < 10; ++i) {
    pt.OnPageEvent(WriteFault(i, 0, /*time=*/i));
  }
  EXPECT_EQ(pt.events_seen(), 10u);
  EXPECT_EQ(pt.ring().recorded(), 10u);
  EXPECT_EQ(pt.ring().dropped(), 6u);
  EXPECT_EQ(pt.ring().Snapshot().size(), 4u);
  // Rollups are unaffected by ring wraparound.
  EXPECT_EQ(pt.pages_tracked(), 10u);
}

TEST(PageTraceTest, PagesBeyondMaxPagesAreDropCounted) {
  PageTraceOptions options;
  options.max_pages = 4;
  PageTrace pt(options);
  pt.OnPageEvent(WriteFault(3, 0));   // in bounds
  pt.OnPageEvent(WriteFault(10, 0));  // beyond the bound
  pt.OnPageEvent(WriteFault(10, 1));
  EXPECT_EQ(pt.rollups_dropped(), 2u);
  EXPECT_EQ(pt.rollup(10), nullptr);
  ASSERT_NE(pt.rollup(3), nullptr);
  EXPECT_EQ(pt.pages_tracked(), 1u);
  // The raw events still reach the ring.
  EXPECT_EQ(pt.ring().recorded(), 3u);
}

// --- Access observers ---------------------------------------------------------

struct CountingObserver : mem::AccessObserver {
  uint64_t calls = 0;
  void OnMemoryAccess(const mem::MemoryAccess& access) override {
    (void)access;
    ++calls;
  }
};

// The page trace takes no access callbacks, so an access observer installed
// before or after it keeps receiving every access, and the trace counts the
// same accesses either way.
TEST(PageTraceTest, ForwardsAccessesToChainedObserver) {
  auto run = [](bool observer_first) {
    PageTrace pt;
    CountingObserver observer;
    TestSystem sys(2);
    if (observer_first) {
      sys.kernel.memory().SetAccessObserver(&observer);
    }
    sys.kernel.AttachPageTrace(&pt);
    if (!observer_first) {
      sys.kernel.memory().SetAccessObserver(&observer);
    }
    auto* space = sys.kernel.CreateAddressSpace("s");
    rt::ZoneAllocator zone(&sys.kernel, space);
    auto arr = rt::SharedArray<uint32_t>::Create(zone, "words", 8);
    sys.kernel.SpawnThread(space, 0, "writer", [&] {
      for (size_t i = 0; i < 8; ++i) {
        arr.Set(i, static_cast<uint32_t>(i));
      }
    });
    sys.kernel.SpawnThread(space, 1, "reader", [&] {
      sys.machine.scheduler().Sleep(2 * sim::kMillisecond);
      for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(arr.Get(i), static_cast<uint32_t>(i));
      }
    });
    sys.kernel.Run();
    EXPECT_EQ(pt.accesses_seen(), observer.calls);
    return pt.accesses_seen();
  };
  const uint64_t observer_first = run(true);
  EXPECT_EQ(observer_first, 16u);
  EXPECT_EQ(run(false), observer_first);
}

// --- Report ------------------------------------------------------------------

TEST(PageTraceTest, ToJsonIsValidAndDeterministic) {
  PageTraceOptions options;
  options.top_k = 2;
  options.timeline_events_per_page = 2;
  PageTrace pt(options);
  for (int round = 0; round < 3; ++round) {
    pt.OnPageEvent(WriteFault(1, static_cast<int16_t>(round % 2), /*time=*/round * 10));
    pt.OnPageEvent(ReadFault(2, 0, /*time=*/round * 10 + 5));
  }
  pt.OnPageEvent(ReadFault(3, 1, /*time=*/100));  // falls outside top_k=2
  std::string json = pt.ToJson();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  for (const char* key : {"schema", "flagged", "ping_pong", "top_pages", "timeline",
                          "rollups_dropped", "ring", "thresholds"}) {
    EXPECT_TRUE(obs::CheckJsonHasKey(json, key)) << "missing key " << key;
  }
  EXPECT_NE(json.find("platinum-page-forensics-v1"), std::string::npos);
  // Page 1 (3 faults) ranks first; the 3-event timeline is trimmed to 2.
  EXPECT_NE(json.find("\"timeline_truncated\":true"), std::string::npos);
  EXPECT_EQ(json, pt.ToJson());  // a report is a pure function of the stream
}

// --- Trie serving forensics --------------------------------------------------

// End-to-end detector attribution on the serving trie (docs/WORKLOADS.md):
// hot leaf pages carry owner-sharded writes under concurrent readers, so the
// directory protocol resolves them with shootdown rounds and the ping-pong
// detector must flag them; interior pages are read on every lookup and
// written only during structural growth, so they replicate instead and must
// stay off the ping-pong list. The address space's Cmap ties the flagged
// coherent pages back to the trie's node pools.
TEST(PageTraceTest, TrieServingAttributesLeafPingPongNotInterior) {
  PageTrace pt;
  TestSystem sys(8);
  sys.kernel.AttachPageTrace(&pt);

  load::DriverConfig config;
  config.spec.keys = 1 << 10;
  config.spec.ops = 40000;
  config.spec.read_fraction = 0.5;  // write-heavy: keep the leaf pages hot
  config.procs = 8;
  load::ServeResult result = load::RunTrieServe(sys.kernel, config);
  ASSERT_TRUE(result.verified);

  const mem::Cmap& cmap = sys.kernel.memory().cmap(result.as_id);
  auto pool_cpages = [&](uint32_t base_va, uint32_t words) {
    std::set<uint32_t> out;
    const uint32_t page = sys.kernel.page_size();
    for (uint32_t va = base_va; va < base_va + words * 4; va += page) {
      const mem::CmapEntry& entry = cmap.entry(sys.kernel.VpnOf(va));
      if (entry.bound()) {
        out.insert(entry.cpage);
      }
    }
    return out;
  };
  std::set<uint32_t> interior =
      pool_cpages(result.interior_base_va, result.interior_words);
  std::set<uint32_t> leaves = pool_cpages(result.leaf_base_va, result.leaf_words);
  std::set<uint32_t> sync;
  for (uint32_t va : result.sync_vas) {
    const mem::CmapEntry& entry = cmap.entry(sys.kernel.VpnOf(va));
    if (entry.bound()) {
      sync.insert(entry.cpage);
    }
  }
  ASSERT_FALSE(interior.empty());
  ASSERT_FALSE(leaves.empty());
  ASSERT_FALSE(sync.empty());
  for (uint32_t cpage : interior) {
    EXPECT_EQ(leaves.count(cpage), 0u) << "pools share cpage " << cpage;
    EXPECT_EQ(sync.count(cpage), 0u) << "sync word on interior cpage " << cpage;
  }
  for (uint32_t cpage : leaves) {
    EXPECT_EQ(sync.count(cpage), 0u) << "sync word on leaf cpage " << cpage;
  }

  size_t leaf_ping_pong = 0;
  size_t interior_ping_pong = 0;
  size_t sync_ping_pong = 0;
  size_t unattributed = 0;
  for (uint32_t cpage : pt.FlaggedPingPong()) {
    if (leaves.count(cpage) != 0) {
      ++leaf_ping_pong;
    } else if (interior.count(cpage) != 0) {
      ++interior_ping_pong;
    } else if (sync.count(cpage) != 0) {
      ++sync_ping_pong;
    } else {
      ++unattributed;
    }
  }
  auto pool_totals = [&](const std::set<uint32_t>& pool) {
    uint64_t alternations = 0;
    uint64_t replications = 0;
    for (uint32_t cpage : pool) {
      if (const PageTrace::PageRollup* r = pt.rollup(cpage)) {
        alternations += r->write_alternations;
        replications += r->replications;
      }
    }
    return std::pair<uint64_t, uint64_t>(alternations, replications);
  };
  auto [interior_alt, interior_repl] = pool_totals(interior);
  auto [leaf_alt, leaf_repl] = pool_totals(leaves);
  std::printf(
      "trie forensics: cpages interior=%zu leaf=%zu sync=%zu; ping-pong "
      "leaf=%zu interior=%zu sync=%zu unattributed=%zu; alternations "
      "interior=%llu leaf=%llu; replications interior=%llu leaf=%llu\n",
      interior.size(), leaves.size(), sync.size(), leaf_ping_pong,
      interior_ping_pong, sync_ping_pong, unattributed,
      static_cast<unsigned long long>(interior_alt),
      static_cast<unsigned long long>(leaf_alt),
      static_cast<unsigned long long>(interior_repl),
      static_cast<unsigned long long>(leaf_repl));

  // Hot leaf pages take owner-sharded writes under concurrent readers and
  // get flagged. Alternation totals stay small on both pools — the
  // timestamp policy freezes a write-shared page after a few invalidating
  // writes, so alternation saturates right past the detector threshold —
  // and under churn the interior pool is legitimately flagged too (erases
  // and re-inserts rewrite parent child slots from every owner).
  EXPECT_GT(leaf_ping_pong, 0u);
  EXPECT_GT(leaf_alt, 0u);
  EXPECT_GT(interior_alt, 0u);
  // Sync pages (slice locks, barrier) ping-pong by design — the paper's
  // Section 6 point that sync words need their own pages.
  EXPECT_GT(sync_ping_pong, 0u);
  // Every flagged page traces back to a known structure: the Cmap leaves
  // nothing unattributed.
  EXPECT_EQ(unattributed, 0u);
  // The replicate-vs-freeze split lands where the paper says it should:
  // read-mostly interior pages replicate, write-shared leaf pages do not.
  EXPECT_GT(interior_repl, 0u);
  EXPECT_EQ(leaf_repl, 0u);
}

// --- Epoch sampler -----------------------------------------------------------

TEST(EpochSamplerTest, ClosesEveryBoundaryCrossedByOneAdvance) {
  TestSystem sys(2);
  EpochSamplerOptions options;
  options.epoch_ns = 10 * sim::kMillisecond;
  EpochSampler sampler(&sys.machine, options);
  sys.machine.scheduler().SetTimeObserver(&sampler);
  auto* space = sys.kernel.CreateAddressSpace("s");
  sys.kernel.SpawnThread(space, 0, "sleeper", [&] {
    // One long sleep jumps global time across three boundaries at once;
    // the sampler must close each of them (catch-up loop).
    sys.machine.scheduler().Sleep(35 * sim::kMillisecond);
  });
  sys.kernel.Run();
  sampler.Finalize();
  const std::vector<EpochSampler::Sample>& samples = sampler.samples();
  ASSERT_GE(samples.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(samples[i].end_ns, (i + 1) * 10 * sim::kMillisecond);
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].end_ns, samples[i - 1].end_ns);
    // Snapshots are cumulative, so every counter is monotone.
    EXPECT_GE(samples[i].stats.faults, samples[i - 1].stats.faults);
  }
  std::string json = sampler.ToJson();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  EXPECT_TRUE(obs::CheckJsonHasKey(json, "epochs"));
  EXPECT_NE(json.find("platinum-timeseries-v1"), std::string::npos);
  EXPECT_EQ(json, sampler.ToJson());
}

TEST(EpochSamplerTest, SamplesAreBoundedAndDropCounted) {
  TestSystem sys(2);
  EpochSamplerOptions options;
  options.epoch_ns = 1 * sim::kMillisecond;
  options.max_samples = 2;
  EpochSampler sampler(&sys.machine, options);
  sys.machine.scheduler().SetTimeObserver(&sampler);
  auto* space = sys.kernel.CreateAddressSpace("s");
  sys.kernel.SpawnThread(space, 0, "sleeper", [&] {
    sys.machine.scheduler().Sleep(10 * sim::kMillisecond);
  });
  sys.kernel.Run();
  sampler.Finalize();
  EXPECT_EQ(sampler.samples().size(), 2u);
  EXPECT_GT(sampler.samples_dropped(), 0u);
  std::string json = sampler.ToJson();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  EXPECT_NE(json.find("\"samples_dropped\":"), std::string::npos);
}

TEST(EpochSamplerTest, SamplesRealFaultActivityIntoEpochDeltas) {
  TestSystem sys(2);
  EpochSamplerOptions options;
  options.epoch_ns = 1 * sim::kMillisecond;
  EpochSampler sampler(&sys.machine, options);
  sys.machine.scheduler().SetTimeObserver(&sampler);
  auto* space = sys.kernel.CreateAddressSpace("s");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "data", 64);
  sys.kernel.SpawnThread(space, 0, "writer", [&] {
    for (size_t i = 0; i < 64; ++i) {
      arr.Set(i, static_cast<uint32_t>(i));
    }
    sys.machine.scheduler().Sleep(2 * sim::kMillisecond);
  });
  sys.kernel.Run();
  sampler.Finalize();
  ASSERT_GE(sampler.samples().size(), 1u);
  const EpochSampler::Sample& last = sampler.samples().back();
  EXPECT_GT(last.stats.faults, 0u);
  ASSERT_EQ(last.cpu_faults.size(), 2u);
  EXPECT_EQ(last.cpu_faults[0] + last.cpu_faults[1], last.stats.faults);
}

}  // namespace
}  // namespace platinum
