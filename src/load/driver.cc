#include "src/load/driver.h"

#include <functional>

#include "src/apps/workloads.h"
#include "src/base/check.h"
#include "src/obs/json.h"
#include "src/runtime/parallel.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::load {

const char* OpClassName(int op_class) {
  switch (op_class) {
    case kOpReadHit:
      return "read_hit";
    case kOpReadMiss:
      return "read_miss";
    case kOpInsert:
      return "insert";
    case kOpErase:
      return "erase";
    default:
      return "unknown";
  }
}

ServeResult RunTrieServe(kernel::Kernel& kernel, const DriverConfig& config) {
  PLAT_CHECK_GE(config.procs, 1);
  PLAT_CHECK_LE(config.procs, kernel.num_processors());
  if (config.arrival == ArrivalMode::kOpen) {
    PLAT_CHECK_GT(config.interarrival_ns, 0);
  }
  const WorkloadSpec& spec = config.spec;
  const uint32_t workers = static_cast<uint32_t>(config.procs);
  RequestScript script = RequestScript::Generate(spec, workers);

  auto* space = kernel.CreateAddressSpace("trie-serve");
  rt::ZoneAllocator zone(&kernel, space);
  apps::SharedTrie::Options trie_options;
  trie_options.max_keys = spec.keys;
  trie_options.advise = config.advise;
  apps::SharedTrie trie = apps::SharedTrie::Create(zone, trie_options);
  rt::Barrier barrier(zone, "serve-barrier", workers);

  ServeResult result;
  sim::SimTime t_start = 0;
  rt::RunOnProcessors(kernel, space, config.procs, "trie-serve", [&](int pid) {
    const uint32_t p = static_cast<uint32_t>(pid);
    // Preload phase (untimed): each owner first-touches its own keys, so
    // leaf pages start resident where their writer lives.
    for (uint32_t key : script.PreloadFor(p)) {
      trie.Insert(key, RequestScript::PreloadValue(spec.seed, key));
    }
    barrier.Wait();
    if (pid == 0) {
      t_start = kernel.Now();
    }
    const sim::SimTime open_base = kernel.Now();
    uint64_t issued = 0;
    for (const Request& req : script.ForWorker(p)) {
      sim::SimTime start = kernel.Now();
      if (config.arrival == ArrivalMode::kOpen) {
        sim::SimTime arrival = open_base + issued * config.interarrival_ns;
        if (start < arrival) {
          kernel.machine().scheduler().Sleep(arrival - start);
        }
        start = arrival;  // a late server accrues queueing delay
      }
      int op_class = kNumOpClasses;
      switch (req.op) {
        case OpKind::kLookup: {
          uint32_t value = 0;
          op_class = trie.Lookup(req.key, &value) ? kOpReadHit : kOpReadMiss;
          break;
        }
        case OpKind::kInsert:
          trie.Insert(req.key, req.value);
          op_class = kOpInsert;
          break;
        case OpKind::kErase:
          trie.Erase(req.key);
          op_class = kOpErase;
          break;
      }
      result.latency[op_class].Record(kernel.Now() - start);
      ++issued;
    }
    barrier.Wait();
  });
  result.serve_ns = kernel.machine().scheduler().global_now() - t_start;
  for (int c = 0; c < kNumOpClasses; ++c) {
    result.requests += result.latency[c].count();
  }
  for (uint32_t p = 0; p < workers; ++p) {
    result.preloaded += script.PreloadFor(p).size();
  }
  result.trie = trie.host_stats();
  result.as_id = trie.space()->id();
  result.interior_base_va = trie.interior_base_va();
  result.interior_words = trie.interior_words();
  result.leaf_base_va = trie.leaf_base_va();
  result.leaf_words = trie.leaf_words();
  result.sync_vas = trie.sync_vas();
  result.sync_vas.push_back(barrier.base_va());

  // Post-run walk: one fresh simulated thread reads the final contents.
  uint64_t entries = 0;
  apps::Checksum sum;
  kernel.SpawnThread(space, 0, "trie-verify", [&] {
    trie.Visit([&](uint32_t key, uint32_t value) {
      ++entries;
      sum.Add(key);
      sum.Add(value);
    });
  });
  kernel.Run();
  result.entries = entries;
  result.checksum = sum.value();
  if (config.verify) {
    RequestScript::Reference ref = script.ReplayReference();
    result.verified = ref.checksum == result.checksum && ref.entries == result.entries;
    PLAT_CHECK(result.verified)
        << "trie contents diverge from the reference replay: entries " << result.entries
        << " vs " << ref.entries << ", checksum " << result.checksum << " vs "
        << ref.checksum;
  }
  return result;
}

namespace {

void WriteClass(obs::JsonWriter& w, const char* name, const obs::LatencyHistogram& h) {
  w.Key(name).BeginObject();
  w.Key("count").Value(h.count());
  if (h.count() > 0) {
    w.Key("mean_us").Value(h.Mean() / 1000.0);
    w.Key("p50_us").Value(static_cast<double>(h.Percentile(50)) / 1000.0);
    w.Key("p90_us").Value(static_cast<double>(h.Percentile(90)) / 1000.0);
    w.Key("p99_us").Value(static_cast<double>(h.Percentile(99)) / 1000.0);
    w.Key("min_us").Value(static_cast<double>(h.min()) / 1000.0);
    w.Key("max_us").Value(static_cast<double>(h.max()) / 1000.0);
  }
  w.EndObject();
}

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xF]);
  }
  return out;
}

}  // namespace

std::string ServingStatsJson(const DriverConfig& config, const ServeResult& result) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("platinum-serving-v1");
  w.Key("config").BeginObject();
  w.Key("workload").Value("trie");
  w.Key("procs").Value(config.procs);
  w.Key("keys").Value(static_cast<uint64_t>(config.spec.keys));
  w.Key("ops").Value(config.spec.ops);
  w.Key("seed").Value(config.spec.seed);
  w.Key("zipf_s").Value(config.spec.zipf_s);
  w.Key("read_fraction").Value(config.spec.read_fraction);
  w.Key("churn").Value(config.spec.churn);
  w.Key("preload_fraction").Value(config.spec.preload_fraction);
  w.Key("arrival").Value(config.arrival == ArrivalMode::kOpen ? "open" : "closed");
  if (config.arrival == ArrivalMode::kOpen) {
    w.Key("interarrival_us").Value(static_cast<double>(config.interarrival_ns) / 1000.0);
  }
  w.EndObject();
  w.Key("totals").BeginObject();
  w.Key("requests").Value(result.requests);
  w.Key("preloaded").Value(result.preloaded);
  w.Key("sim_seconds").Value(static_cast<double>(result.serve_ns) * 1e-9);
  if (result.serve_ns > 0) {
    w.Key("requests_per_sim_sec")
        .Value(static_cast<double>(result.requests) /
               (static_cast<double>(result.serve_ns) * 1e-9));
  } else {
    w.Key("requests_per_sim_sec").Null();
  }
  w.EndObject();
  w.Key("classes").BeginObject();
  for (int c = 0; c < kNumOpClasses; ++c) {
    WriteClass(w, OpClassName(c), result.latency[c]);
  }
  w.EndObject();
  w.Key("trie").BeginObject();
  w.Key("entries").Value(result.entries);
  w.Key("checksum").Value(HexU64(result.checksum));
  w.Key("inserts_new").Value(result.trie.inserts_new);
  w.Key("inserts_update").Value(result.trie.inserts_update);
  w.Key("erases_hit").Value(result.trie.erases_hit);
  w.Key("erases_miss").Value(result.trie.erases_miss);
  w.Key("lookup_retries").Value(result.trie.lookup_retries);
  w.Key("interior_allocated").Value(result.trie.interior_allocated);
  w.Key("leaf_allocated").Value(result.trie.leaf_allocated);
  w.Key("leaf_reused").Value(result.trie.leaf_reused);
  w.Key("max_depth").Value(result.trie.max_depth);
  w.EndObject();
  w.Key("verified").Value(result.verified);
  w.EndObject();
  return w.str();
}

}  // namespace platinum::load
