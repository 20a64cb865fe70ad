// platsim: run any workload on any machine/policy configuration and dump the
// kernel's instrumentation — the "shell" layer the paper mentions
// accumulating around the kernel (Section 9).
//
//   $ ./build/examples/platsim gauss --procs=8 --n=128 --policy=always --report
//   $ ./build/examples/platsim neural --procs=16 --trace
//   $ ./build/examples/platsim pattern --kind=migratory --think-us=15000
//   $ ./build/examples/platsim gauss --procs=8 --trace-json=out.json
//         --stats-json=stats.json --histograms
//   $ ./build/examples/platsim gauss --check-races --check-invariants
//   $ ./build/examples/platsim explore --procs=2 --pages=1
//
//   $ ./build/examples/platsim trie --procs=32 --ops=2000000 --zipf-s=0.99
//         --churn=0.5 --stats-json=stats.json
//
// Workloads: gauss | sort | neural | pattern | trie | racy | explore
//   trie     serving workload: Zipf lookups + owner-sharded insert/erase
//            churn on a shared radix trie (docs/WORKLOADS.md); per-request
//            latency lands under "serving" in --stats-json
//   racy     deliberately unsynchronized writers (the race-detector demo;
//            with --check-races it exits 1)
//   explore  bounded model checking of the protocol (docs/CHECKING.md)
// Options:   --procs=N --n=N --count=N --epochs=N --policy=NAME --page=BYTES
//            --protocol=directory|tardis   coherence protocol (docs/PROTOCOL.md)
//            --lease-us=N        tardis lease duration (default 50 us)
//            --lease-policy=fixed|doubling  tardis lease-duration policy
//            --t1-ms=N --no-defrost --adaptive-defrost --kind=PATTERN
//            --think-us=N --report --trace
//            --ops=N --keys=N --seed=N      trie request volume / key universe
//            --zipf-s=S --read-fraction=F --churn=F --preload=F  trie mix
//            --arrival=closed|open --interarrival-us=N --advise  trie arrivals
//            --trace-json=FILE   Chrome/Perfetto trace-event JSON
//            --stats-json=FILE   counters + histograms + report as JSON
//            --page-report=FILE  per-page forensics JSON (docs/OBSERVABILITY.md)
//            --topk-pages=K      pages in the forensics hot-page table
//            --timeseries-json=FILE  per-epoch counter time-series JSON
//            --epoch-ms=N        simulated epoch length for the time-series
//            --histograms        print latency histograms and counter tables
//            --validate          check the emitted JSON, exit 1 on failure
//            --check-races       vector-clock race detection, exit 1 on a race
//            --check-invariants  full invariant check after every transition
//            --pages=N --depth=N explorer configuration
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/apps/neural.h"
#include "src/apps/patterns.h"
#include "src/check/explorer.h"
#include "src/check/oracle.h"
#include "src/check/race_detector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/report.h"
#include "src/load/driver.h"
#include "src/mem/policy.h"
#include "src/mem/protocol_spec.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/page_trace.h"
#include "src/obs/timeseries.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"

using namespace platinum;  // NOLINT

namespace {

struct Options {
  std::string workload = "gauss";
  int procs = 8;
  int n = 128;
  size_t count = 1 << 14;
  int epochs = 8;
  std::string policy = "timestamp";
  std::string protocol = "directory";
  int lease_us = 0;  // 0 = the protocol's default lease
  std::string lease_policy = "fixed";
  uint32_t page_bytes = 4096;
  int t1_ms = 10;
  bool defrost = true;
  bool adaptive = false;
  std::string pattern_kind = "read-shared";
  int think_us = 200;
  bool report = false;
  bool trace = false;
  std::string trace_json;
  std::string stats_json;
  std::string page_report;
  int topk_pages = 16;
  std::string timeseries_json;
  int epoch_ms = 10;
  bool histograms = false;
  bool validate = false;
  bool check_races = false;
  bool check_invariants = false;
  int pages = 1;
  int depth = 32;
  // Serving (trie) workload.
  uint64_t ops = 1ull << 20;
  uint32_t keys = 1u << 14;
  uint64_t seed = 1;
  double zipf_s = 0.99;
  double read_fraction = 0.90;
  double churn = 0.5;
  double preload = 0.5;
  std::string arrival = "closed";
  int interarrival_us = 20;
  bool advise = false;
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) == 0) {
    *value = arg + len;
    return true;
  }
  return false;
}

Options Parse(int argc, char** argv) {
  Options options;
  if (argc > 1 && argv[1][0] != '-') {
    options.workload = argv[1];
  }
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (StartsWith(argv[i], "--procs=", &value)) {
      options.procs = std::atoi(value);
    } else if (StartsWith(argv[i], "--n=", &value)) {
      options.n = std::atoi(value);
    } else if (StartsWith(argv[i], "--count=", &value)) {
      options.count = static_cast<size_t>(std::atoll(value));
    } else if (StartsWith(argv[i], "--epochs=", &value)) {
      options.epochs = std::atoi(value);
    } else if (StartsWith(argv[i], "--policy=", &value)) {
      options.policy = value;
    } else if (StartsWith(argv[i], "--protocol=", &value)) {
      options.protocol = value;
    } else if (StartsWith(argv[i], "--lease-us=", &value)) {
      options.lease_us = std::atoi(value);
    } else if (StartsWith(argv[i], "--lease-policy=", &value)) {
      options.lease_policy = value;
    } else if (StartsWith(argv[i], "--page=", &value)) {
      options.page_bytes = static_cast<uint32_t>(std::atoi(value));
    } else if (StartsWith(argv[i], "--t1-ms=", &value)) {
      options.t1_ms = std::atoi(value);
    } else if (StartsWith(argv[i], "--kind=", &value)) {
      options.pattern_kind = value;
    } else if (StartsWith(argv[i], "--think-us=", &value)) {
      options.think_us = std::atoi(value);
    } else if (std::strcmp(argv[i], "--no-defrost") == 0) {
      options.defrost = false;
    } else if (std::strcmp(argv[i], "--adaptive-defrost") == 0) {
      options.adaptive = true;
    } else if (StartsWith(argv[i], "--trace-json=", &value)) {
      options.trace_json = value;
    } else if (StartsWith(argv[i], "--stats-json=", &value)) {
      options.stats_json = value;
    } else if (StartsWith(argv[i], "--page-report=", &value)) {
      options.page_report = value;
    } else if (StartsWith(argv[i], "--topk-pages=", &value)) {
      options.topk_pages = std::atoi(value);
    } else if (StartsWith(argv[i], "--timeseries-json=", &value)) {
      options.timeseries_json = value;
    } else if (StartsWith(argv[i], "--epoch-ms=", &value)) {
      options.epoch_ms = std::atoi(value);
    } else if (std::strcmp(argv[i], "--report") == 0) {
      options.report = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
    } else if (std::strcmp(argv[i], "--histograms") == 0) {
      options.histograms = true;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      options.validate = true;
    } else if (std::strcmp(argv[i], "--check-races") == 0) {
      options.check_races = true;
    } else if (std::strcmp(argv[i], "--check-invariants") == 0) {
      options.check_invariants = true;
    } else if (StartsWith(argv[i], "--pages=", &value)) {
      options.pages = std::atoi(value);
    } else if (StartsWith(argv[i], "--depth=", &value)) {
      options.depth = std::atoi(value);
    } else if (StartsWith(argv[i], "--ops=", &value)) {
      options.ops = static_cast<uint64_t>(std::atoll(value));
    } else if (StartsWith(argv[i], "--keys=", &value)) {
      options.keys = static_cast<uint32_t>(std::atoll(value));
    } else if (StartsWith(argv[i], "--seed=", &value)) {
      options.seed = static_cast<uint64_t>(std::atoll(value));
    } else if (StartsWith(argv[i], "--zipf-s=", &value)) {
      options.zipf_s = std::atof(value);
    } else if (StartsWith(argv[i], "--read-fraction=", &value)) {
      options.read_fraction = std::atof(value);
    } else if (StartsWith(argv[i], "--churn=", &value)) {
      options.churn = std::atof(value);
    } else if (StartsWith(argv[i], "--preload=", &value)) {
      options.preload = std::atof(value);
    } else if (StartsWith(argv[i], "--arrival=", &value)) {
      options.arrival = value;
    } else if (StartsWith(argv[i], "--interarrival-us=", &value)) {
      options.interarrival_us = std::atoi(value);
    } else if (std::strcmp(argv[i], "--advise") == 0) {
      options.advise = true;
    }
  }
  return options;
}

apps::AccessPattern ParsePattern(const std::string& kind) {
  if (kind == "private") return apps::AccessPattern::kPrivate;
  if (kind == "read-shared") return apps::AccessPattern::kReadShared;
  if (kind == "migratory") return apps::AccessPattern::kMigratory;
  if (kind == "producer-consumer") return apps::AccessPattern::kProducerConsumer;
  if (kind == "hot-spot") return apps::AccessPattern::kHotSpotWrite;
  if (kind == "false-sharing") return apps::AccessPattern::kFalseSharing;
  std::fprintf(stderr, "unknown pattern '%s'\n", kind.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  Options options = Parse(argc, argv);

  if (options.workload == "explore") {
    // The explorer boots its own tiny machines; the shell options only
    // parameterize the search.
    check::ExplorerConfig config;
    config.processors = options.procs;
    config.pages = options.pages;
    config.max_depth = options.depth;
    config.policy = options.policy;
    config.protocol = options.protocol;
    std::printf("platsim: protocol explorer, %d processors, %d page%s, policy=%s, "
                "protocol=%s\n",
                config.processors, config.pages, config.pages == 1 ? "" : "s",
                config.policy.c_str(), config.protocol.c_str());
    check::ExplorerResult result = check::ExploreProtocol(config);
    std::printf("explore: %s\n", result.Summary().c_str());
    return 0;  // an invariant violation would have aborted
  }

  // The machine grows with --procs (64-node serving runs) but never shrinks
  // below the historical 16 nodes, so existing configurations are unchanged.
  sim::MachineParams params = sim::ButterflyPlusParams(std::max(16, options.procs));
  params.page_size_bytes = options.page_bytes;
  params.frames_per_module = (4u << 20) / options.page_bytes;
  params.adaptive_defrost = options.adaptive;
  sim::Machine machine(params);

  kernel::KernelOptions kernel_options;
  kernel_options.policy = mem::MakePolicy(
      options.policy, static_cast<sim::SimTime>(options.t1_ms) * sim::kMillisecond);
  kernel_options.start_defrost_daemon = options.defrost;
  mem::ProtocolKind kind;
  if (!mem::ProtocolKindFromName(options.protocol.c_str(), &kind)) {
    std::fprintf(stderr, "unknown protocol '%s' (directory|tardis)\n",
                 options.protocol.c_str());
    return 1;
  }
  kernel_options.protocol = options.protocol;
  kernel_options.tardis_lease_ns =
      static_cast<sim::SimTime>(options.lease_us) * sim::kMicrosecond;
  kernel_options.tardis_lease_policy = options.lease_policy;
  kernel::Kernel kernel(&machine, std::move(kernel_options));
  std::unique_ptr<check::InvariantOracle> oracle;
  if (options.check_invariants) {
    oracle = std::make_unique<check::InvariantOracle>(&kernel.memory());
  }
  if (options.check_races) {
    kernel.EnableRaceDetection();
  }
  if (options.trace || !options.trace_json.empty()) {
    // The JSON exporter wants the whole run, not just the tail, so give it a
    // much deeper buffer than the human-readable dump needs.
    kernel.memory().EnableTracing(options.trace_json.empty() ? 8192 : 65536);
  }
  std::unique_ptr<obs::PageTrace> page_trace;
  if (!options.page_report.empty()) {
    obs::PageTraceOptions pt_options;
    pt_options.top_k = static_cast<size_t>(std::max(1, options.topk_pages));
    page_trace = std::make_unique<obs::PageTrace>(pt_options);
    kernel.AttachPageTrace(page_trace.get());
  }
  std::unique_ptr<obs::EpochSampler> sampler;
  if (!options.timeseries_json.empty()) {
    obs::EpochSamplerOptions ts_options;
    ts_options.epoch_ns =
        static_cast<sim::SimTime>(std::max(1, options.epoch_ms)) * sim::kMillisecond;
    sampler = std::make_unique<obs::EpochSampler>(&machine, ts_options);
    machine.scheduler().SetTimeObserver(sampler.get());
  }

  std::printf("platsim: %s, %d processors, policy=%s, protocol=%s, page=%u B\n",
              options.workload.c_str(), options.procs, options.policy.c_str(),
              options.protocol.c_str(), options.page_bytes);

  // Rendered by the trie workload; embedded under "serving" in --stats-json.
  std::string serving_json;

  if (options.workload == "gauss") {
    apps::GaussConfig config;
    config.n = options.n;
    config.processors = options.procs;
    apps::GaussResult result = RunGaussPlatinum(kernel, config);
    std::printf("elimination: %.3f sim-s, %s\n", sim::ToSeconds(result.elimination_ns),
                result.verified ? "verified" : "unverified");
  } else if (options.workload == "sort") {
    apps::SortConfig config;
    config.count = options.count;
    config.processors = options.procs;
    apps::SortResult result = RunMergeSortPlatinum(kernel, config);
    std::printf("sort: %.3f sim-s, %s\n", sim::ToSeconds(result.sort_ns),
                result.verified ? "verified" : "unverified");
  } else if (options.workload == "neural") {
    apps::NeuralConfig config;
    config.processors = options.procs;
    config.epochs = options.epochs;
    apps::NeuralResult result = RunNeuralPlatinum(kernel, config);
    std::printf("training: %.3f sim-s, error %llu -> %llu\n",
                sim::ToSeconds(result.train_ns),
                static_cast<unsigned long long>(result.initial_error),
                static_cast<unsigned long long>(result.final_error));
  } else if (options.workload == "pattern") {
    apps::PatternConfig config;
    config.pattern = ParsePattern(options.pattern_kind);
    config.processors = options.procs;
    config.think_ns = static_cast<sim::SimTime>(options.think_us) * sim::kMicrosecond;
    apps::PatternResult result = RunPattern(kernel, config);
    std::printf(
        "pattern %s: %.3f sim-ms; repl %llu, migr %llu, remote-maps %llu, freezes %llu\n",
        options.pattern_kind.c_str(), sim::ToMilliseconds(result.elapsed_ns),
        static_cast<unsigned long long>(result.replications),
        static_cast<unsigned long long>(result.migrations),
        static_cast<unsigned long long>(result.remote_maps),
        static_cast<unsigned long long>(result.freezes));
  } else if (options.workload == "trie") {
    load::DriverConfig config;
    config.spec.seed = options.seed;
    config.spec.keys = options.keys;
    config.spec.ops = options.ops;
    config.spec.zipf_s = options.zipf_s;
    config.spec.read_fraction = options.read_fraction;
    config.spec.churn = options.churn;
    config.spec.preload_fraction = options.preload;
    config.procs = options.procs;
    if (options.arrival == "open") {
      config.arrival = load::ArrivalMode::kOpen;
    } else if (options.arrival != "closed") {
      std::fprintf(stderr, "unknown arrival mode '%s' (closed|open)\n",
                   options.arrival.c_str());
      return 1;
    }
    config.interarrival_ns =
        static_cast<sim::SimTime>(options.interarrival_us) * sim::kMicrosecond;
    config.advise = options.advise;
    load::ServeResult result = RunTrieServe(kernel, config);
    serving_json = ServingStatsJson(config, result);
    const obs::LatencyHistogram& hit = result.latency[load::kOpReadHit];
    std::printf("serving: %llu requests in %.3f sim-s (%llu entries, %s); "
                "read-hit p50 %.1f us p99 %.1f us, %llu lookup retries\n",
                static_cast<unsigned long long>(result.requests),
                sim::ToSeconds(result.serve_ns),
                static_cast<unsigned long long>(result.entries),
                result.verified ? "verified" : "unverified",
                static_cast<double>(hit.Percentile(50)) / 1000.0,
                static_cast<double>(hit.Percentile(99)) / 1000.0,
                static_cast<unsigned long long>(result.trie.lookup_retries));
  } else if (options.workload == "racy") {
    // Deliberately racy: unsynchronized read-modify-write of one shared word
    // by every thread — the seeded workload the race detector must flag.
    auto* space = kernel.CreateAddressSpace("racy");
    rt::ZoneAllocator zone(&kernel, space);
    auto shared = rt::SharedArray<uint32_t>::Create(zone, "racy-word", 1);
    int workers = std::max(2, std::min(options.procs, kernel.num_processors()));
    rt::RunOnProcessors(kernel, space, workers, "racy", [&](int) {
      for (int i = 0; i < 64; ++i) {
        shared.Set(0, shared.Get(0) + 1);
      }
    });
    uint32_t final_value = 0;
    rt::RunOnProcessors(kernel, space, 1, "racy-read",
                        [&](int) { final_value = shared.Get(0); });
    std::printf("racy: final value %u after %d unsynchronized writers\n", final_value,
                workers);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (gauss|sort|neural|pattern|trie|racy|explore)\n",
                 options.workload.c_str());
    return 1;
  }

  if (options.report) {
    std::printf("\n%s", BuildMemoryReport(kernel).ToString().c_str());
  }
  if (options.trace) {
    std::printf("\nlast protocol events:\n%s", kernel.memory().trace()->ToString(24).c_str());
    std::printf("(%llu events recorded, %llu dropped)\n",
                static_cast<unsigned long long>(kernel.memory().trace()->recorded()),
                static_cast<unsigned long long>(kernel.memory().trace()->dropped()));
  }
  if (options.histograms) {
    std::printf("\n%s", machine.obs().ToString().c_str());
  }

  bool valid = true;
  if (options.check_races) {
    check::RaceDetector* detector = kernel.race_detector();
    std::printf("\n%s\n", detector->Summary().c_str());
    for (const check::RaceReport& report : detector->reports()) {
      std::printf("%s\n", report.ToString().c_str());
    }
    if (detector->races_found() > 0) {
      valid = false;
    }
  }
  if (options.check_invariants) {
    std::printf("invariant oracle: %llu transitions checked, all invariants held\n",
                static_cast<unsigned long long>(oracle->transitions_checked()));
    oracle->CheckNow();
  }
  if (sampler != nullptr) {
    sampler->Finalize();
  }
  if (!options.trace_json.empty()) {
    std::string doc = obs::ExportChromeTrace(machine, kernel.memory().trace(), sampler.get());
    obs::WriteFileOrDie(options.trace_json, doc);
    std::printf("wrote %s (%zu bytes)\n", options.trace_json.c_str(), doc.size());
    if (options.validate) {
      if (!obs::CheckJsonBalanced(doc) || !obs::CheckJsonHasKey(doc, "traceEvents") ||
          !obs::CheckTraceTsMonotone(doc)) {
        std::fprintf(stderr, "validation FAILED for %s\n", options.trace_json.c_str());
        valid = false;
      }
    }
  }
  if (!options.stats_json.empty()) {
    kernel::MemoryReport mem_report = BuildMemoryReport(kernel);
    obs::TelemetrySummary telemetry{page_trace.get(), sampler.get(),
                                    serving_json.empty() ? nullptr : &serving_json};
    std::string doc = obs::ExportStatsJson(machine, &mem_report, &telemetry);
    obs::WriteFileOrDie(options.stats_json, doc);
    std::printf("wrote %s (%zu bytes)\n", options.stats_json.c_str(), doc.size());
    if (options.validate) {
      if (!obs::CheckJsonBalanced(doc) || !obs::CheckJsonHasKey(doc, "histograms") ||
          !obs::CheckJsonHasKey(doc, "per_processor")) {
        std::fprintf(stderr, "validation FAILED for %s\n", options.stats_json.c_str());
        valid = false;
      }
    }
  }
  if (page_trace != nullptr) {
    std::string doc = page_trace->ToJson();
    obs::WriteFileOrDie(options.page_report, doc);
    std::printf("wrote %s (%zu bytes)\n", options.page_report.c_str(), doc.size());
    std::printf("page forensics: %llu events on %zu pages; flagged %zu ping-pong, "
                "%zu freeze-churn, %zu replication-waste\n",
                static_cast<unsigned long long>(page_trace->events_seen()),
                page_trace->pages_tracked(), page_trace->FlaggedPingPong().size(),
                page_trace->FlaggedFreezeChurn().size(),
                page_trace->FlaggedReplicationWaste().size());
    if (options.validate) {
      if (!obs::CheckJsonBalanced(doc) || !obs::CheckJsonHasKey(doc, "top_pages") ||
          !obs::CheckJsonHasKey(doc, "flagged")) {
        std::fprintf(stderr, "validation FAILED for %s\n", options.page_report.c_str());
        valid = false;
      }
    }
  }
  if (sampler != nullptr) {
    std::string doc = sampler->ToJson();
    obs::WriteFileOrDie(options.timeseries_json, doc);
    std::printf("wrote %s (%zu bytes)\n", options.timeseries_json.c_str(), doc.size());
    std::printf("time-series: %zu epochs of %d ms (%llu dropped)\n", sampler->samples().size(),
                options.epoch_ms, static_cast<unsigned long long>(sampler->samples_dropped()));
    if (options.validate) {
      if (!obs::CheckJsonBalanced(doc) || !obs::CheckJsonHasKey(doc, "epochs")) {
        std::fprintf(stderr, "validation FAILED for %s\n", options.timeseries_json.c_str());
        valid = false;
      }
    }
  }
  if (options.validate && valid) {
    std::printf("validation OK\n");
  }
  return valid ? 0 : 1;
}
