#include "platbench/workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <memory>
#include <type_traits>

#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/kernel/kernel.h"
#include "src/load/driver.h"
#include "src/obs/page_trace.h"
#include "src/obs/timeseries.h"
#include "src/sim/machine.h"

namespace platbench {

namespace {

using namespace platinum;  // NOLINT
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// FNV-1a over raw bytes. MachineStats is all 64-bit counters, so its bytes
// are exactly its values.
static_assert(std::has_unique_object_representations_v<sim::MachineStats>);
uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

uint64_t Digest(const sim::MachineStats& stats, sim::SimTime sim_ns, uint64_t switches) {
  uint64_t hash = 0xcbf29ce484222325ull;
  hash = Fnv1a(hash, &stats, sizeof(stats));
  hash = Fnv1a(hash, &sim_ns, sizeof(sim_ns));
  return Fnv1a(hash, &switches, sizeof(switches));
}

int NodesFor(Workload workload) { return workload == Workload::kTrieServe ? kTrieClients : 16; }

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kGauss, Workload::kSortForensics, Workload::kTrieServe}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kGauss:
      return "gauss";
    case Workload::kSortForensics:
      return "sort_forensics";
    case Workload::kTrieServe:
      return "trie_serve";
  }
  return "unknown";
}

load::WorkloadSpec TrieSpec(uint64_t seed, Scale scale) {
  load::WorkloadSpec spec;
  spec.seed = seed;
  spec.keys = scale == Scale::kFull ? 16384 : 4096;
  spec.ops = scale == Scale::kFull ? 200000 : 20000;
  spec.zipf_s = 0.99;
  spec.read_fraction = 0.90;
  spec.churn = 0.5;
  spec.preload_fraction = 0.5;
  return spec;
}

namespace {

// The machine, kernel and observers one entry call runs on.
struct System {
  // Declared so the kernel is destroyed before the observers it points to.
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<obs::PageTrace> page_trace;
  std::unique_ptr<obs::EpochSampler> sampler;
  std::unique_ptr<kernel::Kernel> kernel;

  System(Workload workload, SpanLog* spans) {
    {
      ScopedSpan span(spans, "sim::Machine::Machine");
      machine = std::make_unique<sim::Machine>(sim::ButterflyPlusParams(NodesFor(workload)));
    }
    {
      ScopedSpan span(spans, "kernel::Kernel::Kernel");
      kernel = std::make_unique<kernel::Kernel>(machine.get());
    }
    if (workload == Workload::kSortForensics) {
      {
        ScopedSpan span(spans, "kernel::Kernel::AttachPageTrace");
        page_trace = std::make_unique<obs::PageTrace>();
        kernel->AttachPageTrace(page_trace.get());
      }
      ScopedSpan span(spans, "sim::Scheduler::SetTimeObserver");
      sampler = std::make_unique<obs::EpochSampler>(machine.get());
      machine->scheduler().SetTimeObserver(sampler.get());
    }
  }
};

}  // namespace

void WarmUpSetup(Workload workload) {
  for (int i = 0; i < 2; ++i) {
    System system(workload, nullptr);
  }
}

RunOutcome RunOnce(Workload workload, uint64_t seed, Scale scale, SpanLog* spans) {
  ScopedSpan run_span(spans, WorkloadName(workload));
  RunOutcome out;
  const bool full = scale == Scale::kFull;

  Clock::time_point setup_start = Clock::now();
  System system(workload, spans);
  out.setup_s = SecondsSince(setup_start);
  sim::Machine* machine = system.machine.get();
  kernel::Kernel* kernel = system.kernel.get();

  sim::SimTime sim_ns = 0;
  rusage usage_start{};
  getrusage(RUSAGE_THREAD, &usage_start);
  Clock::time_point call_start = Clock::now();
  switch (workload) {
    case Workload::kGauss: {
      ScopedSpan span(spans, "apps::RunGaussPlatinum");
      apps::GaussConfig config;
      config.n = full ? 256 : 64;
      config.processors = 16;
      config.seed = seed;
      apps::GaussResult result = apps::RunGaussPlatinum(*kernel, config);
      sim_ns = result.elimination_ns;
      out.verified = result.verified;
      break;
    }
    case Workload::kSortForensics: {
      ScopedSpan span(spans, "apps::RunMergeSortPlatinum");
      apps::SortConfig config;
      config.count = full ? size_t{1} << 18 : size_t{1} << 14;
      config.processors = 16;
      config.seed = seed;
      apps::SortResult result = apps::RunMergeSortPlatinum(*kernel, config);
      sim_ns = result.sort_ns;
      out.verified = result.verified;
      break;
    }
    case Workload::kTrieServe: {
      ScopedSpan span(spans, "load::RunTrieServe");
      load::DriverConfig config;
      config.spec = TrieSpec(seed, scale);
      config.procs = kTrieClients;
      load::ServeResult result = load::RunTrieServe(*kernel, config);
      sim_ns = result.serve_ns;
      out.verified = result.verified;
      const obs::LatencyHistogram& hit = result.latency[load::kOpReadHit];
      out.read_p50_us = sim::ToMicroseconds(hit.Percentile(50));
      out.read_p99_us = sim::ToMicroseconds(hit.Percentile(99));
      out.kreq_per_s = static_cast<double>(result.requests) / sim::ToSeconds(result.serve_ns) / 1e3;
      out.lookups = hit.count() + result.latency[load::kOpReadMiss].count();
      out.lookup_retries = result.trie.lookup_retries;
      break;
    }
  }
  out.host_s = SecondsSince(call_start);
  rusage usage_end{};
  getrusage(RUSAGE_THREAD, &usage_end);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  out.user_s = tv(usage_end.ru_utime) - tv(usage_start.ru_utime);
  out.sys_s = tv(usage_end.ru_stime) - tv(usage_start.ru_stime);

  ScopedSpan span(spans, "stats readout");
  if (system.sampler != nullptr) {
    system.sampler->Finalize();
  }
  out.sim_s = sim::ToSeconds(sim_ns);
  out.stats = machine->stats();
  out.context_switches = machine->scheduler().context_switches();
  out.digest = Digest(out.stats, sim_ns, out.context_switches);
  out.fault_p99_us =
      sim::ToMicroseconds(machine->obs().hist(obs::HistKind::kFaultService).Percentile(99));
  out.page_events = system.page_trace != nullptr ? system.page_trace->events_seen() : 0;
  return out;
}

}  // namespace platbench
