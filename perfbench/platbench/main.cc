// platbench: the repository benchmark driver.
//
//   platbench --workload gauss|sort_forensics|trie_serve --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//   platbench --selftest
//
// --trace 0 repeats the workload's entry call on fresh machines for S host
// seconds and reports the end-to-end metrics. --trace 1 runs the layer
// probes, then alternates untraced and traced entry calls for S seconds and
// reports the per-layer metrics and the attribution table; its spans go to
// --trace-out as Chrome trace-event JSON. Every run checks the app's own
// verdict and that repeated runs of one seed agree on the simulated-behaviour
// digest; a run failing either counts in `failed`. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/obs/json.h"
#include "platbench/probes.h"
#include "platbench/spans.h"
#include "platbench/workloads.h"

namespace platbench {
namespace {

using Clock = std::chrono::steady_clock;

// Runs collected for one workload and seed.
struct Series {
  std::vector<RunOutcome> runs;
  std::vector<bool> traced;  // parallel to `runs`
  uint64_t failed = 0;
};

// The self-test's forgeries, applied to the second run of a series.
enum class Forge { kNone, kVerdict, kDigest };

// Adds one run, counting it failed when the app's verdict is false or its
// digest differs from the series' first run.
void Record(RunOutcome run, bool traced, Forge forge, Series* series) {
  if (series->runs.size() == 1) {
    if (forge == Forge::kVerdict) {
      run.verified = false;
    } else if (forge == Forge::kDigest) {
      run.digest ^= 1;
    }
  }
  bool agrees = series->runs.empty() || run.digest == series->runs.front().digest;
  if (!run.verified || !agrees) {
    ++series->failed;
    std::printf("run %zu FAILED: verified=%d digest=%016" PRIx64 "\n", series->runs.size(),
                run.verified ? 1 : 0, run.digest);
  }
  series->runs.push_back(std::move(run));
  series->traced.push_back(traced);
}

// Median of `field` over the series' runs that were (not) traced.
template <typename Field>
double MedianOf(const Series& series, bool traced, Field field) {
  std::vector<double> values;
  for (size_t i = 0; i < series.runs.size(); ++i) {
    if (series.traced[i] == traced) {
      values.push_back(field(series.runs[i]));
    }
  }
  return Median(values);
}

// Peak resident memory of this process image (VmHWM restarts at exec, so
// the launcher's own footprint is not included).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  PLAT_CHECK(false) << "no VmHWM in /proc/self/status";
  return 0;
}

// Ordered metric list for the result line.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    PLAT_CHECK(std::isfinite(value)) << "metric " << name << " is not finite";
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-32s %18.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
  std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed) const {
    platinum::obs::JsonWriter w;
    w.BeginObject();
    w.Key("correct").Value(correct);
    w.Key("attempted").Value(attempted);
    w.Key("failed").Value(failed);
    w.Key("metrics").BeginObject();
    for (const Entry& e : entries_) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", e.value);
      w.Key(e.name).BeginObject();
      w.Key("value").Raw(number);
      w.Key("unit").Value(e.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void PrintRun(const char* label, const RunOutcome& run) {
  std::printf("%-9s cpu %d  setup %.4f s  call %.4f s (user %.4f, sys %.4f)  sim %.6f sim-s  "
              "refs %" PRIu64 "  switches %" PRIu64 "  digest %016" PRIx64 "  %s\n",
              label, sched_getcpu(), run.setup_s, run.host_s, run.user_s, run.sys_s, run.sim_s,
              run.stats.total_references(), run.context_switches, run.digest,
              run.verified ? "verified" : "UNVERIFIED");
}

// The CPUs this process may run on; empty when the OS does not say.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

bool PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

// Repeats the entry call until `seconds` of host time are used (at least
// `min_runs` times). With `spans` given, every second run is traced into it.
//
// Successive runs move round-robin over the CPUs the process may use. On a
// shared virtual host each vCPU's speed drifts on its own, and one thread
// left on one vCPU would measure only that vCPU's current speed; rotating
// makes each run sample all of them. Runs never overlap.
void Measure(Workload workload, uint64_t seed, Scale scale, double seconds, int min_runs,
             Forge forge, SpanLog* spans, Series* series) {
  std::vector<int> cpus = AllowedCpus();
  WarmUpSetup(workload);
  Clock::time_point start = Clock::now();
  double longest = 0;
  for (int i = 0;; ++i) {
    if (cpus.size() > 1 && !PinTo(cpus[static_cast<size_t>(i) % cpus.size()])) {
      std::printf("cannot set CPU affinity; runs stay where the OS puts them\n");
      cpus.clear();
    }
    double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (static_cast<int>(series->runs.size()) >= min_runs && elapsed + longest > seconds) {
      break;
    }
    Clock::time_point run_start = Clock::now();
    // Alternate traced and untraced runs so both visit every CPU equally.
    size_t turn = static_cast<size_t>(i) +
                  (!cpus.empty() && cpus.size() % 2 == 0 ? i / cpus.size() : 0);
    bool trace_this = spans != nullptr && turn % 2 == 1;
    RunOutcome run = RunOnce(workload, seed, scale, trace_this ? spans : nullptr);
    longest = std::max(longest, std::chrono::duration<double>(Clock::now() - run_start).count());
    PrintRun(trace_this ? "traced" : "untraced", run);
    Record(std::move(run), trace_this, forge, series);
  }
}

// Simulated-cost error against a §4 range [lo, hi] (0 inside the range).
double PaperError(double value, double lo, double hi) {
  if (value < lo) {
    return (value - lo) / lo;
  }
  return value > hi ? (value - hi) / hi : 0.0;
}

void PrintProbe(const char* name, const Probe& p, const char* paper = "") {
  std::printf("  %-34s %9" PRIu64 " x %d  %10.2f host-ns  %10.3f sim-us  %s\n", name,
              p.iterations, p.repeats, p.host_ns, p.sim_us, paper);
}

void AddProbe(Metrics& m, const std::string& name, const Probe& p) {
  m.Add(name + "_ns", p.host_ns, "ns");
  m.Add(name + "_sim_us", p.sim_us, "sim_us");
}

int EndToEnd(Workload workload, uint64_t seed, double seconds) {
  Series series;
  Measure(workload, seed, Scale::kFull, seconds, /*min_runs=*/3, Forge::kNone, nullptr, &series);
  const RunOutcome& first = series.runs.front();
  Metrics m;
  m.Add("host_s", MedianOf(series, false, [](const RunOutcome& r) { return r.host_s; }), "s");
  m.Add("refs_per_host_s", MedianOf(series, false, [](const RunOutcome& r) {
          return static_cast<double>(r.stats.total_references()) / r.host_s;
        }),
        "1/s");
  m.Add("setup_s", MedianOf(series, false, [](const RunOutcome& r) { return r.setup_s; }), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("sim_s", first.sim_s, "sim_s");
  uint64_t attempted = series.runs.size();
  std::printf("%s seed %" PRIu64 ": %" PRIu64 " runs, fail_frac %.3f, digest %016" PRIx64 "\n",
              WorkloadName(workload), seed, attempted,
              static_cast<double>(series.failed) / static_cast<double>(attempted), first.digest);
  m.Print();
  std::printf("%s\n", m.ResultLine(series.failed == 0, attempted, series.failed).c_str());
  return 0;
}

int Traced(Workload workload, uint64_t seed, double seconds, const std::string& trace_out) {
  SpanLog spans(std::string(WorkloadName(workload)) + "-seed" + std::to_string(seed));
  LayerProbes p = RunProbes(seed, &spans);
  Series series;
  Measure(workload, seed, Scale::kFull, seconds, /*min_runs=*/4, Forge::kNone, &spans, &series);
  const uint64_t attempted = series.runs.size();

  // Counts are simulated, so every run agrees on them (the digest checks it).
  const RunOutcome& w = series.runs.front();
  const platinum::sim::MachineStats& s = w.stats;
  const double refs = static_cast<double>(s.total_references());
  auto call_s = [](const RunOutcome& r) { return r.host_s; };
  const double host_s = MedianOf(series, false, call_s);
  const double traced_host_s = MedianOf(series, true, call_s);

  std::printf("\nlayer probes (iterations x repeats, median host ns/op, simulated us/op):\n");
  PrintProbe("sim::Scheduler::Yield round trip", p.switch_rt);
  PrintProbe("sim::Machine::Reference", p.reference);
  PrintProbe("mem Access ATC-hit read", p.hit_read);
  PrintProbe("mem Access ATC-hit write", p.hit_write);
  PrintProbe("mem Access Pmap refill", p.refill);
  PrintProbe("mem ReadRange/WriteRange per word", p.range_word);
  char note[160];
  std::snprintf(note, sizeof(note), "paper 1340 us, error %+.1f%%",
                100 * PaperError(p.read_fault.sim_us, 1340, 1340));
  PrintProbe("mem HandleFault read (replicate)", p.read_fault, note);
  std::snprintf(note, sizeof(note), "paper 250-450 us, error %+.1f%%",
                100 * PaperError(p.write_fault_k1.sim_us, 250, 450));
  PrintProbe("mem HandleFault write k=1", p.write_fault_k1, note);
  const double per_proc_us = (p.write_fault_k15.sim_us - p.write_fault_k1.sim_us) / 14;
  std::snprintf(note, sizeof(note), "%.2f us per extra processor; paper <= 17 us, error %+.1f%%",
                per_proc_us, 100 * PaperError(per_proc_us, 0, 17));
  PrintProbe("mem HandleFault write k=15", p.write_fault_k15, note);
  PrintProbe("mem HandleFault write k=63", p.write_fault_k63);
  PrintProbe("mem HandleFault write k=1 (tardis)", p.tardis_write_fault);
  PrintProbe("kernel::Kernel::ReadWord", p.kernel_read_word);
  PrintProbe("kernel::Kernel::AtomicTestAndSet", p.kernel_tas);
  PrintProbe("rt::SharedArray::Get", p.runtime_get);
  PrintProbe("rt::SpinLock contended retry", p.spin_retry);
  PrintProbe("obs::PageTrace attached - detached", p.observer);
  std::printf("  %-34s %.4f host-s\n", "load::RequestScript::Generate", p.script_s);
  std::printf("  (the simulated model is validated only against the paper's Section 4 "
              "values above)\n");

  // Attribution: public count x probe cost / untraced host_s.
  const double reads = static_cast<double>(s.local_reads + s.remote_reads);
  const double read_share = refs > 0 ? reads / refs : 0;
  const double hit_ns = read_share * p.hit_read.host_ns + (1 - read_share) * p.hit_write.host_ns;
  const double refills =
      s.atc_misses > s.faults ? static_cast<double>(s.atc_misses - s.faults) : 0.0;
  const bool observed = workload == Workload::kSortForensics;
  const double switch_share = static_cast<double>(w.context_switches) * p.switch_ns / 1e9 / host_s;
  const double hit_share = static_cast<double>(s.atc_hits) * hit_ns / 1e9 / host_s;
  const double refill_share = refills * p.refill.host_ns / 1e9 / host_s;
  const double fault_share = (static_cast<double>(s.read_faults) * p.read_fault.host_ns +
                              static_cast<double>(s.write_faults) * p.write_fault_k1.host_ns) /
                             1e9 / host_s;
  const double observer_share = observed ? refs * p.observer.host_ns / 1e9 / host_s : 0.0;
  const double unexplained =
      1 - switch_share - hit_share - refill_share - fault_share - observer_share;
  const double trace_overhead = traced_host_s / host_s - 1;

  std::printf("\nattribution of untraced host_s %.4f s (%s seed %" PRIu64 "):\n", host_s,
              WorkloadName(workload), seed);
  std::printf("  %-22s %14s x %10s  %7s\n", "layer", "count", "ns/op", "share");
  auto row = [](const char* name, double count, double ns, double share) {
    std::printf("  %-22s %14.0f x %10.2f  %6.1f%%\n", name, count, ns, 100 * share);
  };
  row("sim.switch_share", static_cast<double>(w.context_switches), p.switch_ns, switch_share);
  row("mem.hit_share", static_cast<double>(s.atc_hits), hit_ns, hit_share);
  row("mem.refill_share", refills, p.refill.host_ns, refill_share);
  row("mem.fault_share", static_cast<double>(s.faults),
      s.faults > 0 ? fault_share * host_s * 1e9 / static_cast<double>(s.faults) : 0.0,
      fault_share);
  row("obs.observer_share", observed ? refs : 0.0, p.observer.host_ns, observer_share);
  std::printf("  %-22s %29s %6.1f%%\n", "unexplained_share", "", 100 * unexplained);
  std::printf("  bench.trace_overhead_frac %+.4f (traced %.4f s vs untraced %.4f s)\n",
              trace_overhead, traced_host_s, host_s);

  std::printf("\nspan self time (host s, summed per name):\n");
  for (const auto& [name, self_s] : spans.SelfSecondsByName()) {
    std::printf("  %-52s %.4f\n", name.c_str(), self_s);
  }
  if (!trace_out.empty()) {
    std::ofstream file(trace_out);
    file << spans.ToChromeJson();
    PLAT_CHECK(file.good()) << "cannot write " << trace_out;
    std::printf("wrote %s\n", trace_out.c_str());
  }

  Metrics m;
  m.Add("sim.switches", static_cast<double>(w.context_switches), "count");
  AddProbe(m, "sim.switch_rt", p.switch_rt);
  AddProbe(m, "sim.reference", p.reference);
  m.Add("sim.remote_ref_frac", refs > 0 ? static_cast<double>(s.remote_references()) / refs : 0,
        "frac");
  m.Add("sim.module_wait_ms", platinum::sim::ToMilliseconds(s.module_wait_ns), "sim_ms");
  m.Add("hw.atc_hit_frac",
        static_cast<double>(s.atc_hits) / static_cast<double>(s.atc_hits + s.atc_misses), "frac");
  AddProbe(m, "mem.hit_read", p.hit_read);
  AddProbe(m, "mem.hit_write", p.hit_write);
  AddProbe(m, "mem.refill", p.refill);
  AddProbe(m, "mem.range_word", p.range_word);
  AddProbe(m, "mem.read_fault", p.read_fault);
  m.Add("mem.read_fault_paper_err", PaperError(p.read_fault.sim_us, 1340, 1340), "frac");
  AddProbe(m, "mem.write_fault_k1", p.write_fault_k1);
  m.Add("mem.write_fault_k1_paper_err", PaperError(p.write_fault_k1.sim_us, 250, 450), "frac");
  AddProbe(m, "mem.write_fault_k15", p.write_fault_k15);
  AddProbe(m, "mem.write_fault_k63", p.write_fault_k63);
  m.Add("mem.shootdown_per_proc_sim_us", per_proc_us, "sim_us");
  m.Add("mem.shootdown_per_proc_paper_err", PaperError(per_proc_us, 0, 17), "frac");
  AddProbe(m, "mem.tardis_write_fault", p.tardis_write_fault);
  m.Add("mem.faults", static_cast<double>(s.faults), "count");
  m.Add("mem.shootdowns", static_cast<double>(s.shootdowns), "count");
  m.Add("mem.ipis", static_cast<double>(s.ipis_sent), "count");
  m.Add("mem.block_words", static_cast<double>(s.block_words_copied), "count");
  m.Add("mem.fault_p99_us", w.fault_p99_us, "sim_us");
  m.Add("mem.handler_wait_ms", platinum::sim::ToMilliseconds(s.fault_handler_wait_ns), "sim_ms");
  AddProbe(m, "kernel.read_word", p.kernel_read_word);
  m.Add("kernel.facade_ns", p.kernel_read_word.host_ns - p.hit_read.host_ns, "ns");
  AddProbe(m, "kernel.tas", p.kernel_tas);
  AddProbe(m, "runtime.get", p.runtime_get);
  AddProbe(m, "runtime.spin_retry", p.spin_retry);
  m.Add("load.script_s", p.script_s, "s");
  m.Add("apps.lookup_retry_frac",
        w.lookups > 0 ? static_cast<double>(w.lookup_retries) / static_cast<double>(w.lookups)
                      : 0,
        "frac");
  AddProbe(m, "obs.observer", p.observer);
  m.Add("obs.page_events", static_cast<double>(w.page_events), "count");
  m.Add("sim_read_p50_us", w.read_p50_us, "sim_us");
  m.Add("sim_read_p99_us", w.read_p99_us, "sim_us");
  m.Add("sim_kreq_per_s", w.kreq_per_s, "kreq/sim_s");
  m.Add("sim.switch_share", switch_share, "frac");
  m.Add("mem.hit_share", hit_share, "frac");
  m.Add("mem.refill_share", refill_share, "frac");
  m.Add("mem.fault_share", fault_share, "frac");
  m.Add("obs.observer_share", observer_share, "frac");
  m.Add("unexplained_share", unexplained, "frac");
  m.Add("bench.trace_overhead_frac", trace_overhead, "frac");
  std::printf("\n");
  m.Print();
  std::printf("%s\n", m.ResultLine(series.failed == 0, attempted, series.failed).c_str());
  return 0;
}

// Forges a failed verdict and a digest mismatch into small gauss series and
// checks that each raises fail_frac while the clean series stays at 0.
int SelfTest() {
  bool ok = true;
  for (Forge forge : {Forge::kNone, Forge::kVerdict, Forge::kDigest}) {
    Series series;
    Measure(Workload::kGauss, 1, Scale::kSmall, /*seconds=*/0, /*min_runs=*/3, forge, nullptr,
            &series);
    double fail_frac =
        static_cast<double>(series.failed) / static_cast<double>(series.runs.size());
    const char* name = forge == Forge::kNone      ? "clean"
                       : forge == Forge::kVerdict ? "forged verdict"
                                                  : "forged digest";
    bool pass = forge == Forge::kNone ? fail_frac == 0 : fail_frac > 0;
    std::printf("selftest %-15s fail_frac %.3f  %s\n", name, fail_frac, pass ? "ok" : "WRONG");
    ok = ok && pass;
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "platbench: %s\nusage: platbench --workload gauss|sort_forensics|trie_serve "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] | --selftest\n",
               message);
  std::exit(2);
}

}  // namespace
}  // namespace platbench

int main(int argc, char** argv) {
  using namespace platbench;  // NOLINT
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      return SelfTest();
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') {
        seconds = -1;
      }
    } else if (arg == "--trace") {
      trace = std::string(value) == "0" ? 0 : std::string(value) == "1" ? 1 : -1;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  Workload workload;
  if (!ParseWorkload(workload_name, &workload)) {
    Usage("unknown or missing --workload");
  }
  if (!have_seed || seconds < 0 || trace < 0) {
    Usage("--seed, --seconds and --trace are required");
  }
  return trace == 0 ? EndToEnd(workload, seed, seconds)
                    : Traced(workload, seed, seconds, trace_out);
}
