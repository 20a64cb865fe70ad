// Shared helpers for the benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the experiment on the simulated machine, prints the series the paper
// reports (virtual-time measurements), and ends with one RunMetrics line
// covering every machine it built. Workload sizes default to values that run
// in seconds; set PLATINUM_FULL=1 for paper-scale inputs.
//
// Independent sweep points (each owning its own sim::Machine) are sharded
// across host threads by SweepRunner; docs/PERFORMANCE.md describes the
// harness, the bench report and the behaviour gate built on top of it.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/sim/machine.h"
#include "src/sim/time.h"
#include "src/uma/uma_machine.h"

namespace platinum::bench {

// Integer environment knob. Aborts on malformed values (e.g.
// PLATINUM_GAUSS_N=8oo) instead of silently running the wrong experiment.
// DETERMINISTIC_SANITIZED: the parsed knob is part of the experiment's
// invocation identity — the same invocation (binary + args + environment)
// always sees the same value, and every knob is echoed in the output — so
// its result does not carry host taint (docs/STATIC_ANALYSIS.md).
PLATINUM_DETERMINISTIC_SANITIZED inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    std::fprintf(stderr, "bench: %s=\"%s\" is not an integer\n", name, value);
    std::abort();
  }
  return static_cast<int>(parsed);
}

inline bool FullScale() { return EnvInt("PLATINUM_FULL", 0) != 0; }

// Shards the `n` points of a sweep across host threads. Each point must be a
// self-contained simulation (its own sim::Machine — they share no mutable
// state, so the sweep is embarrassingly parallel) and must not print: all
// output happens in the caller, in index order, after Map returns. Results
// are keyed by point index, so tables and JSON are byte-identical to a
// serial run whatever the worker count.
class SweepRunner {
 public:
  // `workers` <= 0 selects PLATINUM_BENCH_WORKERS, defaulting to the host's
  // hardware concurrency; 1 runs the sweep serially on the calling thread.
  // HOST_ONLY: the worker count shapes host-side scheduling only — results
  // are keyed by point index, so sim output is identical for any count
  // (enforced by tools/behaviour_gate.py, which checks every bench at 4
  // workers against a golden file written at 1).
  PLATINUM_HOST_ONLY explicit SweepRunner(int workers = 0) : workers_(workers) {
    if (workers_ <= 0) {
      workers_ = EnvInt("PLATINUM_BENCH_WORKERS", 0);
    }
    if (workers_ <= 0) {
      workers_ = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (workers_ < 1) {
      workers_ = 1;
    }
  }

  int workers() const { return workers_; }

  // Runs fn(0) .. fn(n-1) and returns their results in index order.
  // HOST_ONLY: sharding is host-side; the index-keyed results make the
  // output independent of which host thread ran which point.
  template <typename Fn>
  PLATINUM_HOST_ONLY auto Map(int n, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, int>> {
    std::vector<std::invoke_result_t<Fn&, int>> results(static_cast<size_t>(n));
    if (workers_ <= 1 || n <= 1) {
      for (int i = 0; i < n; ++i) {
        results[static_cast<size_t>(i)] = fn(i);
      }
      return results;
    }
    std::atomic<int> next{0};
    auto drain = [&results, &next, &fn, n] {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        results[static_cast<size_t>(i)] = fn(i);
      }
    };
    std::vector<std::thread> pool;
    const int spawned = workers_ < n ? workers_ : n;
    pool.reserve(static_cast<size_t>(spawned));
    for (int t = 0; t < spawned; ++t) {
      pool.emplace_back(drain);
    }
    for (std::thread& t : pool) {
      t.join();
    }
    return results;
  }

 private:
  int workers_ = 1;
};

// Aggregate accounting for one bench binary: every finished simulation
// reports its reference count and simulated duration before its machine is
// destroyed, and main() prints one machine-parsable summary line.
// tools/bench_report.py combines it with host wall-clock into accesses/sec;
// tools/behaviour_gate.py compares its exact integers with a golden file.
// Counters are atomic (and order-independent sums) so SweepRunner workers can
// report concurrently without perturbing the output.
class RunMetrics {
 public:
  static void Count(const sim::Machine& machine) {
    Add(machine.stats().total_references(), machine.scheduler().global_now());
  }

  // The Sequent model of Figure 5. UmaStats counts reads and writes; its
  // bus-locked fetch-adds are not counted anywhere, so they are left out.
  static void Count(uma::UmaMachine& machine) {
    const uma::UmaStats& stats = machine.stats();
    Add(stats.cache_hits + stats.read_misses + stats.writes, machine.scheduler().global_now());
  }

  // sim_ns is the exact sum; sim_seconds rounds it for the BENCH files.
  static void Print() {
    const uint64_t sim_ns = sim_ns_.load(std::memory_order_relaxed);
    std::printf(
        "PLATINUM_BENCH_METRICS {\"machines\": %llu, \"references\": %llu, "
        "\"sim_ns\": %llu, \"sim_seconds\": %.3f}\n",
        static_cast<unsigned long long>(machines_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(references_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(sim_ns), static_cast<double>(sim_ns) / 1e9);
  }

 private:
  static void Add(uint64_t references, sim::SimTime sim_ns) {
    machines_.fetch_add(1, std::memory_order_relaxed);
    references_.fetch_add(references, std::memory_order_relaxed);
    sim_ns_.fetch_add(sim_ns, std::memory_order_relaxed);
  }

  static inline std::atomic<uint64_t> machines_{0};
  static inline std::atomic<uint64_t> references_{0};
  static inline std::atomic<uint64_t> sim_ns_{0};
};

// A speedup-curve table: one row per processor count, one column per system.
class SpeedupTable {
 public:
  SpeedupTable(std::string title, std::vector<std::string> systems)
      : title_(std::move(title)), systems_(std::move(systems)) {}

  void AddRow(int processors, const std::vector<sim::SimTime>& times) {
    rows_.push_back({processors, times});
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("%5s", "procs");
    for (const std::string& system : systems_) {
      std::printf("  %14s %8s", (system + " (s)").c_str(), "speedup");
    }
    std::printf("\n");
    for (const Row& row : rows_) {
      std::printf("%5d", row.processors);
      for (size_t i = 0; i < row.times.size(); ++i) {
        double t = sim::ToSeconds(row.times[i]);
        double base = sim::ToSeconds(rows_.front().times[i]);
        std::printf("  %14.3f", t);
        // A zero time on either side of the ratio means the run was
        // degenerate (nothing measured); flag it instead of printing 0.00.
        if (base > 0 && t > 0) {
          std::printf(" %8.2f", base / t);
        } else {
          std::printf(" %8s", "n/a");
        }
      }
      std::printf("\n");
    }
  }

  // Machine-readable form of the table, mirroring Print() (a degenerate
  // speedup becomes JSON null).
  std::string ToJson() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("title").Value(title_);
    w.Key("systems").BeginArray();
    for (const std::string& system : systems_) {
      w.Value(system);
    }
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const Row& row : rows_) {
      w.BeginObject();
      w.Key("processors").Value(row.processors);
      w.Key("seconds").BeginArray();
      for (sim::SimTime t : row.times) {
        w.Value(sim::ToSeconds(t));
      }
      w.EndArray();
      w.Key("speedups").BeginArray();
      for (size_t i = 0; i < row.times.size(); ++i) {
        double t = sim::ToSeconds(row.times[i]);
        double base = sim::ToSeconds(rows_.front().times[i]);
        if (base > 0 && t > 0) {
          w.Value(base / t);
        } else {
          w.Null();
        }
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }

 private:
  struct Row {
    int processors;
    std::vector<sim::SimTime> times;
  };
  std::string title_;
  std::vector<std::string> systems_;
  std::vector<Row> rows_;
};

inline void PrintPaperNote(const char* note) { std::printf("paper: %s\n", note); }

// When PLATINUM_JSON_DIR is set, writes the table as
// $PLATINUM_JSON_DIR/<bench_name>.json so plotting scripts can pick the
// series up without scraping stdout. A no-op otherwise.
// HOST_ONLY: the environment chooses *where* the artifact lands on the
// host filesystem; the artifact's *content* (the table) is sim-derived and
// unaffected.
PLATINUM_HOST_ONLY inline void MaybeWriteJson(const SpeedupTable& table,
                                              const std::string& bench_name) {
  const char* dir = std::getenv("PLATINUM_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  std::string path = std::string(dir) + "/" + bench_name + ".json";
  obs::WriteFileOrDie(path, table.ToJson());
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace platinum::bench

#endif  // BENCH_BENCH_UTIL_H_
