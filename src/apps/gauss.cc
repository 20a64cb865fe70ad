#include "src/apps/gauss.h"

#include <vector>

#include "src/apps/workloads.h"
#include "src/base/check.h"
#include "src/baseline/raw_memory.h"
#include "src/obs/scope.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::apps {
namespace {

// Cyclic row ownership: row j belongs to processor j % p. Rows are finalized
// in index order, so cyclic assignment keeps every processor busy until the
// end of the elimination.
int RowOwner(int j, int p) { return j % p; }

// Largest row owned by `pid`.
int LastOwnedRow(int pid, int n, int p) {
  int last = n - 1 - ((n - 1 - pid) % p + p) % p;
  return last >= 0 && last % p == pid ? last : -1;
}

}  // namespace

GaussResult RunGaussPlatinum(kernel::Kernel& kernel, const GaussConfig& config) {
  const int n = config.n;
  const int p = config.processors;
  PLAT_CHECK_GE(n, 2);
  PLAT_CHECK_GE(p, 1);
  PLAT_CHECK_LE(p, kernel.num_processors());

  auto* space = kernel.CreateAddressSpace("gauss");
  rt::ZoneAllocator zone(&kernel, space);
  auto matrix = rt::SharedMatrix<int32_t>::Create(zone, "gauss-matrix", n, n);
  rt::EventCountArray pivot_ready(zone, "gauss-pivot-ready", n);
  rt::Barrier barrier(zone, "gauss-barrier", static_cast<uint32_t>(p));
  // The anecdote variant: the problem-size word and a start flag share one
  // page ("control"); the well-behaved version gives every thread a private
  // copy of the size instead.
  rt::SharedArray<uint32_t> control;
  if (config.colocate_size_and_flag) {
    control = rt::SharedArray<uint32_t>::Create(zone, "gauss-control", 2);
    // Word 1 is a hand-rolled start flag the threads spin on — a
    // synchronization variable even though it lives in a data zone (that
    // co-location is the whole point of the anecdote). Word 0 is plain data,
    // written before the barrier and only read after it.
    kernel.RegisterSyncWords(space, control.va(1), 1);
  }

  sim::SimTime t_start = 0;
  rt::RunOnProcessors(kernel, space, p, "gauss", [&](int pid) {
    sim::Scheduler& sched = kernel.machine().scheduler();
    // Startup: each thread initializes its own rows, placing their pages on
    // its node by first touch — one page fault, then ATC-hit stores.
    for (int j = pid; j < n; j += p) {
      for (int k = 0; k < n; ++k) {
        matrix.Set(j, k, GaussInitialValue(config.seed, n, j, k));
      }
    }
    if (config.colocate_size_and_flag && pid == 0) {
      control.Set(0, static_cast<uint32_t>(n));
    }
    barrier.Wait();

    if (config.colocate_size_and_flag) {
      // Everyone spins on the start flag that shares a page with the size
      // variable; the spinning freezes the page.
      if (pid == 0) {
        sched.Sleep(500 * sim::kMicrosecond);  // let the spinners replicate first
        control.Set(1, 1);
      } else {
        rt::SpinBackoff backoff;
        while (control.Get(1) == 0) {
          sched.Sleep(backoff.Next());
        }
      }
    }

    if (pid == 0) {
      t_start = kernel.Now();
    }
    if (RowOwner(0, p) == pid) {
      pivot_ready.Advance(0);
    }
    const int last_owned = LastOwnedRow(pid, n, p);
    for (int i = 0; i < n - 1; ++i) {
      if (last_owned <= i) {
        break;  // all of this thread's rows are final
      }
      pivot_ready.AwaitAtLeast(static_cast<size_t>(i), 1);
      const int32_t a_ii = matrix.Get(i, i);
      int j0 = pid;
      while (j0 <= i) {
        j0 += p;
      }
      for (int j = j0; j < n; j += p) {
        const int32_t m = GaussMultiplier(matrix.Get(j, i), a_ii);
        if (config.colocate_size_and_flag) {
          // The inner-loop termination test reads the shared size variable —
          // a remote reference on every iteration while its page is frozen.
          for (int k = i; k < static_cast<int>(control.Get(0)); ++k) {
            matrix.Set(j, k, GaussEliminateElement(matrix.Get(j, k), m, matrix.Get(i, k)));
            kernel.machine().Compute(config.compute_per_element_ns);
          }
        } else {
          for (int k = i; k < n; ++k) {
            matrix.Set(j, k, GaussEliminateElement(matrix.Get(j, k), m, matrix.Get(i, k)));
            kernel.machine().Compute(config.compute_per_element_ns);
          }
        }
        if (j == i + 1) {
          pivot_ready.Advance(static_cast<size_t>(i + 1));
        }
      }
    }
  });

  GaussResult result;
  result.elimination_ns = kernel.machine().scheduler().global_now() - t_start;

  if (config.verify) {
    // Separate phase so the verification sweep's faults and latencies don't
    // pollute the elimination phase in exported stats.
    obs::PhaseMarker verify_phase(kernel.machine(), "gauss-verify");
    Checksum sum;
    kernel.SpawnThread(space, 0, "gauss-check", [&] {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          sum.Add(static_cast<uint32_t>(matrix.Get(i, j)));
        }
      }
    });
    kernel.Run();
    result.checksum = sum.value();
    result.verified = result.checksum == GaussReferenceChecksum(config.seed, n);
    PLAT_CHECK(result.verified) << "PLATINUM Gauss produced a wrong matrix";
  }
  return result;
}

GaussResult RunGaussUniformSystem(sim::Machine& machine, const GaussConfig& config) {
  const int n = config.n;
  const int p = config.processors;
  PLAT_CHECK_GE(n, 2);
  PLAT_CHECK_GE(p, 1);
  PLAT_CHECK_LE(p, machine.num_nodes());
  sim::Scheduler& sched = machine.scheduler();

  // Matrix rows scattered round-robin across the modules; threads are
  // assigned the rows that live on their node, so row updates are local.
  std::vector<baseline::RawRegion> rows;
  rows.reserve(n);
  for (int j = 0; j < n; ++j) {
    rows.emplace_back(&machine, static_cast<size_t>(n),
                      baseline::RawRegion::Placement::kSingleModule, RowOwner(j, p));
  }
  // Private per-thread pivot buffer in local memory.
  std::vector<baseline::RawRegion> pivot_buffers;
  pivot_buffers.reserve(p);
  for (int t = 0; t < p; ++t) {
    pivot_buffers.emplace_back(&machine, static_cast<size_t>(n),
                               baseline::RawRegion::Placement::kSingleModule, t);
  }
  baseline::RawBarrier barrier(&machine, p);

  sim::SimTime t_start = 0;
  for (int pid = 0; pid < p; ++pid) {
    sched.Spawn(pid, "us-gauss-" + std::to_string(pid), [&, pid] {
      uint32_t sense = 0;
      for (int j = pid; j < n; j += p) {
        for (int k = 0; k < n; ++k) {
          rows[j].Set(static_cast<size_t>(k),
                      static_cast<uint32_t>(GaussInitialValue(config.seed, n, j, k)));
        }
      }
      barrier.Wait(&sense);
      if (pid == 0) {
        t_start = sched.now();
      }
      const int last_owned = LastOwnedRow(pid, n, p);
      for (int i = 0; i < n - 1; ++i) {
        if (last_owned > i) {
          // Copy the pivot row suffix into local memory, word by word — the
          // hand-tuned caching the Uniform System style requires.
          pivot_buffers[pid].CopyWordsFrom(rows[i], static_cast<size_t>(i),
                                           static_cast<size_t>(i),
                                           static_cast<size_t>(n - i));
          const auto a_ii = static_cast<int32_t>(pivot_buffers[pid].Get(static_cast<size_t>(i)));
          int j0 = pid;
          while (j0 <= i) {
            j0 += p;
          }
          for (int j = j0; j < n; j += p) {
            const int32_t m =
                GaussMultiplier(static_cast<int32_t>(rows[j].Get(static_cast<size_t>(i))), a_ii);
            for (int k = i; k < n; ++k) {
              auto a_jk = static_cast<int32_t>(rows[j].Get(static_cast<size_t>(k)));
              auto a_ik = static_cast<int32_t>(pivot_buffers[pid].Get(static_cast<size_t>(k)));
              rows[j].Set(static_cast<size_t>(k),
                          static_cast<uint32_t>(GaussEliminateElement(a_jk, m, a_ik)));
              machine.Compute(config.compute_per_element_ns);
            }
          }
        }
        // Rows of round i must be final before anyone copies round i+1's
        // pivot.
        barrier.Wait(&sense);
      }
    });
  }
  sched.Run();

  GaussResult result;
  result.elimination_ns = sched.global_now() - t_start;
  if (config.verify) {
    Checksum sum;
    sched.Spawn(0, "us-check", [&] {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          sum.Add(rows[i].Get(static_cast<size_t>(j)));
        }
      }
    });
    sched.Run();
    result.checksum = sum.value();
    result.verified = result.checksum == GaussReferenceChecksum(config.seed, n);
    PLAT_CHECK(result.verified) << "Uniform System Gauss produced a wrong matrix";
  }
  return result;
}

GaussResult RunGaussMessagePassing(kernel::Kernel& kernel, const GaussConfig& config) {
  const int n = config.n;
  const int p = config.processors;
  PLAT_CHECK_GE(n, 2);
  PLAT_CHECK_GE(p, 1);
  PLAT_CHECK_LE(p, kernel.num_processors());
  sim::Machine& machine = kernel.machine();

  // One receive port per worker; an extra port for startup synchronization.
  std::vector<kernel::Port*> ports;
  ports.reserve(p);
  for (int t = 0; t < p; ++t) {
    ports.push_back(kernel.CreatePort("smp-pivot-" + std::to_string(t)));
  }
  kernel::Port* ready_port = kernel.CreatePort("smp-ready");

  // Threads keep their rows fully private in local memory; only the pivot
  // row ever moves, by message.
  auto* space = kernel.CreateAddressSpace("smp-gauss");

  // Local row r of thread t is global row t + r*p.
  std::vector<std::unique_ptr<baseline::RawRegion>> row_store(p);
  std::vector<std::unique_ptr<baseline::RawRegion>> pivot_buffers(p);
  std::vector<int> rows_owned(p, 0);
  for (int t = 0; t < p; ++t) {
    rows_owned[t] = (n - 1 - t) / p + 1;
    row_store[t] = std::make_unique<baseline::RawRegion>(
        &machine, static_cast<size_t>(rows_owned[t]) * n,
        baseline::RawRegion::Placement::kSingleModule, t);
    pivot_buffers[t] = std::make_unique<baseline::RawRegion>(
        &machine, static_cast<size_t>(n), baseline::RawRegion::Placement::kSingleModule, t);
  }

  sim::SimTime t_start = 0;
  rt::RunOnProcessors(kernel, space, p, "smp-gauss", [&](int pid) {
    baseline::RawRegion& mine = *row_store[pid];
    baseline::RawRegion& pivot = *pivot_buffers[pid];
    auto local_index = [&](int j, int k) {
      return static_cast<size_t>((j - pid) / p) * n + static_cast<size_t>(k);
    };
    for (int j = pid; j < n; j += p) {
      for (int k = 0; k < n; ++k) {
        mine.Set(local_index(j, k), static_cast<uint32_t>(GaussInitialValue(config.seed, n, j, k)));
      }
    }
    // Startup barrier by messages.
    if (pid == 0) {
      for (int t = 1; t < p; ++t) {
        kernel.Receive(ready_port);
      }
      std::vector<uint32_t> go{1};
      for (int t = 1; t < p; ++t) {
        kernel.Send(ports[t], go);
      }
      t_start = kernel.Now();
    } else {
      std::vector<uint32_t> ready{1};
      kernel.Send(ready_port, ready);
      kernel.Receive(ports[pid]);
    }

    const int last_owned = LastOwnedRow(pid, n, p);
    for (int i = 0; i < n - 1; ++i) {
      const int owner = RowOwner(i, p);
      const int rel = (pid - owner + p) % p;
      const bool need_pivot = last_owned > i;
      // Binomial-tree broadcast of the pivot-row suffix rooted at the owner.
      // Every thread participates as a forwarder even after its rows are
      // done, so the tree stays intact.
      std::vector<uint32_t> message;
      if (rel == 0) {
        message.reserve(static_cast<size_t>(n - i));
        for (int k = i; k < n; ++k) {
          message.push_back(mine.Get(local_index(i, k)));  // local reads
        }
      } else {
        message = kernel.Receive(ports[pid]);
      }
      for (int child_rel : {2 * rel + 1, 2 * rel + 2}) {
        if (child_rel < p) {
          kernel.Send(ports[(owner + child_rel) % p], message);
        }
      }
      if (!need_pivot && rel != 0) {
        continue;
      }
      if (rel != 0) {
        // Unpack into the private pivot buffer (local writes).
        for (int k = i; k < n; ++k) {
          pivot.Set(static_cast<size_t>(k), message[static_cast<size_t>(k - i)]);
        }
      }
      auto pivot_at = [&](int k) {
        return static_cast<int32_t>(rel == 0 ? mine.Get(local_index(i, k))
                                             : pivot.Get(static_cast<size_t>(k)));
      };
      const int32_t a_ii = pivot_at(i);
      int j0 = pid;
      while (j0 <= i) {
        j0 += p;
      }
      for (int j = j0; j < n; j += p) {
        const int32_t m =
            GaussMultiplier(static_cast<int32_t>(mine.Get(local_index(j, i))), a_ii);
        for (int k = i; k < n; ++k) {
          auto a_jk = static_cast<int32_t>(mine.Get(local_index(j, k)));
          mine.Set(local_index(j, k),
                   static_cast<uint32_t>(GaussEliminateElement(a_jk, m, pivot_at(k))));
          machine.Compute(config.compute_per_element_ns);
        }
      }
    }
  });

  GaussResult result;
  result.elimination_ns = machine.scheduler().global_now() - t_start;
  if (config.verify) {
    Checksum sum;
    machine.scheduler().Spawn(0, "smp-check", [&] {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          int owner = RowOwner(i, p);
          size_t index = static_cast<size_t>((i - owner) / p) * n + static_cast<size_t>(j);
          sum.Add(row_store[owner]->Get(index));
        }
      }
    });
    machine.scheduler().Run();
    result.checksum = sum.value();
    result.verified = result.checksum == GaussReferenceChecksum(config.seed, n);
    PLAT_CHECK(result.verified) << "message-passing Gauss produced a wrong matrix";
  }
  return result;
}

}  // namespace platinum::apps
