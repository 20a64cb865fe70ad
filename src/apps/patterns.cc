#include "src/apps/patterns.h"

#include "src/apps/workloads.h"
#include "src/base/check.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::apps {

std::string_view AccessPatternName(AccessPattern pattern) {
  switch (pattern) {
    case AccessPattern::kPrivate:
      return "private";
    case AccessPattern::kReadShared:
      return "read-shared";
    case AccessPattern::kMigratory:
      return "migratory";
    case AccessPattern::kProducerConsumer:
      return "producer-consumer";
    case AccessPattern::kHotSpotWrite:
      return "hot-spot-write";
    case AccessPattern::kFalseSharing:
      return "false-sharing";
  }
  return "?";
}

PatternResult RunPattern(kernel::Kernel& kernel, const PatternConfig& config) {
  PLAT_CHECK_GE(config.processors, 1);
  PLAT_CHECK_LE(config.processors, kernel.num_processors());
  PLAT_CHECK_GE(config.pages, 1);
  sim::Machine& machine = kernel.machine();
  sim::Scheduler& sched = machine.scheduler();

  auto* space = kernel.CreateAddressSpace("pattern");
  rt::ZoneAllocator zone(&kernel, space);
  const uint32_t page_words = kernel.page_size() / 4;
  const int p = config.processors;

  // Region layout depends on the pattern: kPrivate gets one region per
  // processor; everything else shares one region.
  size_t region_words = static_cast<size_t>(config.pages) * page_words;
  std::vector<rt::SharedArray<uint32_t>> regions;
  if (config.pattern == AccessPattern::kPrivate) {
    for (int t = 0; t < p; ++t) {
      regions.push_back(rt::SharedArray<uint32_t>::Create(
          zone, "private-" + std::to_string(t), region_words));
    }
  } else {
    regions.push_back(rt::SharedArray<uint32_t>::Create(zone, "shared", region_words));
  }
  rt::Barrier barrier(zone, "pattern-barrier", static_cast<uint32_t>(p));

  const sim::MachineStats before = machine.stats();
  sim::SimTime t_start = 0;

  rt::RunOnProcessors(kernel, space, p, "pattern", [&](int pid) {
    auto& shared = regions[config.pattern == AccessPattern::kPrivate
                               ? static_cast<size_t>(pid)
                               : 0];
    uint64_t rng = config.seed * 1000003 + static_cast<uint64_t>(pid);
    auto next_index = [&]() {
      rng = Mix64(rng);
      return static_cast<size_t>(rng % region_words);
    };

    // Writer initializes shared data so the pattern starts from one copy.
    if (config.pattern != AccessPattern::kPrivate && pid == 0) {
      for (size_t i = 0; i < region_words; i += page_words) {
        shared.Set(i, 1);
      }
    }
    barrier.Wait();
    if (pid == 0) {
      t_start = kernel.Now();
    }

    for (int round = 0; round < config.rounds; ++round) {
      switch (config.pattern) {
        case AccessPattern::kPrivate:
          for (int r = 0; r < config.refs_per_round; ++r) {
            size_t index = next_index();
            shared.Set(index, shared.Get(index) + 1);
          }
          break;

        case AccessPattern::kReadShared:
          for (int r = 0; r < config.refs_per_round; ++r) {
            shared.Get(next_index());
          }
          break;

        case AccessPattern::kMigratory:
          // One processor at a time owns the region exclusively.
          if (round % p == pid) {
            for (int r = 0; r < config.refs_per_round; ++r) {
              size_t index = next_index();
              shared.Set(index, shared.Get(index) + 1);
            }
          }
          barrier.Wait();
          break;

        case AccessPattern::kProducerConsumer:
          if (round % 2 == 0) {
            if (pid == 0) {
              for (int r = 0; r < config.refs_per_round; ++r) {
                shared.Set(next_index(), static_cast<uint32_t>(round));
              }
            }
          } else if (pid != 0) {
            for (int r = 0; r < config.refs_per_round; ++r) {
              shared.Get(next_index());
            }
          }
          barrier.Wait();
          break;

        case AccessPattern::kHotSpotWrite:
          for (int r = 0; r < config.refs_per_round; ++r) {
            size_t index = static_cast<size_t>(
                (r * 17 + pid) % static_cast<int>(page_words));
            shared.Set(index, shared.Get(index) + 1);
          }
          break;

        case AccessPattern::kFalseSharing: {
          // Each processor owns a disjoint word of page 0, updated
          // repeatedly: no data is logically shared at all.
          size_t index = static_cast<size_t>(pid);
          for (int r = 0; r < config.refs_per_round; ++r) {
            shared.Set(index, shared.Get(index) + 1);
          }
          break;
        }
      }
      if (config.think_ns > 0) {
        sched.Sleep(config.think_ns);
      }
    }
  });

  const sim::MachineStats delta = machine.stats() - before;
  PatternResult result;
  result.elapsed_ns = sched.global_now() - t_start;
  // Protocol actions are attributed per data page so the synchronization
  // page's own behaviour (the barrier freezes, like any hot sync variable)
  // does not pollute the pattern's signature.
  auto accumulate = [&](const std::string& name) {
    vm::MemoryObject* object = kernel.FindMemoryObject(name);
    for (uint32_t i = 0; i < object->num_pages(); ++i) {
      const mem::CpageStats& page_stats =
          kernel.memory().cpages().at(object->cpage(i)).stats();
      result.replications += page_stats.replications;
      result.migrations += page_stats.migrations;
      result.remote_maps += page_stats.remote_maps;
      result.freezes += page_stats.freezes;
    }
  };
  if (config.pattern == AccessPattern::kPrivate) {
    for (int t = 0; t < p; ++t) {
      accumulate("private-" + std::to_string(t));
    }
  } else {
    accumulate("shared");
  }
  result.remote_references = delta.remote_references();
  result.local_references = delta.local_reads + delta.local_writes;
  return result;
}

}  // namespace platinum::apps
