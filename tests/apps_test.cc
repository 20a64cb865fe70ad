// End-to-end tests for the three applications and their baselines: every
// implementation must produce bit-identical results to the sequential
// reference, and the memory system must exhibit the paper's qualitative
// behaviour (replication for Gauss, freezing for the neural simulator).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/apps/neural.h"
#include "src/apps/workloads.h"
#include "src/kernel/report.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using test::TestSystem;

apps::GaussConfig SmallGauss(int processors) {
  apps::GaussConfig config;
  config.n = 48;
  config.processors = processors;
  return config;
}

TEST(GaussReferenceTest, DeterministicChecksum) {
  EXPECT_EQ(apps::GaussReferenceChecksum(1, 16), apps::GaussReferenceChecksum(1, 16));
  EXPECT_NE(apps::GaussReferenceChecksum(1, 16), apps::GaussReferenceChecksum(2, 16));
}

class GaussPlatinumTest : public ::testing::TestWithParam<int> {};

TEST_P(GaussPlatinumTest, ProducesReferenceResult) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::GaussResult result = RunGaussPlatinum(sys.kernel, SmallGauss(GetParam()));
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.elimination_ns, sim::SimTime{0});
  sys.kernel.memory().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Processors, GaussPlatinumTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(GaussPlatinumBehaviorTest, ParallelismSpeedsItUp) {
  // Too small a matrix is dominated by per-round pivot replication; use a
  // size where the paper's coarse-grain regime applies.
  TestSystem sys1(sim::ButterflyPlusParams(8));
  TestSystem sys8(sim::ButterflyPlusParams(8));
  apps::GaussConfig config = SmallGauss(1);
  config.n = 192;
  auto t1 = RunGaussPlatinum(sys1.kernel, config).elimination_ns;
  config.processors = 8;
  auto t8 = RunGaussPlatinum(sys8.kernel, config).elimination_ns;
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t8), 2.5);
}

TEST(GaussPlatinumBehaviorTest, PivotPagesReplicateAndSyncPageFreezes) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::GaussConfig config = SmallGauss(8);
  config.n = 96;  // enough rounds for the event-count page to freeze
  RunGaussPlatinum(sys.kernel, config);
  const sim::MachineStats& stats = sys.machine.stats();
  EXPECT_GT(stats.replications, 50u);  // pivot rows replicated every round
  kernel::MemoryReport report = BuildMemoryReport(sys.kernel);
  EXPECT_GE(report.pages_ever_frozen, 1u);  // the event-count page
  // Matrix-row pages must not freeze: only synchronization pages do.
  EXPECT_LE(report.pages_ever_frozen, 3u);
}

TEST(GaussPlatinumBehaviorTest, DeterministicAcrossRuns) {
  TestSystem a(sim::ButterflyPlusParams(4));
  TestSystem b(sim::ButterflyPlusParams(4));
  auto ra = RunGaussPlatinum(a.kernel, SmallGauss(4));
  auto rb = RunGaussPlatinum(b.kernel, SmallGauss(4));
  EXPECT_EQ(ra.elimination_ns, rb.elimination_ns);
  EXPECT_EQ(ra.checksum, rb.checksum);
}

class GaussUniformTest : public ::testing::TestWithParam<int> {};

TEST_P(GaussUniformTest, ProducesReferenceResult) {
  sim::Machine machine(sim::ButterflyPlusParams(8));
  apps::GaussResult result = RunGaussUniformSystem(machine, SmallGauss(GetParam()));
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(Processors, GaussUniformTest, ::testing::Values(1, 2, 4, 8));

class GaussMessagePassingTest : public ::testing::TestWithParam<int> {};

TEST_P(GaussMessagePassingTest, ProducesReferenceResult) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::GaussResult result = RunGaussMessagePassing(sys.kernel, SmallGauss(GetParam()));
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(Processors, GaussMessagePassingTest, ::testing::Values(1, 2, 3, 8));

TEST(GaussAnecdoteTest, ColocatedFlagVariantStillCorrect) {
  TestSystem sys(sim::ButterflyPlusParams(4));
  apps::GaussConfig config = SmallGauss(4);
  config.colocate_size_and_flag = true;
  apps::GaussResult result = RunGaussPlatinum(sys.kernel, config);
  EXPECT_TRUE(result.verified);
  // The control page froze.
  kernel::MemoryReport report = BuildMemoryReport(sys.kernel);
  EXPECT_GE(report.pages_ever_frozen, 1u);
}

TEST(GaussAnecdoteTest, ColocationCostsTime) {
  TestSystem clean_sys(sim::ButterflyPlusParams(4));
  TestSystem dirty_sys(sim::ButterflyPlusParams(4));
  apps::GaussConfig clean = SmallGauss(4);
  apps::GaussConfig dirty = SmallGauss(4);
  dirty.colocate_size_and_flag = true;
  auto t_clean = RunGaussPlatinum(clean_sys.kernel, clean).elimination_ns;
  auto t_dirty = RunGaussPlatinum(dirty_sys.kernel, dirty).elimination_ns;
  EXPECT_GT(t_dirty, t_clean);
}

TEST(SortReferenceTest, MatchesStdSortChecksum) {
  // The reference the merge sort is verified against, computed the plain way.
  auto std_sort_checksum = [](uint64_t seed, size_t count) {
    std::vector<uint32_t> values(count);
    for (size_t i = 0; i < count; ++i) {
      values[i] = apps::SortInputValue(seed, i);
    }
    std::sort(values.begin(), values.end());
    apps::Checksum sum;
    for (uint32_t v : values) {
      sum.Add(v);
    }
    return sum.value();
  };
  for (uint64_t seed : {1, 1009}) {
    for (size_t count : {size_t{1}, size_t{1000}, size_t{1} << 14, size_t{1} << 18}) {
      EXPECT_EQ(apps::SortReferenceChecksum(seed, count), std_sort_checksum(seed, count))
          << "seed " << seed << " count " << count;
    }
  }
}

class MergeSortPlatinumTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeSortPlatinumTest, SortsCorrectly) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::SortConfig config;
  config.count = 4096;
  config.processors = GetParam();
  apps::SortResult result = RunMergeSortPlatinum(sys.kernel, config);
  EXPECT_TRUE(result.verified);
  sys.kernel.memory().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Processors, MergeSortPlatinumTest, ::testing::Values(1, 2, 4, 8));

class MergeSortUmaTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeSortUmaTest, SortsCorrectly) {
  uma::UmaParams params;
  params.num_processors = 8;
  uma::UmaMachine machine(params);
  apps::SortConfig config;
  config.count = 4096;
  config.processors = GetParam();
  apps::SortResult result = RunMergeSortUma(machine, config);
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(Processors, MergeSortUmaTest, ::testing::Values(1, 2, 4, 8));

// Strips the block accessors from rt::SharedArray so the generic sort core
// falls back to its word-at-a-time loops — the reference implementation the
// batched path must be indistinguishable from.
struct WordOnlyArray {
  rt::SharedArray<uint32_t>* inner;
  uint32_t Get(size_t i) const { return inner->Get(i); }
  void Set(size_t i, uint32_t v) { inner->Set(i, v); }
};

// The batched merge (GetRange/SetRange tails) and the word-at-a-time merge
// must be byte-identical in result AND in simulated time: the kernel's
// block transfer is contractually the same access stream as the word loop,
// so swapping one in may change host speed only, never the simulation.
TEST(MergeSortBatchingTest, BlockAndWordLinearPassesAreIdentical) {
  static_assert(apps::kArrayHasRanges<rt::SharedArray<uint32_t>>);
  static_assert(!apps::kArrayHasRanges<WordOnlyArray>);
  // Sized so generation spans several staging chunks (1100 > 4 * 256) and
  // ends on a partial one.
  constexpr size_t kCount = 1100;
  constexpr uint64_t kSeed = 7;

  uint64_t checksum_block = 0;
  uint64_t checksum_word = 0;
  sim::SimTime gen_ns_block = 0;
  sim::SimTime gen_ns_word = 0;
  sim::SimTime scan_ns_block = 0;
  sim::SimTime scan_ns_word = 0;
  for (bool word_only : {false, true}) {
    TestSystem sys(sim::ButterflyPlusParams(4));
    auto* space = sys.kernel.CreateAddressSpace("gen-eq");
    rt::ZoneAllocator zone(&sys.kernel, space);
    auto data = rt::SharedArray<uint32_t>::Create(zone, "data", kCount);
    test::RunInThread(sys.kernel, space, 0, [&] {
      // The generation pass of SortWorkerBody: block SetRange vs word Set
      // must produce the same bytes in the same simulated time.
      sim::SimTime t0 = sys.kernel.Now();
      if (word_only) {
        WordOnlyArray wdata{&data};
        apps::GenerateRun(wdata, 0, kCount, kSeed);
        gen_ns_word = sys.kernel.Now() - t0;
      } else {
        apps::GenerateRun(data, 0, kCount, kSeed);
        gen_ns_block = sys.kernel.Now() - t0;
      }
      // The verification pass: a linear read scan, block GetRange vs word
      // Get, accumulated into the workload checksum.
      apps::Checksum sum;
      sim::SimTime t1 = sys.kernel.Now();
      uint32_t buf[apps::kSortBatchWords];
      size_t done = 0;
      while (done < kCount) {
        size_t batch = std::min(kCount - done, apps::kSortBatchWords);
        if (word_only) {
          for (size_t k = 0; k < batch; ++k) {
            buf[k] = data.Get(done + k);
          }
        } else {
          data.GetRange(done, batch, buf);
        }
        for (size_t k = 0; k < batch; ++k) {
          sum.Add(buf[k]);
        }
        done += batch;
      }
      if (word_only) {
        scan_ns_word = sys.kernel.Now() - t1;
        checksum_word = sum.value();
      } else {
        scan_ns_block = sys.kernel.Now() - t1;
        checksum_block = sum.value();
      }
    });
  }
  EXPECT_EQ(checksum_block, checksum_word) << "batched generation changed the bytes";
  EXPECT_EQ(gen_ns_block, gen_ns_word) << "batched generation changed simulated time";
  EXPECT_EQ(scan_ns_block, scan_ns_word) << "batched scan changed simulated time";
}

TEST(MergeSortBehaviorTest, PlatinumParallelismHelps) {
  TestSystem sys1(sim::ButterflyPlusParams(8));
  TestSystem sys8(sim::ButterflyPlusParams(8));
  apps::SortConfig config;
  config.count = 1 << 14;
  config.processors = 1;
  auto t1 = RunMergeSortPlatinum(sys1.kernel, config).sort_ns;
  config.processors = 8;
  auto t8 = RunMergeSortPlatinum(sys8.kernel, config).sort_ns;
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t8), 1.5);
}

class NeuralTest : public ::testing::TestWithParam<int> {};

TEST_P(NeuralTest, LearnsTheEncoderProblem) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::NeuralConfig config;
  config.processors = GetParam();
  config.epochs = 8;
  apps::NeuralResult result = RunNeuralPlatinum(sys.kernel, config);
  EXPECT_TRUE(result.verified);
  EXPECT_LT(result.final_error, result.initial_error);
  sys.kernel.memory().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Processors, NeuralTest, ::testing::Values(1, 2, 4, 8));

TEST(NeuralBehaviorTest, SharedPagesFreeze) {
  TestSystem sys(sim::ButterflyPlusParams(8));
  apps::NeuralConfig config;
  config.processors = 8;
  config.epochs = 4;
  RunNeuralPlatinum(sys.kernel, config);
  // "The coherent memory system quickly gives up and the data pages of the
  // application are frozen in place" (Section 5.3).
  kernel::MemoryReport report = BuildMemoryReport(sys.kernel);
  EXPECT_GE(report.pages_ever_frozen, 2u);
}

}  // namespace
}  // namespace platinum
