// Differential test across coherence protocols (docs/PROTOCOL.md).
//
// The directory protocol and the tardis protocol schedule coherence work
// very differently — shootdown rounds vs. lease waits — but both enforce
// the same single-writer/multiple-reader discipline, so a properly
// synchronized application must compute the identical result under either.
// Each case here runs the same workload with the same seed under both
// protocols and requires the final memory contents (via the workload
// checksums) to verify against the host-side reference AND to agree with
// each other. A divergence means one protocol let a stale or torn value
// reach the application — exactly the bug class the spec-level safety
// proofs (tools/gen_protocol_spec.py --verify) are about.
#include <string>

#include "gtest/gtest.h"
#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/apps/neural.h"
#include "src/kernel/kernel.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

// A fresh 8-node system booted with the given protocol.
kernel::KernelOptions WithProtocol(const char* protocol) {
  kernel::KernelOptions options;
  options.protocol = protocol;
  return options;
}

TEST(ProtocolDifferentialTest, GaussAgreesAcrossProtocols) {
  apps::GaussConfig config;
  config.n = 48;
  config.processors = 8;
  uint64_t checksums[2];
  for (int i = 0; i < 2; ++i) {
    test::TestSystem sys(sim::ButterflyPlusParams(8),
                         WithProtocol(i == 0 ? "directory" : "tardis"));
    apps::GaussResult result = RunGaussPlatinum(sys.kernel, config);
    ASSERT_TRUE(result.verified) << "protocol " << i << " wrong vs. reference";
    checksums[i] = result.checksum;
    sys.kernel.memory().CheckInvariants();
  }
  EXPECT_EQ(checksums[0], checksums[1])
      << "directory and tardis disagree on the eliminated matrix";
}

TEST(ProtocolDifferentialTest, MergeSortAgreesAcrossProtocols) {
  apps::SortConfig config;
  config.count = 1 << 12;
  config.processors = 8;
  uint64_t checksums[2];
  for (int i = 0; i < 2; ++i) {
    test::TestSystem sys(sim::ButterflyPlusParams(8),
                         WithProtocol(i == 0 ? "directory" : "tardis"));
    apps::SortResult result = RunMergeSortPlatinum(sys.kernel, config);
    ASSERT_TRUE(result.verified) << "protocol " << i << " wrong vs. reference";
    checksums[i] = result.checksum;
    sys.kernel.memory().CheckInvariants();
  }
  EXPECT_EQ(checksums[0], checksums[1])
      << "directory and tardis disagree on the sorted permutation";
}

TEST(ProtocolDifferentialTest, NeuralLearnsUnderBothProtocols) {
  // The network shares its vectors at word grain with only word-atomicity
  // for synchronization, so the exact trajectory legitimately depends on
  // coherence timing. What must hold under any correct protocol: training
  // starts from the same (seed-determined) error and learns the encoder.
  apps::NeuralConfig config;
  config.processors = 8;
  config.epochs = 8;
  uint64_t initial_errors[2];
  for (int i = 0; i < 2; ++i) {
    test::TestSystem sys(sim::ButterflyPlusParams(8),
                         WithProtocol(i == 0 ? "directory" : "tardis"));
    apps::NeuralResult result = RunNeuralPlatinum(sys.kernel, config);
    ASSERT_TRUE(result.verified) << "protocol " << i << " failed to learn";
    EXPECT_LT(result.final_error, result.initial_error);
    initial_errors[i] = result.initial_error;
    sys.kernel.memory().CheckInvariants();
  }
  EXPECT_EQ(initial_errors[0], initial_errors[1])
      << "the seed-determined starting point must not depend on the protocol";
}

// The same run repeated under the same protocol must be bit-identical —
// the fiber-serialized simulation has no protocol-dependent nondeterminism
// to hide behind (tools/behaviour_gate.py covers the platsim surface).
TEST(ProtocolDifferentialTest, TardisRunsAreReproducible) {
  apps::SortConfig config;
  config.count = 1 << 12;
  config.processors = 4;
  sim::SimTime times[2];
  uint64_t checksums[2];
  for (int i = 0; i < 2; ++i) {
    test::TestSystem sys(sim::ButterflyPlusParams(4), WithProtocol("tardis"));
    apps::SortResult result = RunMergeSortPlatinum(sys.kernel, config);
    ASSERT_TRUE(result.verified);
    times[i] = result.sort_ns;
    checksums[i] = result.checksum;
  }
  EXPECT_EQ(times[0], times[1]);
  EXPECT_EQ(checksums[0], checksums[1]);
}

}  // namespace
}  // namespace platinum
