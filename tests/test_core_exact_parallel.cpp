// The parallel exact solver's contract: `jobs` buys wall-clock, never
// different answers. Proven costs (and the proof itself) are identical
// at any jobs level; node counts and the witness assignment may vary.
// The suite name is matched by the CI TSan job's regex, so every test
// here also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "agu/machines.hpp"
#include "core/allocator.hpp"
#include "core/exact.hpp"
#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const CostModel kM1{1, WrapPolicy::kCyclic};

AccessSequence hard_pattern(std::size_t accesses, std::uint64_t seed) {
  support::Rng rng(seed);
  eval::PatternSpec spec;
  spec.accesses = accesses;
  spec.offset_range = 8;
  spec.family = eval::PatternFamily::kSortedNoise;
  return eval::generate_pattern(spec, rng);
}

AccessSequence skewed_pattern(std::size_t accesses, std::uint64_t seed) {
  // Deep-unbalanced workload: long dominant ramps with rare far jumps
  // make one branch of the search tree much heavier than its siblings,
  // which is exactly the shape work-stealing exists for.
  support::Rng rng(seed);
  eval::PatternSpec spec;
  spec.accesses = accesses;
  spec.offset_range = 8;
  spec.family = eval::PatternFamily::kSkewedStrided;
  return eval::generate_pattern(spec, rng);
}

TEST(ParallelExact, ProvenCostsMatchSequentialAcrossJobs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const AccessSequence seq = hard_pattern(24, 0xA11E ^ seed);
    const ExactResult serial = exact_min_cost_allocation(seq, kM1, 3);
    ASSERT_TRUE(serial.proven) << "seed " << seed;
    for (const std::size_t jobs : {2u, 4u, 8u}) {
      ExactOptions options;
      options.jobs = jobs;
      const ExactResult parallel =
          exact_min_cost_allocation(seq, kM1, 3, options);
      ASSERT_TRUE(parallel.proven) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.cost, serial.cost)
          << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.lower_bound, serial.lower_bound);
      validate_allocation(seq, parallel.paths, 3);
      EXPECT_EQ(total_cost(seq, parallel.paths, kM1), parallel.cost);
    }
  }
}

TEST(ParallelExact, FullBuiltinMachineCatalogAgreesAcrossJobsLevels) {
  // On every catalog machine's cost model (its own K, modify window and
  // free widths), the proven cost and the proof are identical at jobs
  // 1, 4 and 8.
  const std::vector<agu::AguSpec> machines = agu::builtin_machines();
  ASSERT_FALSE(machines.empty());
  for (const agu::AguSpec& machine : machines) {
    const AccessSequence seq =
        hard_pattern(16, 0xCA7 ^ machine.address_registers());
    ProblemConfig config;
    config.modify_range = machine.modify_range();
    config.modify_lo = machine.modify_lo;
    config.modify_hi = machine.modify_hi;
    config.free_widths = machine.free_widths;
    const CostModel model = config.cost_model();
    const std::size_t registers = machine.address_registers();
    const ExactResult serial =
        exact_min_cost_allocation(seq, model, registers);
    for (const std::size_t jobs : {4u, 8u}) {
      ExactOptions options;
      options.jobs = jobs;
      const ExactResult parallel =
          exact_min_cost_allocation(seq, model, registers, options);
      EXPECT_EQ(parallel.cost, serial.cost)
          << machine.name << " jobs=" << jobs;
      EXPECT_EQ(parallel.proven, serial.proven)
          << machine.name << " jobs=" << jobs;
      validate_allocation(seq, parallel.paths, registers);
    }
  }
}

TEST(ParallelExact, ProvenCostsMatchAcrossJobsOnSkewedStridedTrees) {
  // The work-stealing scheduler's contract on the workload it was
  // built for: deep unbalanced trees are split and stolen at whatever
  // schedule the OS produces, and the proven cost never moves.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const AccessSequence seq = skewed_pattern(26, 0x5EED ^ seed);
    const ExactResult serial = exact_min_cost_allocation(seq, kM1, 3);
    ASSERT_TRUE(serial.proven) << "seed " << seed;
    for (const std::size_t jobs : {2u, 8u}) {
      ExactOptions options;
      options.jobs = jobs;
      const ExactResult parallel =
          exact_min_cost_allocation(seq, kM1, 3, options);
      ASSERT_TRUE(parallel.proven) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.cost, serial.cost)
          << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.lower_bound, serial.lower_bound);
      validate_allocation(seq, parallel.paths, 3);
      EXPECT_EQ(total_cost(seq, parallel.paths, kM1), parallel.cost);
    }
  }
}

TEST(ParallelExact, StealCountersAccountForEveryDonatedSubtree) {
  // Steal/split counts are schedule-dependent, but the accounting
  // identity is not: the pool executes the root task plus exactly one
  // task per donated split, and attempts dominate successes. The
  // answer repeats exactly even though the schedule does not.
  const AccessSequence seq = hard_pattern(32, 7);
  ExactOptions options;
  options.jobs = 4;
  const ExactResult first = exact_min_cost_allocation(seq, kM1, 3, options);
  const ExactResult second =
      exact_min_cost_allocation(seq, kM1, 3, options);
  ASSERT_TRUE(first.proven);
  ASSERT_TRUE(second.proven);
  EXPECT_EQ(first.subtree_tasks, first.splits + 1);
  EXPECT_EQ(second.subtree_tasks, second.splits + 1);
  EXPECT_GE(first.steal_attempts, first.steals);
  EXPECT_EQ(first.cost, second.cost);
  EXPECT_EQ(first.lower_bound, second.lower_bound);
}

TEST(ParallelExact, DeepUnbalancedTreesActuallyGetStolen) {
  // Donation is demand-driven (only when a worker is hungry), so a
  // single run can in principle finish before any thief wakes up; over
  // several deep skewed instances at jobs=8 the pool must both split
  // and steal at least once in aggregate. The instances must stay deep
  // under the residual matching bound: at N = 36, K = 4 the three trees
  // take about 100k nodes sequentially (N = 30, K = 3 shrank to under
  // 2k in total, too few for a worker to go hungry).
  std::uint64_t total_splits = 0;
  std::uint64_t total_steals = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const AccessSequence seq = skewed_pattern(36, 0xDEE9 ^ seed);
    ExactOptions options;
    options.jobs = 8;
    const ExactResult r = exact_min_cost_allocation(seq, kM1, 4, options);
    ASSERT_TRUE(r.proven) << "seed " << seed;
    total_splits += r.splits;
    total_steals += r.steals;
  }
  EXPECT_GT(total_splits, 0u);
  EXPECT_GT(total_steals, 0u);
}

TEST(ParallelExact, SequentialSolveReportsNoSubtreeTasks) {
  const AccessSequence seq = hard_pattern(20, 9);
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 3);
  ASSERT_TRUE(r.proven);
  EXPECT_EQ(r.subtree_tasks, 0u);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.steal_attempts, 0u);
  EXPECT_EQ(r.splits, 0u);
}

TEST(ParallelExact, NodeBudgetAbortKeepsValidIncumbent) {
  // 160 accesses are more than CycleDuals::kMaxRows, so no task builds
  // the cycle duals, and the matching bound alone needs about 2.9
  // million nodes to prove this body sequentially.
  const AccessSequence seq = hard_pattern(160, 11);
  ExactOptions options;
  options.jobs = 4;
  options.max_nodes = 5'000;
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_FALSE(r.proven);
  validate_allocation(seq, r.paths, 3);
  EXPECT_EQ(total_cost(seq, r.paths, kM1), r.cost);
  EXPECT_GE(r.gap(), 0);
}

TEST(ParallelExact, HonorsPinnedPrefix) {
  const AccessSequence seq = hard_pattern(24, 13);
  ExactOptions pinned;
  pinned.pinned_prefix = {0, 0, 1};
  ExactOptions parallel_pinned = pinned;
  parallel_pinned.jobs = 4;
  const ExactResult serial = exact_min_cost_allocation(seq, kM1, 3, pinned);
  const ExactResult parallel =
      exact_min_cost_allocation(seq, kM1, 3, parallel_pinned);
  ASSERT_TRUE(serial.proven);
  ASSERT_TRUE(parallel.proven);
  EXPECT_EQ(parallel.cost, serial.cost);
  validate_allocation(seq, parallel.paths, 3);
}

TEST(ParallelExact, WarmStartIsSharedWithEveryTask) {
  // The warm-start incumbent seeds the shared atomic before the
  // fan-out, so no task can record anything worse.
  const AccessSequence seq = hard_pattern(24, 17);
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 3;
  config.phase2.mode = Phase2Options::Mode::kHeuristic;
  const Allocation heuristic = RegisterAllocator(config).run(seq);

  ExactOptions options;
  options.jobs = 4;
  options.warm_start = heuristic.paths();
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 3, options);
  ASSERT_TRUE(r.proven);
  EXPECT_LE(r.cost, heuristic.cost());
  validate_allocation(seq, r.paths, 3);
}

TEST(ParallelExact, ManyJobsOnTinySequencesDegradeToSequential) {
  // A tiny tree is never worth donating (every frame sits below the
  // steal grain), so the root task solves it alone: one executed task,
  // zero splits, and the sequential answer.
  const AccessSequence seq = AccessSequence::from_offsets({1, 0, 2, -1});
  ExactOptions options;
  options.jobs = 16;
  const ExactResult parallel =
      exact_min_cost_allocation(seq, kM1, 2, options);
  const ExactResult serial = exact_min_cost_allocation(seq, kM1, 2);
  ASSERT_TRUE(parallel.proven);
  EXPECT_EQ(parallel.cost, serial.cost);
  EXPECT_EQ(parallel.subtree_tasks, 1u);
  EXPECT_EQ(parallel.splits, 0u);
}

}  // namespace
}  // namespace dspaddr::core
