#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const auto kPaperSeq =
    AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});

ProblemConfig paper_config(std::size_t k) {
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = k;
  return config;
}

TEST(RegisterAllocator, RejectsBadConfig) {
  EXPECT_THROW(RegisterAllocator(ProblemConfig{.modify_range = -1,
                                               .registers = 1}),
               dspaddr::InvalidArgument);
  EXPECT_THROW(RegisterAllocator(ProblemConfig{.modify_range = 1,
                                               .registers = 0}),
               dspaddr::InvalidArgument);
}

TEST(RegisterAllocator, EmptySequenceGivesEmptyAllocation) {
  const Allocation a =
      RegisterAllocator(paper_config(2)).run(AccessSequence{});
  EXPECT_EQ(a.register_count(), 0u);
  EXPECT_EQ(a.cost(), 0);
  // Phase 1 proves K~ = 0 and the free allocation is proven optimal.
  EXPECT_EQ(a.stats().k_tilde, std::optional<std::size_t>{0});
  EXPECT_TRUE(a.stats().phase1_exact);
  EXPECT_TRUE(a.stats().phase2_exact);
  EXPECT_TRUE(a.stats().phase2_proven);
  EXPECT_EQ(a.stats().phase2_gap, 0);

  // Only the heuristic mode leaves the proof uncertified by the solver.
  ProblemConfig heuristic = paper_config(2);
  heuristic.phase2.mode = Phase2Options::Mode::kHeuristic;
  const Allocation h = RegisterAllocator(heuristic).run(AccessSequence{});
  EXPECT_FALSE(h.stats().phase2_exact);
  EXPECT_TRUE(h.stats().phase2_proven);
}

TEST(RegisterAllocator, PaperExampleWithEnoughRegistersIsFree) {
  const Allocation a = RegisterAllocator(paper_config(3)).run(kPaperSeq);
  EXPECT_EQ(a.cost(), 0);
  EXPECT_EQ(a.stats().k_tilde, std::size_t{3});
  EXPECT_LE(a.register_count(), 3u);
}

TEST(RegisterAllocator, PaperExampleWithTwoRegistersCostsTwo) {
  const Allocation a = RegisterAllocator(paper_config(2)).run(kPaperSeq);
  EXPECT_EQ(a.register_count(), 2u);
  EXPECT_EQ(a.cost(), 2);
  EXPECT_EQ(a.stats().merges, 1u);
}

TEST(RegisterAllocator, PaperExampleWithOneRegisterCostsFive) {
  // K = 1 forces the single path (a_1 .. a_7): four over-range intra
  // steps plus the wrap.
  const Allocation a = RegisterAllocator(paper_config(1)).run(kPaperSeq);
  EXPECT_EQ(a.register_count(), 1u);
  EXPECT_EQ(a.intra_cost(), 4);
  EXPECT_EQ(a.wrap_cost(), 1);
  EXPECT_EQ(a.cost(), 5);
}

TEST(RegisterAllocator, RegisterOfMapsEveryAccess) {
  const Allocation a = RegisterAllocator(paper_config(2)).run(kPaperSeq);
  for (std::size_t i = 0; i < kPaperSeq.size(); ++i) {
    const std::size_t r = a.register_of(i);
    ASSERT_LT(r, a.register_count());
    const auto& indices = a.paths()[r].indices();
    EXPECT_TRUE(std::find(indices.begin(), indices.end(), i) !=
                indices.end());
  }
  EXPECT_THROW(a.register_of(kPaperSeq.size()), dspaddr::InvalidArgument);
}

TEST(RegisterAllocator, RegisterOfFailsLoudlyOnUncoveredAccess) {
  // A malformed cover (access 2 on no path) must not silently read as
  // "access 2 is on AR0".
  const auto seq = AccessSequence::from_offsets({0, 1, 2, 3});
  const Allocation partial(seq, CostModel{1, WrapPolicy::kCyclic},
                           {Path({0, 1}), Path({3})}, {});
  EXPECT_EQ(partial.register_of(0), 0u);
  EXPECT_EQ(partial.register_of(3), 1u);
  EXPECT_THROW(partial.register_of(2), dspaddr::InvariantViolation);
}

TEST(RegisterAllocator, ExactPhase2UpgradesHeuristicMerges) {
  // Sweep random instances until the exact phase 2 strictly improves on
  // the heuristic at least once, and never worsens it.
  support::Rng rng(314);
  std::size_t improvements = 0;
  for (std::size_t trial = 0; trial < 40; ++trial) {
    eval::PatternSpec spec;
    spec.accesses = 10 + rng.index(8);
    spec.offset_range = 6;
    spec.family = static_cast<eval::PatternFamily>(trial % 4);
    const auto seq = eval::generate_pattern(spec, rng);

    ProblemConfig heuristic_config;
    heuristic_config.modify_range = 1;
    heuristic_config.registers = 2;
    heuristic_config.phase2.mode = Phase2Options::Mode::kHeuristic;
    const Allocation heuristic =
        RegisterAllocator(heuristic_config).run(seq);
    EXPECT_FALSE(heuristic.cost() > 0 &&
                 heuristic.stats().phase2_exact);

    ProblemConfig exact_config = heuristic_config;
    exact_config.phase2.mode = Phase2Options::Mode::kExact;
    const Allocation exact = RegisterAllocator(exact_config).run(seq);
    EXPECT_TRUE(exact.stats().phase2_exact);
    EXPECT_TRUE(exact.stats().phase2_proven);
    EXPECT_EQ(exact.stats().phase2_gap, 0);
    EXPECT_LE(exact.cost(), heuristic.cost());
    validate_allocation(seq, exact.paths(), 2);
    if (exact.cost() < heuristic.cost()) ++improvements;
  }
  EXPECT_GT(improvements, 0u);
}

TEST(RegisterAllocator, AutoPhase2SkipsLargeSequences) {
  support::Rng rng(99);
  eval::PatternSpec spec;
  spec.accesses = 40;  // above the auto exact_access_limit
  spec.offset_range = 10;
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 2;
  const Allocation a = RegisterAllocator(config).run(seq);
  if (a.cost() > 0) {
    EXPECT_FALSE(a.stats().phase2_exact);
    EXPECT_FALSE(a.stats().phase2_proven);
  }
}

TEST(RegisterAllocator, ZeroCostAllocationIsTriviallyProven) {
  const auto seq = AccessSequence::from_offsets({0, 1, 2, 3});
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 4;
  config.phase2.mode = Phase2Options::Mode::kHeuristic;
  const Allocation a = RegisterAllocator(config).run(seq);
  ASSERT_EQ(a.cost(), 0);
  EXPECT_TRUE(a.stats().phase2_proven);
  EXPECT_EQ(a.stats().phase2_nodes, 0u);
}

TEST(RegisterAllocator, ToStringMentionsEveryRegister) {
  const Allocation a = RegisterAllocator(paper_config(2)).run(kPaperSeq);
  const std::string text = a.to_string(kPaperSeq);
  EXPECT_NE(text.find("AR0"), std::string::npos);
  EXPECT_NE(text.find("AR1"), std::string::npos);
  EXPECT_NE(text.find("total cost 2"), std::string::npos);
}

TEST(RegisterAllocator, StatsExposePhase1Diagnostics) {
  const Allocation a = RegisterAllocator(paper_config(2)).run(kPaperSeq);
  EXPECT_TRUE(a.stats().phase1_exact);
  EXPECT_EQ(a.stats().lower_bound, 2u);
  ASSERT_TRUE(a.stats().upper_bound.has_value());
  EXPECT_GE(*a.stats().upper_bound, 3u);
}

class AllocatorPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorPropertyTest, AllocationIsAlwaysValid) {
  support::Rng rng(GetParam() * 131 + 17);
  eval::PatternSpec spec;
  spec.accesses = 5 + rng.index(40);
  spec.offset_range = 1 + rng.uniform_int(0, 20);
  spec.family = static_cast<eval::PatternFamily>(rng.index(4));
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1 + rng.uniform_int(0, 3);
  config.registers = 1 + rng.index(8);
  const Allocation a = RegisterAllocator(config).run(seq);

  validate_allocation(seq, a.paths(), config.registers);
  EXPECT_EQ(a.cost(), a.intra_cost() + a.wrap_cost());
  EXPECT_GE(a.cost(), 0);
}

TEST_P(AllocatorPropertyTest, EnoughRegistersMeansZeroCost) {
  support::Rng rng(GetParam() * 61 + 29);
  eval::PatternSpec spec;
  spec.accesses = 4 + rng.index(16);
  spec.offset_range = 6;
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = seq.size();  // K >= K~ always holds then
  const Allocation a = RegisterAllocator(config).run(seq);
  EXPECT_EQ(a.cost(), 0);
  ASSERT_TRUE(a.stats().k_tilde.has_value());
  EXPECT_EQ(a.register_count(), *a.stats().k_tilde);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AllocatorPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace dspaddr::core
