#include "core/merging.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/phase1.hpp"
#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const CostModel kM1{1, WrapPolicy::kCyclic};

std::vector<Path> phase1_cover(const AccessSequence& seq,
                               const CostModel& model) {
  const SuffixBounds g(seq, model);
  return compute_min_register_cover(g).cover;
}

TEST(Merging, NoopWhenAlreadyWithinLimit) {
  const auto seq = AccessSequence::from_offsets({0, 1});
  std::vector<Path> paths{Path({0, 1})};
  const auto merged =
      merge_to_register_limit(seq, kM1, paths, 4, MergeOptions{});
  EXPECT_EQ(merged, paths);
}

TEST(Merging, RejectsZeroRegisters) {
  const auto seq = AccessSequence::from_offsets({0});
  EXPECT_THROW(
      merge_to_register_limit(seq, kM1, {Path({0})}, 0, MergeOptions{}),
      dspaddr::InvalidArgument);
}

TEST(Merging, RejectsOverlappingOrOutOfRangePaths) {
  // Checked up front for every strategy: the cost-guided ones score
  // pairs without building the merged path.
  const auto seq = AccessSequence::from_offsets({0, 10, 20, 30});
  for (const MergeStrategy strategy :
       {MergeStrategy::kMinMergedCost, MergeStrategy::kMinDelta,
        MergeStrategy::kFirstPair, MergeStrategy::kRandomPair}) {
    MergeOptions options;
    options.strategy = strategy;
    EXPECT_THROW(merge_to_register_limit(
                     seq, kM1, {Path({0, 1}), Path({1, 2}), Path({3})}, 1,
                     options),
                 dspaddr::InvalidArgument)
        << to_string(strategy);
    EXPECT_THROW(merge_to_register_limit(
                     seq, kM1, {Path({0}), Path({1, 2}), Path({3, 4})}, 1,
                     options),
                 dspaddr::InvalidArgument)
        << to_string(strategy);
  }
}

TEST(Merging, MergesDownToExactlyK) {
  const auto seq = AccessSequence::from_offsets({0, 10, 20, 30, 40});
  std::vector<Path> paths;
  for (std::size_t i = 0; i < 5; ++i) {
    paths.push_back(Path::singleton(i));
  }
  for (std::size_t k : {4, 2, 1}) {
    const auto merged =
        merge_to_register_limit(seq, kM1, paths, k, MergeOptions{});
    EXPECT_EQ(merged.size(), k);
    validate_allocation(seq, merged, k);
  }
}

TEST(Merging, TraceRecordsEveryStep) {
  const auto seq = AccessSequence::from_offsets({0, 10, 20, 30});
  std::vector<Path> paths;
  for (std::size_t i = 0; i < 4; ++i) {
    paths.push_back(Path::singleton(i));
  }
  std::vector<MergeStep> trace;
  merge_to_register_limit(seq, kM1, paths, 1, MergeOptions{}, &trace);
  EXPECT_EQ(trace.size(), 3u);
  // Total cost after the last step must equal the final allocation cost.
  const auto merged =
      merge_to_register_limit(seq, kM1, paths, 1, MergeOptions{});
  EXPECT_EQ(trace.back().total_cost_after,
            total_cost(seq, merged, kM1));
}

TEST(Merging, PaperExampleKTwoCostsTwo) {
  // From the cyclic-optimal 3-path cover of the worked example, the best
  // single merge costs 2 (merge the singleton (a_7) into either chain);
  // merging the two chains would cost 4.
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, kM1);
  const Phase1Result phase1 = compute_min_register_cover(g);
  ASSERT_EQ(phase1.cover.size(), 3u);

  const auto merged = merge_to_register_limit(seq, kM1, phase1.cover, 2,
                                              MergeOptions{});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(total_cost(seq, merged, kM1), 2);
}

TEST(Merging, DeterministicAcrossRuns) {
  support::Rng rng(99);
  eval::PatternSpec spec;
  spec.accesses = 30;
  spec.offset_range = 10;
  const auto seq = eval::generate_pattern(spec, rng);
  const auto cover = phase1_cover(seq, kM1);
  const auto a = merge_to_register_limit(seq, kM1, cover, 3, MergeOptions{});
  const auto b = merge_to_register_limit(seq, kM1, cover, 3, MergeOptions{});
  EXPECT_EQ(a, b);
}

TEST(Merging, FirstPairStrategyMergesFrontPaths) {
  const auto seq = AccessSequence::from_offsets({0, 100, 200});
  std::vector<Path> paths{Path({0}), Path({1}), Path({2})};
  MergeOptions options;
  options.strategy = MergeStrategy::kFirstPair;
  const auto merged =
      merge_to_register_limit(seq, kM1, paths, 2, options);
  ASSERT_EQ(merged.size(), 2u);
  // First two paths merged: {0, 1} and {2}.
  EXPECT_EQ(merged[0].indices(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(merged[1].indices(), (std::vector<std::size_t>{2}));
}

TEST(Merging, RandomPairIsSeedDeterministic) {
  const auto seq = AccessSequence::from_offsets({0, 10, 20, 30, 40, 50});
  std::vector<Path> paths;
  for (std::size_t i = 0; i < 6; ++i) {
    paths.push_back(Path::singleton(i));
  }
  MergeOptions options;
  options.strategy = MergeStrategy::kRandomPair;
  options.seed = 7;
  const auto a = merge_to_register_limit(seq, kM1, paths, 2, options);
  const auto b = merge_to_register_limit(seq, kM1, paths, 2, options);
  EXPECT_EQ(a, b);
}

TEST(Merging, StrategyNamesAreStable) {
  EXPECT_STREQ(to_string(MergeStrategy::kMinMergedCost), "min-merged-cost");
  EXPECT_STREQ(to_string(MergeStrategy::kMinDelta), "min-delta");
  EXPECT_STREQ(to_string(MergeStrategy::kFirstPair), "first-pair");
  EXPECT_STREQ(to_string(MergeStrategy::kRandomPair), "random-pair");
}

class MergingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MergingPropertyTest, CostGuidedNeverLosesToArbitraryOrder) {
  support::Rng rng(GetParam() * 31 + 5);
  eval::PatternSpec spec;
  spec.accesses = 10 + rng.index(30);
  spec.offset_range = 1 + rng.uniform_int(0, 15);
  const auto seq = eval::generate_pattern(spec, rng);
  const auto cover = phase1_cover(seq, kM1);
  const std::size_t k = 1 + rng.index(4);

  MergeOptions paper;
  paper.strategy = MergeStrategy::kMinMergedCost;
  MergeOptions naive;
  naive.strategy = MergeStrategy::kFirstPair;

  const auto merged = merge_to_register_limit(seq, kM1, cover, k, paper);
  const auto arbitrary = merge_to_register_limit(seq, kM1, cover, k, naive);
  validate_allocation(seq, merged, k);
  validate_allocation(seq, arbitrary, k);

  // Greedy is not provably dominant step-by-step, but on these sizes it
  // must never be worse than merging blindly by more than a whisker; we
  // assert the strong form and would rather learn about violations.
  EXPECT_LE(total_cost(seq, merged, kM1),
            total_cost(seq, arbitrary, kM1));
}

TEST_P(MergingPropertyTest, CostIsMonotoneInRegisterPressure) {
  support::Rng rng(GetParam() * 97 + 3);
  eval::PatternSpec spec;
  spec.accesses = 12 + rng.index(20);
  spec.offset_range = 8;
  const auto seq = eval::generate_pattern(spec, rng);
  const auto cover = phase1_cover(seq, kM1);

  int previous = -1;
  for (std::size_t k = cover.size(); k >= 1; --k) {
    const auto merged =
        merge_to_register_limit(seq, kM1, cover, k, MergeOptions{});
    const int cost = total_cost(seq, merged, kM1);
    if (previous >= 0) {
      EXPECT_GE(cost, previous)
          << "cost should not drop when registers get scarcer (k=" << k
          << ")";
    }
    previous = cost;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MergingPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace dspaddr::core
