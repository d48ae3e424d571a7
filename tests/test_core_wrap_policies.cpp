// Relationships between the cyclic (steady-state) and acyclic
// (matching-solvable) cost models — see DESIGN.md section 1.
#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/bounds.hpp"
#include "core/phase1.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

TEST(WrapPolicies, AcyclicCostNeverExceedsCyclicForFixedPaths) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const std::vector<Path> paths{Path({0, 2, 4, 5}), Path({1, 3, 6})};
  const CostModel cyclic{1, WrapPolicy::kCyclic};
  const CostModel acyclic{1, WrapPolicy::kAcyclic};
  EXPECT_LE(total_cost(seq, paths, acyclic),
            total_cost(seq, paths, cyclic));
}

TEST(WrapPolicies, PoliciesShareIntraEdges) {
  const auto seq = AccessSequence::from_offsets({4, -3, 2, 0, 1});
  const SuffixBounds cyclic(seq, CostModel{2, WrapPolicy::kCyclic});
  const SuffixBounds acyclic(seq, CostModel{2, WrapPolicy::kAcyclic});
  EXPECT_EQ(cyclic.free_intra_edges(), acyclic.free_intra_edges());
}

class WrapPolicyPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WrapPolicyPropertyTest, FixedAllocationCostsAreOrdered) {
  // For any fixed set of paths, dropping the wrap charge can only
  // lower the cost: cyclic >= acyclic >= intra-only lower bounds.
  support::Rng rng(GetParam() * 43 + 11);
  eval::PatternSpec spec;
  spec.accesses = 6 + rng.index(20);
  spec.offset_range = 8;
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1 + rng.uniform_int(0, 2);
  config.registers = 1 + rng.index(4);
  const Allocation a = RegisterAllocator(config).run(seq);

  const CostModel cyclic{config.modify_range, WrapPolicy::kCyclic};
  const CostModel acyclic{config.modify_range, WrapPolicy::kAcyclic};
  EXPECT_LE(total_cost(seq, a.paths(), acyclic),
            total_cost(seq, a.paths(), cyclic));
  EXPECT_EQ(total_cost(seq, a.paths(), cyclic), a.cost());
}

TEST_P(WrapPolicyPropertyTest, AcyclicKTildeBoundsCyclicKTilde) {
  // Every zero-cost cyclic cover is also a zero-cost acyclic cover, so
  // the acyclic optimum (the matching bound) can never exceed the
  // cyclic optimum.
  support::Rng rng(GetParam() * 67 + 23);
  eval::PatternSpec spec;
  spec.accesses = 4 + rng.index(12);  // exact search stays cheap
  spec.offset_range = 5;
  const auto seq = eval::generate_pattern(spec, rng);
  const std::int64_t m = 1 + rng.uniform_int(0, 1);

  const SuffixBounds acyclic_graph(seq, CostModel{m, WrapPolicy::kAcyclic});
  const Phase1Result acyclic = compute_min_register_cover(acyclic_graph);

  const SuffixBounds cyclic_graph(seq, CostModel{m, WrapPolicy::kCyclic});
  const Phase1Result cyclic = compute_min_register_cover(cyclic_graph);

  ASSERT_TRUE(acyclic.k_tilde.has_value());
  ASSERT_TRUE(cyclic.k_tilde.has_value());  // unit stride, s <= M
  EXPECT_LE(*acyclic.k_tilde, *cyclic.k_tilde);
  // And the matching lower bound is exactly the acyclic optimum.
  EXPECT_EQ(cyclic.lower_bound, *acyclic.k_tilde);
}

TEST_P(WrapPolicyPropertyTest, AcyclicAllocatorOptimizesItsOwnObjective) {
  // The acyclic allocator's cost, measured acyclically, must not exceed
  // the cyclic allocator's paths measured acyclically (both start from
  // covers optimal for their models; for the acyclic model phase 1 is
  // exactly optimal, so with enough registers it is 0).
  support::Rng rng(GetParam() * 89 + 7);
  eval::PatternSpec spec;
  spec.accesses = 6 + rng.index(14);
  spec.offset_range = 6;
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = seq.size();
  config.wrap = WrapPolicy::kAcyclic;
  const Allocation a = RegisterAllocator(config).run(seq);
  EXPECT_EQ(a.cost(), 0);  // K >= K~_acyclic always
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WrapPolicyPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace dspaddr::core
