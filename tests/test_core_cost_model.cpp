#include "core/cost_model.hpp"

#include <gtest/gtest.h>

namespace dspaddr::core {
namespace {

using ir::Access;
using ir::AccessSequence;

TEST(CostModel, IntraZeroCostWithinModifyRange) {
  const auto seq = AccessSequence::from_offsets({0, 1, 3, -2});
  const CostModel m1{1, WrapPolicy::kCyclic};
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, m1), 0);   // d = 1
  EXPECT_EQ(intra_transition_cost(seq, 1, 2, m1), 1);   // d = 2
  EXPECT_EQ(intra_transition_cost(seq, 0, 3, m1), 1);   // d = -2
  EXPECT_EQ(intra_transition_cost(seq, 1, 1, m1), 0);   // d = 0
}

TEST(CostModel, BoundaryDistanceExactlyMIsFree) {
  const auto seq = AccessSequence::from_offsets({0, 3});
  const CostModel m3{3, WrapPolicy::kCyclic};
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, m3), 0);
  const CostModel m2{2, WrapPolicy::kCyclic};
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, m2), 1);
}

TEST(CostModel, ModifyRangeZeroOnlyFreeAtSameAddress) {
  const auto seq = AccessSequence::from_offsets({5, 5, 6});
  const CostModel m0{0, WrapPolicy::kCyclic};
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, m0), 0);
  EXPECT_EQ(intra_transition_cost(seq, 1, 2, m0), 1);
}

TEST(CostModel, DifferentStridesAreNeverFree) {
  const AccessSequence seq({Access{0, 1}, Access{0, -1}});
  const CostModel wide{1000, WrapPolicy::kCyclic};
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, wide), 1);
  EXPECT_EQ(wrap_transition_cost(seq, 1, 0, wide), 1);
}

TEST(CostModel, WrapCostUsesStrideAdjustedDistance) {
  // Offsets 1, -2, stride 1: wrap from a_2 (-2) to a_1 (1+1=2) is 4.
  const auto seq = AccessSequence::from_offsets({1, -2});
  const CostModel m1{1, WrapPolicy::kCyclic};
  EXPECT_EQ(wrap_transition_cost(seq, 1, 0, m1), 1);
  const CostModel m4{4, WrapPolicy::kCyclic};
  EXPECT_EQ(wrap_transition_cost(seq, 1, 0, m4), 0);
}

TEST(CostModel, SingletonWrapEqualsStride) {
  const auto unit = AccessSequence::from_offsets({7}, 1);
  const CostModel m1{1, WrapPolicy::kCyclic};
  EXPECT_EQ(wrap_transition_cost(unit, 0, 0, m1), 0);
  const auto wide = AccessSequence::from_offsets({7}, 5);
  EXPECT_EQ(wrap_transition_cost(wide, 0, 0, m1), 1);
}

TEST(CostModel, AcyclicPolicyNeverChargesWrap) {
  const auto seq = AccessSequence::from_offsets({100, -100});
  const CostModel acyclic{1, WrapPolicy::kAcyclic};
  EXPECT_EQ(wrap_transition_cost(seq, 0, 1, acyclic), 0);
  EXPECT_EQ(wrap_transition_cost(seq, 1, 0, acyclic), 0);
  // Intra charging is unaffected.
  EXPECT_EQ(intra_transition_cost(seq, 0, 1, acyclic), 1);
}

}  // namespace
}  // namespace dspaddr::core
