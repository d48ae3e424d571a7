// The zero-cost graph G = (V, E) of paper section 2 (Fig. 1), as the
// request's step-cost table represents it: E is the table's free intra
// edges, and the wrap relation is its wrap_direct.
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/check.hpp"

namespace dspaddr::core {
namespace {

using ir::Access;
using ir::AccessSequence;

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(AccessGraph, EmptySequence) {
  const SuffixBounds g(AccessSequence{}, CostModel{1, WrapPolicy::kCyclic});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.free_intra_edges().empty());
}

TEST(AccessGraph, IntraEdgesOnlyForward) {
  // An intra edge runs from an earlier access to a later one: offsets
  // 1, 0 are a free step either way, yet the only edge is (0, 1).
  const auto seq = AccessSequence::from_offsets({1, 0});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  EXPECT_EQ(g.intra_cost(0, 1), 0);
  EXPECT_EQ(g.free_intra_edges(), (Edges{{0, 1}}));
}

TEST(AccessGraph, EdgeIffDistanceWithinRange) {
  const auto seq = AccessSequence::from_offsets({0, 2, 3});
  const SuffixBounds g1(seq, CostModel{1, WrapPolicy::kCyclic});
  EXPECT_EQ(g1.intra_cost(0, 1), 1);  // d = 2
  EXPECT_EQ(g1.intra_cost(1, 2), 0);  // d = 1
  EXPECT_EQ(g1.free_intra_edges(), (Edges{{1, 2}}));
  const SuffixBounds g2(seq, CostModel{2, WrapPolicy::kCyclic});
  EXPECT_EQ(g2.intra_cost(0, 1), 0);
}

TEST(AccessGraph, WrapEdgesUnderCyclicPolicy) {
  const auto seq = AccessSequence::from_offsets({1, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  // a_2 -> a_1 next iteration: distance 1 + 1 - (-2) = 4.
  EXPECT_EQ(g.wrap_direct(1, 0), 1);
  // a_1 -> a_2 next iteration: distance -2 + 1 - 1 = -2.
  EXPECT_EQ(g.wrap_direct(0, 1), 1);
  // Singletons close at stride distance 1.
  EXPECT_EQ(g.wrap_direct(0, 0), 0);
  EXPECT_EQ(g.wrap_direct(1, 1), 0);
}

TEST(AccessGraph, WrapEdgesAlwaysPresentUnderAcyclicPolicy) {
  const auto seq = AccessSequence::from_offsets({1, -200});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kAcyclic});
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_EQ(g.wrap_direct(a, b), 0);
    }
  }
}

TEST(AccessGraph, RejectsNegativeModifyRange) {
  const auto seq = AccessSequence::from_offsets({0});
  EXPECT_THROW(SuffixBounds(seq, CostModel{-1, WrapPolicy::kCyclic}),
               dspaddr::InvalidArgument);
}

TEST(AccessGraph, PaperFigure1EdgeSet) {
  // The example loop of section 2 with M = 1: offsets 1, 0, 2, -1, 1,
  // 0, -2 for accesses a_1 .. a_7. Edges are exactly the pairs (i < j)
  // with |o_j - o_i| <= 1.
  const auto seq = ir::AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});

  const std::set<std::pair<std::size_t, std::size_t>> expected{
      {0, 1}, {0, 2}, {0, 4}, {0, 5},  // a_1 -- a_2, a_3, a_5, a_6
      {1, 3}, {1, 4}, {1, 5},          // a_2 -- a_4, a_5, a_6
      {2, 4},                          // a_3 -- a_5
      {3, 5}, {3, 6},                  // a_4 -- a_6, a_7
      {4, 5},                          // a_5 -- a_6
  };
  std::set<std::pair<std::size_t, std::size_t>> actual;
  for (const auto& [from, to] : g.free_intra_edges()) {
    actual.emplace(from, to);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(g.free_intra_edges().size(), 11u);
}

TEST(AccessGraph, PaperExamplePathIsZeroCostIntra) {
  // "The access subsequence (a_1, a_3, a_5, a_6) could be realized with
  // a single register using only auto-increment and auto-decrement."
  const auto seq = ir::AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  EXPECT_EQ(g.intra_cost(0, 2), 0);
  EXPECT_EQ(g.intra_cost(2, 4), 0);
  EXPECT_EQ(g.intra_cost(4, 5), 0);
}

}  // namespace
}  // namespace dspaddr::core
