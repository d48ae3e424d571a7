// The acyclic-optimal cover: the minimum path cover of the zero-cost
// graph's free intra edges, read off a maximum matching (Fulkerson), and
// the post-condition check it runs on itself.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/validate.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

const CostModel kM1{1, WrapPolicy::kAcyclic};

TEST(PathCover, ChainIsOnePath) {
  const SuffixBounds costs(AccessSequence::from_offsets({0, 1, 2, 3}), kM1);
  const std::vector<Path> cover =
      acyclic_optimal_cover(costs, costs.free_intra_edges());
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].indices(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(PathCover, AntichainNeedsOnePathPerNode) {
  const auto seq = AccessSequence::from_offsets({0, 10, 20, 30, 40});
  const SuffixBounds costs(seq, kM1);
  EXPECT_EQ(acyclic_optimal_cover(costs, costs.free_intra_edges()).size(),
            5u);
}

TEST(PathCover, DiamondNeedsTwoPaths) {
  // Free distances 0, 1 and 3 give 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: one
  // path through, one leftover.
  const auto seq = AccessSequence::from_offsets({0, 1, 3, 4});
  const SuffixBounds costs(seq, CostModel(0, 0, {1, 3}, WrapPolicy::kAcyclic));
  ASSERT_EQ(costs.free_intra_edges(), (Edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(acyclic_optimal_cover(costs, costs.free_intra_edges()).size(),
            2u);
}

TEST(PathCover, TwoIndependentChains) {
  const auto seq = AccessSequence::from_offsets({0, 10, 1, 11, 2, 12});
  const SuffixBounds costs(seq, kM1);
  ASSERT_EQ(costs.free_intra_edges(), (Edges{{0, 2}, {1, 3}, {2, 4}, {3, 5}}));
  EXPECT_EQ(acyclic_optimal_cover(costs, costs.free_intra_edges()).size(),
            2u);
}

TEST(ValidatePathCover, AcceptsValidCover) {
  const SuffixBounds costs(AccessSequence::from_offsets({0, 1, 5}), kM1);
  EXPECT_NO_THROW(validate_path_cover(costs, {Path({0, 1}), Path({2})}));
}

TEST(ValidatePathCover, RejectsMissingNode) {
  const SuffixBounds costs(AccessSequence::from_offsets({0, 5, 10}), kM1);
  EXPECT_THROW(validate_path_cover(costs, {Path({0}), Path({1})}),
               InvariantViolation);
}

TEST(ValidatePathCover, RejectsDuplicateNode) {
  const SuffixBounds costs(AccessSequence::from_offsets({0, 5}), kM1);
  EXPECT_THROW(validate_path_cover(costs, {Path({0}), Path({0}), Path({1})}),
               InvariantViolation);
}

TEST(ValidatePathCover, RejectsNonEdgePair) {
  const SuffixBounds costs(AccessSequence::from_offsets({0, 5}), kM1);
  EXPECT_THROW(validate_path_cover(costs, {Path({0, 1})}), InvariantViolation);
}

TEST(ValidatePathCover, RejectsEmptyPath) {
  const SuffixBounds costs(AccessSequence::from_offsets({0}), kM1);
  EXPECT_THROW(validate_path_cover(costs, {Path(), Path({0})}),
               InvariantViolation);
}

/// Oracle: minimum path cover of the free intra edges by exhaustive
/// assignment of each access to a path slot (tiny n).
std::size_t brute_force_cover(const SuffixBounds& costs) {
  const std::size_t n = costs.size();
  std::vector<std::size_t> assignment(n, 0);
  std::size_t best = n;
  // Try every assignment of accesses to at most n path ids where each
  // path id's accesses, in index order, must form a chain of edges.
  const auto evaluate = [&]() {
    std::vector<std::vector<std::size_t>> paths(n);
    for (std::size_t v = 0; v < n; ++v) {
      paths[assignment[v]].push_back(v);
    }
    std::size_t used = 0;
    for (const auto& path : paths) {
      if (path.empty()) continue;
      ++used;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (costs.intra_cost(path[i], path[i + 1]) != 0) return;
      }
    }
    best = std::min(best, used);
  };
  // Odometer over assignments (n^n, n <= 6).
  while (true) {
    evaluate();
    std::size_t digit = 0;
    while (digit < n) {
      if (++assignment[digit] < n) break;
      assignment[digit] = 0;
      ++digit;
    }
    if (digit == n) break;
  }
  return best;
}

class PathCoverPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathCoverPropertyTest, MatchesBruteForceOnRandomDags) {
  // A random body of up to 6 accesses: offsets in [-4, 4], strides 1 or
  // 2 (mixed strides never connect) and a random window [lo, hi] with
  // up to one extra free width, so the free intra edges form a random
  // DAG.
  support::Rng rng(GetParam());
  const std::size_t n = 2 + rng.index(5);
  std::vector<ir::Access> accesses(n);
  for (auto& access : accesses) {
    access.offset = rng.uniform_int(-4, 4);
    access.stride = rng.uniform_int(1, 2);
  }
  std::vector<std::int64_t> widths;
  if (rng.bernoulli(0.5)) widths.push_back(rng.uniform_int(-4, 4));
  const std::int64_t lo = -rng.uniform_int(0, 1);
  const std::int64_t hi = rng.uniform_int(0, 1);
  const CostModel model(lo, hi, std::move(widths), WrapPolicy::kAcyclic);
  const SuffixBounds costs(AccessSequence(std::move(accesses)), model);
  const std::vector<Path> cover =
      acyclic_optimal_cover(costs, costs.free_intra_edges());
  validate_path_cover(costs, cover);
  EXPECT_EQ(cover.size(), brute_force_cover(costs));
  EXPECT_EQ(cover.size(), lower_bound_registers(costs));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PathCoverPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace dspaddr::core
