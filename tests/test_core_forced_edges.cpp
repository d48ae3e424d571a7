#include "core/forced_edges.hpp"

#include <gtest/gtest.h>

#include "eval/patterns.hpp"
#include "graph/matching.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const CostModel kM1{1, WrapPolicy::kCyclic};

TEST(ForcedEdges, ChainEdgesAreAllMandatory) {
  // 0-1-2-3 ramp: the only maximum matching chains everything.
  const auto seq = AccessSequence::from_offsets({0, 1, 2, 3});
  const SuffixBounds g(seq, kM1);
  for (const ClassifiedEdge& edge : classify_edges(g)) {
    // Consecutive ramp edges are mandatory; the matching uses exactly
    // the three consecutive pairs.
    if (edge.to == edge.from + 1) {
      EXPECT_EQ(edge.role, EdgeRole::kMandatory)
          << edge.from << "->" << edge.to;
    }
  }
  EXPECT_EQ(mandatory_edge_count(g), 3u);
}

TEST(ForcedEdges, IsolatedNodesHaveNoEdges) {
  const auto seq = AccessSequence::from_offsets({0, 100, 200});
  const SuffixBounds g(seq, kM1);
  EXPECT_TRUE(classify_edges(g).empty());
  EXPECT_EQ(mandatory_edge_count(g), 0u);
}

TEST(ForcedEdges, SkipEdgeOfATriangleIsUseless) {
  // Offsets 0, 0, 0 give edges (0,1), (0,2), (1,2). In the bipartite
  // split, left 0 matches right 1 or 2 and left 1 matches right 2; the
  // only size-2 matching is {0-1, 1-2} (choosing 0-2 starves left 1).
  // Hence 0-1 and 1-2 are mandatory and the skip edge 0-2 is useless.
  const auto seq = AccessSequence::from_offsets({0, 0, 0});
  const SuffixBounds g(seq, kM1);
  const auto classified = classify_edges(g);
  ASSERT_EQ(classified.size(), 3u);
  for (const ClassifiedEdge& edge : classified) {
    if (edge.from == 0 && edge.to == 2) {
      EXPECT_EQ(edge.role, EdgeRole::kUseless);
    } else {
      EXPECT_EQ(edge.role, EdgeRole::kMandatory);
    }
  }
}

TEST(ForcedEdges, RoleNames) {
  EXPECT_STREQ(to_string(EdgeRole::kMandatory), "mandatory");
  EXPECT_STREQ(to_string(EdgeRole::kOptional), "optional");
  EXPECT_STREQ(to_string(EdgeRole::kUseless), "useless");
}

/// Oracle: enumerate all maximum matchings by brute force over edge
/// subsets, and check edge usage classification.
class ForcedEdgePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForcedEdgePropertyTest, ClassificationMatchesEnumeration) {
  support::Rng rng(GetParam() * 211 + 5);
  eval::PatternSpec spec;
  spec.accesses = 3 + rng.index(5);  // up to 7 nodes
  spec.offset_range = 3;
  const AccessSequence seq = eval::generate_pattern(spec, rng);
  const SuffixBounds g(seq, kM1);

  const auto edges = g.free_intra_edges();
  if (edges.size() > 16) return;  // keep the oracle tractable

  // Enumerate all matchings; record which edges appear in maximum ones.
  std::size_t best = 0;
  std::vector<std::size_t> used_in_maximum(edges.size(), 0);
  const std::size_t subsets = std::size_t{1} << edges.size();
  std::vector<std::size_t> max_matching_count(edges.size(), 0);
  std::size_t total_maximum = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t mask = 0; mask < subsets; ++mask) {
      std::vector<bool> left(seq.size(), false);
      std::vector<bool> right(seq.size(), false);
      std::size_t size = 0;
      bool valid = true;
      for (std::size_t e = 0; e < edges.size() && valid; ++e) {
        if (!(mask & (std::size_t{1} << e))) continue;
        const auto [u, v] = edges[e];
        if (left[u] || right[v]) {
          valid = false;
        } else {
          left[u] = right[v] = true;
          ++size;
        }
      }
      if (!valid) continue;
      if (round == 0) {
        best = std::max(best, size);
      } else if (size == best) {
        ++total_maximum;
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if (mask & (std::size_t{1} << e)) ++max_matching_count[e];
        }
      }
    }
  }

  const auto classified = classify_edges(g);
  ASSERT_EQ(classified.size(), edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    SCOPED_TRACE("edge " + std::to_string(edges[e].first) + "->" +
                 std::to_string(edges[e].second));
    if (max_matching_count[e] == total_maximum && total_maximum > 0) {
      EXPECT_EQ(classified[e].role, EdgeRole::kMandatory);
    } else if (max_matching_count[e] == 0) {
      EXPECT_EQ(classified[e].role, EdgeRole::kUseless);
    } else {
      EXPECT_EQ(classified[e].role, EdgeRole::kOptional);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ForcedEdgePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace dspaddr::core
