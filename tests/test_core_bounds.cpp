// The phase-2 bounds: the residual matching that the exact search keeps
// current at every node, and the root bound it starts from. The
// incremental repair is checked against a from-scratch Hopcroft-Karp
// matching of the same residual graph after every assign and undo.
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/matching.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

/// A random body whose free intra edges form a random DAG: offsets in a
/// small range, strides 1 or 2 (mixed strides never connect), and a
/// random window [lo, hi] with up to two extra free widths. Long enough
/// for some draws to span several 64-bit bitset words.
struct Body {
  AccessSequence seq;
  CostModel model;
};

Body random_body(support::Rng& rng) {
  const std::size_t n =
      rng.bernoulli(0.25) ? 65 + rng.index(100) : 2 + rng.index(24);
  const std::int64_t range = rng.uniform_int(3, 12);
  std::vector<ir::Access> accesses(n);
  const bool mixed = rng.bernoulli(0.3);
  for (auto& access : accesses) {
    access.offset = rng.uniform_int(-range, range);
    access.stride = mixed ? rng.uniform_int(1, 2) : 1;
  }
  std::vector<std::int64_t> widths;
  for (std::int64_t w = rng.uniform_int(0, 2); w > 0; --w) {
    widths.push_back(rng.uniform_int(-6, 6));
  }
  CostModel model(-rng.uniform_int(0, 2), rng.uniform_int(0, 2),
                  std::move(widths));
  return Body{AccessSequence(std::move(accesses)), model};
}

/// Maximum matching of the residual graph by Hopcroft-Karp: left
/// vertices `lasts` and [next, N), right vertices [next, N), free intra
/// edges between them.
std::size_t residual_matching_size(const AccessSequence& seq,
                                   const CostModel& model, std::size_t next,
                                   const std::vector<std::size_t>& lasts) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> left = lasts;
  for (std::size_t v = next; v < n; ++v) left.push_back(v);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const std::size_t p : left) {
    for (std::size_t j = std::max(next, p + 1); j < n; ++j) {
      if (intra_transition_cost(seq, p, j, model) == 0) {
        edges.emplace_back(static_cast<std::uint32_t>(p),
                           static_cast<std::uint32_t>(j));
      }
    }
  }
  return graph::hopcroft_karp(n, n, edges).size;
}

class ResidualMatchingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResidualMatchingTest, StaysMaximumUnderRandomAssignAndUndo) {
  support::Rng rng(GetParam() * 6151 + 17);
  const auto [seq, model] = random_body(rng);
  const std::size_t n = seq.size();
  const SuffixBounds bounds(seq, model);
  // The search's start: the root matching the table built once.
  ResidualMatching matching(bounds);
  matching.start_at_root();
  ASSERT_EQ(matching.size(), residual_matching_size(seq, model, 0, {}));

  // Register state of the simulated search: each open register's last
  // access, and per assign the register it touched and what it replaced.
  std::vector<std::size_t> lasts;
  struct Move {
    std::size_t reg;
    std::size_t previous_last;
  };
  std::vector<Move> history;
  for (std::size_t step = 0; step < 4 * n; ++step) {
    const bool can_assign = matching.next() < n;
    if (can_assign && (history.empty() || rng.bernoulli(0.65))) {
      const std::size_t access = matching.next();
      const std::size_t reg = rng.index(lasts.size() + 1);
      if (reg == lasts.size()) {
        lasts.push_back(access);
        history.push_back(Move{reg, ResidualMatching::kNoAccess});
      } else {
        history.push_back(Move{reg, lasts[reg]});
        lasts[reg] = access;
      }
      matching.assign(history.back().previous_last);
    } else {
      const Move move = history.back();
      history.pop_back();
      if (move.previous_last == ResidualMatching::kNoAccess) {
        lasts.pop_back();
      } else {
        lasts[move.reg] = move.previous_last;
      }
      matching.undo();
    }
    ASSERT_EQ(matching.next(), history.size());
    ASSERT_EQ(matching.size(),
              residual_matching_size(seq, model, matching.next(), lasts))
        << "step " << step << ", next " << matching.next();
  }

  // A rebuild from the current state (a replayed prefix) agrees too.
  ResidualMatching rebuilt(bounds);
  rebuilt.rebuild(matching.next(), lasts);
  EXPECT_EQ(rebuilt.size(), matching.size());
}

TEST_P(ResidualMatchingTest, RootBoundIsPhaseOnesMatchingBound) {
  support::Rng rng(GetParam() * 2749 + 5);
  const auto [seq, model] = random_body(rng);
  const SuffixBounds bounds(seq, model);
  const std::size_t matching = residual_matching_size(seq, model, 0, {});
  const int k_tilde_acyclic = static_cast<int>(seq.size() - matching);
  EXPECT_EQ(lower_bound_registers(bounds), seq.size() - matching);
  for (std::size_t registers = 1; registers <= seq.size() + 1; ++registers) {
    EXPECT_EQ(bounds.root_lower_bound(registers),
              std::max(0, k_tilde_acyclic - static_cast<int>(registers)))
        << "K = " << registers;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ResidualMatchingTest,
                         ::testing::Range<std::uint64_t>(0, 40));

class StepCostTableTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StepCostTableTest, EveryReadIsTheCostModels) {
  // The table's rows, its edge list, its matching bound and path costs
  // summed from it against the cost model, on dense and (for seed 0)
  // sparse tables, under both wrap policies.
  support::Rng rng(GetParam() * 4099 + 11);
  auto [seq, model] = random_body(rng);
  if (GetParam() == 0) {
    std::vector<ir::Access> accesses = seq.accesses();
    while (accesses.size() <= SuffixBounds::kDenseLimit) {
      accesses.push_back(accesses[rng.index(accesses.size())]);
    }
    seq = AccessSequence(std::move(accesses));
  }
  if (rng.bernoulli(0.25)) model.wrap = WrapPolicy::kAcyclic;
  const SuffixBounds costs(seq, model);
  const std::size_t n = seq.size();
  EXPECT_EQ(costs.dense(), n <= SuffixBounds::kDenseLimit);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> free_edges;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      const int wrap = wrap_transition_cost(seq, p, q, model);
      ASSERT_EQ(costs.wrap_direct(p, q), wrap) << p << " -> " << q;
      if (p >= q) continue;
      const int intra = intra_transition_cost(seq, p, q, model);
      ASSERT_EQ(costs.intra_cost(p, q), intra) << p << " -> " << q;
      if (intra == 0) {
        free_edges.emplace_back(static_cast<std::uint32_t>(p),
                                static_cast<std::uint32_t>(q));
      }
    }
  }
  EXPECT_EQ(costs.free_intra_edges(), free_edges);
  EXPECT_EQ(lower_bound_registers(costs),
            n - graph::hopcroft_karp(n, n, free_edges).size);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.3)) indices.push_back(i);
    }
    const Path path(std::move(indices));
    EXPECT_EQ(costs.path_cost(path), path_cost(seq, path, model));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StepCostTableTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(ResidualMatching, AppendingAlongTheMatchedEdgeNeedsNoRepair) {
  // 0 -> 1 -> 2 is one free chain (M = 1): the root matching pairs both
  // edges, and appending 1 after 0 and 2 after 1 keeps the remaining
  // edge matched until nothing is left.
  const auto seq = AccessSequence::from_offsets({0, 1, 2});
  const SuffixBounds bounds(seq, CostModel{1});
  ResidualMatching matching(bounds);
  matching.rebuild(0, {});
  EXPECT_EQ(matching.size(), 2u);
  matching.assign(ResidualMatching::kNoAccess);  // 0 opens a register
  EXPECT_EQ(matching.size(), 2u);
  matching.assign(0);  // 1 follows 0
  EXPECT_EQ(matching.size(), 1u);
  matching.assign(1);  // 2 follows 1
  EXPECT_EQ(matching.size(), 0u);
  matching.undo();
  matching.undo();
  matching.undo();
  EXPECT_EQ(matching.next(), 0u);
  EXPECT_EQ(matching.size(), 2u);
}

TEST(ResidualMatching, RejectsSparseBounds) {
  std::vector<ir::Access> accesses(SuffixBounds::kDenseLimit + 1);
  const SuffixBounds bounds(AccessSequence(std::move(accesses)),
                            CostModel{1});
  ASSERT_FALSE(bounds.dense());
  EXPECT_THROW(ResidualMatching{bounds}, dspaddr::InvalidArgument);
}

}  // namespace
}  // namespace dspaddr::core
