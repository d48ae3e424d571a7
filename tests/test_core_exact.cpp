#include "core/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/allocator.hpp"
#include "core/bounds.hpp"
#include "core/transposition_table.hpp"
#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const CostModel kM1{1, WrapPolicy::kCyclic};

TEST(ExactAllocator, EmptySequence) {
  const ExactResult r = exact_min_cost_allocation(AccessSequence{}, kM1, 2);
  EXPECT_EQ(r.cost, 0);
  EXPECT_TRUE(r.proven);
  EXPECT_TRUE(r.paths.empty());
}

TEST(ExactAllocator, RejectsZeroRegisters) {
  const auto seq = AccessSequence::from_offsets({0});
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 0),
               dspaddr::InvalidArgument);
}

TEST(ExactAllocator, SingleRegisterCostIsForced) {
  // With K = 1 there is exactly one partition; exact == that cost.
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 1);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.cost, 5);  // 4 intra over-range steps + wrap
}

TEST(ExactAllocator, PaperExampleLadder) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const std::vector<std::pair<std::size_t, int>> ladder{
      {1, 5}, {2, 2}, {3, 0}, {7, 0}};
  for (const auto& [k, expected] : ladder) {
    const ExactResult r = exact_min_cost_allocation(seq, kM1, k);
    EXPECT_TRUE(r.proven) << "K = " << k;
    EXPECT_EQ(r.cost, expected) << "K = " << k;
    validate_allocation(seq, r.paths, k);
  }
}

TEST(ExactAllocator, HeuristicIsOptimalOnPaperExample) {
  // The two-phase heuristic hits the exact optimum on the worked
  // example for every K — the example was chosen to showcase it.
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  for (std::size_t k = 1; k <= 4; ++k) {
    ProblemConfig config;
    config.modify_range = 1;
    config.registers = k;
    const int heuristic = RegisterAllocator(config).run(seq).cost();
    const int exact = exact_min_cost_allocation(seq, kM1, k).cost;
    EXPECT_EQ(heuristic, exact) << "K = " << k;
  }
}

TEST(ExactAllocator, NodeCapDegradesGracefully) {
  support::Rng rng(5);
  eval::PatternSpec spec;
  spec.accesses = 12;
  spec.offset_range = 6;
  const auto seq = eval::generate_pattern(spec, rng);
  ExactOptions options;
  options.max_nodes = 10;  // far too small to finish
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_FALSE(r.proven);
  // Still a valid allocation (the greedy incumbent at worst) with a
  // reported anytime gap against the admissible root bound.
  validate_allocation(seq, r.paths, 3);
  EXPECT_LE(r.lower_bound, r.cost);
  EXPECT_EQ(r.gap(), r.cost - r.lower_bound);
  EXPECT_GE(r.gap(), 0);
}

TEST(ExactAllocator, ProvenResultReportsZeroGap) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 2);
  ASSERT_TRUE(r.proven);
  EXPECT_EQ(r.lower_bound, r.cost);
  EXPECT_EQ(r.gap(), 0);
}

TEST(ExactAllocator, ProvesTwentyAccessPatternsAcrossFamilies) {
  // The old incumbent-only DFS aborted on most 20-access instances;
  // the bounded search must prove all of them within the default node
  // budget (acceptance criterion of the anytime rebuild).
  const std::vector<eval::PatternFamily> families = {
      eval::PatternFamily::kUniform, eval::PatternFamily::kClustered,
      eval::PatternFamily::kStrided, eval::PatternFamily::kSortedNoise};
  for (const eval::PatternFamily family : families) {
    for (const std::size_t k : {2u, 4u}) {
      support::Rng rng(0xF00D ^ (static_cast<std::uint64_t>(family) << 8) ^
                       k);
      for (std::size_t trial = 0; trial < 3; ++trial) {
        eval::PatternSpec spec;
        spec.accesses = 20;
        spec.offset_range = 8;
        spec.family = family;
        const auto seq = eval::generate_pattern(spec, rng);
        const ExactResult r = exact_min_cost_allocation(seq, kM1, k);
        EXPECT_TRUE(r.proven)
            << eval::to_string(family) << " K=" << k << " trial " << trial;
        validate_allocation(seq, r.paths, k);
      }
    }
  }
}

TEST(ExactAllocator, WarmStartNeverWorsensAndStaysValid) {
  support::Rng rng(77);
  eval::PatternSpec spec;
  spec.accesses = 14;
  spec.offset_range = 6;
  const auto seq = eval::generate_pattern(spec, rng);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 2;
  config.phase2.mode = Phase2Options::Mode::kHeuristic;
  const Allocation heuristic = RegisterAllocator(config).run(seq);

  ExactOptions options;
  options.warm_start = heuristic.paths();
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 2, options);
  EXPECT_LE(r.cost, heuristic.cost());
  validate_allocation(seq, r.paths, 2);
}

TEST(ExactAllocator, HugeSequenceDegradesWithoutDenseBounds) {
  // Above SuffixBounds::kDenseLimit the O(N^2) tables are skipped and
  // the search must still return a valid incumbent under the node cap
  // instead of exhausting memory up front.
  support::Rng rng(8);
  eval::PatternSpec spec;
  spec.accesses = 1500;
  spec.offset_range = 50;
  const auto seq = eval::generate_pattern(spec, rng);
  ExactOptions options;
  options.max_nodes = 5'000;
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 4, options);
  EXPECT_FALSE(r.proven);
  validate_allocation(seq, r.paths, 4);
  EXPECT_EQ(r.lower_bound, 0);  // trivial bounds in effect
  EXPECT_EQ(r.gap(), r.cost);
}

TEST(ExactAllocator, RejectsMalformedWarmStart) {
  const auto seq = AccessSequence::from_offsets({0, 1, 2, 3});

  ExactOptions incomplete;
  incomplete.warm_start = {Path({0, 1})};  // misses accesses 2 and 3
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 1, incomplete),
               dspaddr::InvalidArgument);

  // Overlapping paths fill every assignment slot but double-count the
  // shared access; a cover check alone would let the double-counted
  // cost seed an unachievable incumbent.
  ExactOptions overlapping;
  overlapping.warm_start = {Path({0, 1, 2}), Path({1, 3})};
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 2, overlapping),
               dspaddr::InvalidArgument);

  ExactOptions out_of_range;
  out_of_range.warm_start = {Path({0, 1, 2, 3, 9})};
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 1, out_of_range),
               dspaddr::InvalidArgument);
}

TEST(ExactAllocator, TimeBudgetExpiryKeepsValidIncumbent) {
  // A wall-clock abort must behave exactly like the node cap: best
  // incumbent kept, proven=false, non-negative anytime gap. The
  // instance is far too hard for a 1 ms budget on any machine (the
  // clock is read every ~1024 nodes, so the search stops at the first
  // batch boundary past the deadline).
  support::Rng rng(0xBD6);
  eval::PatternSpec spec;
  spec.accesses = 64;
  spec.offset_range = 8;
  spec.family = eval::PatternFamily::kSortedNoise;
  const auto seq = eval::generate_pattern(spec, rng);
  ExactOptions options;
  options.time_budget_ms = 1;
  options.max_nodes = std::numeric_limits<std::uint64_t>::max();
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_FALSE(r.proven);
  validate_allocation(seq, r.paths, 3);
  EXPECT_EQ(total_cost(seq, r.paths, kM1), r.cost);
  EXPECT_LE(r.lower_bound, r.cost);
  EXPECT_GE(r.gap(), 0);
}

TEST(ExactAllocator, TableCapSaturationIsCountedWithoutChangingTheCost) {
  support::Rng rng(91);
  eval::PatternSpec spec;
  spec.accesses = 18;
  spec.offset_range = 8;
  const auto seq = eval::generate_pattern(spec, rng);

  const ExactResult roomy = exact_min_cost_allocation(seq, kM1, 3);
  ASSERT_TRUE(roomy.proven);
  EXPECT_EQ(roomy.table_cap_hits, 0u);

  // A 4-entry table saturates immediately; lookups past the cap are
  // counted, and the search stays exact (only less pruned).
  ExactOptions tiny;
  tiny.table_cap = 4;
  const ExactResult capped = exact_min_cost_allocation(seq, kM1, 3, tiny);
  ASSERT_TRUE(capped.proven);
  EXPECT_GT(capped.table_cap_hits, 0u);
  EXPECT_EQ(capped.cost, roomy.cost);
  EXPECT_GE(capped.nodes, roomy.nodes);
}

/// One seeded instance of the dominance-table pins below.
struct TablePin {
  std::uint64_t seed;
  std::size_t accesses;
  std::int64_t offset_range;
  std::size_t registers;
  std::size_t table_cap;
  int cost;
  std::uint64_t nodes;
  std::uint64_t table_cap_hits;
};

TEST(ExactAllocator, DominanceTablePruningIsPinned) {
  // Node counts and cap refusals of the sequential search: a key
  // collision, a missed revisit or a misplaced cap would move them.
  // Pinned at the unordered_map table the flat one replaced, then
  // re-pinned (costs unchanged) when the entry duals joined the bound
  // and again when the table began keying states by their future
  // (register_key). K = 9 runs with dominance off; table_cap = 4
  // saturates at once.
  const TablePin pins[] = {
      {201, 40, 10, 1, 0, 35, 34, 0},
      {208, 32, 12, 2, 0, 19, 1'199, 0},
      {203, 28, 10, 3, 0, 10, 2'506, 0},
      {204, 30, 10, 4, 0, 10, 9'139, 0},
      {212, 34, 24, 8, 0, 12, 1'894, 0},
      {211, 26, 20, 9, 0, 4, 4'239, 0},
      {207, 26, 10, 3, 4, 12, 9'763, 9'754},
  };
  for (const TablePin& pin : pins) {
    support::Rng rng(pin.seed);
    eval::PatternSpec spec;
    spec.accesses = pin.accesses;
    spec.offset_range = pin.offset_range;
    const auto seq = eval::generate_pattern(spec, rng);
    ExactOptions options;
    options.table_cap = pin.table_cap;
    const ExactResult r =
        exact_min_cost_allocation(seq, kM1, pin.registers, options);
    SCOPED_TRACE(::testing::Message() << "seed " << pin.seed << " K "
                                      << pin.registers);
    ASSERT_TRUE(r.proven);
    EXPECT_EQ(r.cost, pin.cost);
    EXPECT_EQ(r.nodes, pin.nodes);
    EXPECT_EQ(r.table_cap_hits, pin.table_cap_hits);
  }
}

/// A register's key word for the table tests: first << 32 | last.
std::uint64_t word(std::uint32_t first, std::uint32_t last) {
  return (static_cast<std::uint64_t>(first) << 32) | last;
}

TEST(TranspositionTable, KeysStayExactBeyondSixteenBitFields) {
  // 70,000 accesses need 32-bit fields: two states whose indices agree
  // in their low 16 bits are still different states.
  TranspositionTable table(2, 70'000, 16);
  std::uint64_t cap_hits = 0;
  const std::uint32_t high = 1u << 16;
  const std::uint64_t ends[] = {word(0, 5), word(1, high + 5)};
  const std::uint64_t aliased[] = {word(0, high + 5), word(1, 5)};
  EXPECT_FALSE(table.dominated(high + 6, ends, 2, 3, cap_hits));
  EXPECT_FALSE(table.dominated(high + 6, aliased, 2, 3, cap_hits));
  EXPECT_FALSE(table.dominated(6, ends, 2, 3, cap_hits));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.dominated(high + 6, ends, 2, 3, cap_hits));
  EXPECT_TRUE(table.dominated(high + 6, aliased, 2, 4, cap_hits));
  EXPECT_TRUE(table.dominated(6, ends, 2, 3, cap_hits));
  EXPECT_EQ(cap_hits, 0u);
}

TEST(TranspositionTable, FieldsCoverTheKeySentinels) {
  // A search over N accesses writes words up to N + 3 (the FREE and PAID
  // sentinels) and sizes its table to N + kKeySentinels. At N = 65,532
  // the largest word is 0xffff, so fields must widen to 32 bits: a used
  // register whose words are both 0xffff is not an unused one.
  const std::size_t n = 0xffff - kKeySentinels + 1;
  TranspositionTable table(1, n + kKeySentinels, 16);
  std::uint64_t cap_hits = 0;
  const std::uint64_t top[] = {word(0xffff, 0xffff)};
  EXPECT_FALSE(table.dominated(3, top, 1, 5, cap_hits));
  EXPECT_FALSE(table.dominated(3, nullptr, 0, 5, cap_hits));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.dominated(3, top, 1, 5, cap_hits));
  EXPECT_TRUE(table.dominated(3, nullptr, 0, 5, cap_hits));
}

TEST(TranspositionTable, CheaperRevisitsLowerAndTheCapStopsInsertion) {
  TranspositionTable table(3, 100, 2);
  std::uint64_t cap_hits = 0;
  const std::uint64_t one[] = {word(0, 4)};
  const std::uint64_t two[] = {word(0, 3), word(4, 4)};
  EXPECT_FALSE(table.dominated(5, one, 1, 7, cap_hits));
  EXPECT_TRUE(table.dominated(5, one, 1, 7, cap_hits));
  EXPECT_FALSE(table.dominated(5, one, 1, 6, cap_hits));  // lowered
  EXPECT_TRUE(table.dominated(5, one, 1, 6, cap_hits));
  // The same (first, last) pairs with a different register count or
  // next access are different states.
  EXPECT_FALSE(table.dominated(5, two, 2, 9, cap_hits));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.dominated(6, one, 1, 0, cap_hits));  // refused
  EXPECT_FALSE(table.dominated(6, one, 1, 0, cap_hits));  // refused again
  EXPECT_EQ(cap_hits, 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.dominated(5, two, 2, 8, cap_hits));  // still lowers
  EXPECT_TRUE(table.dominated(5, two, 2, 8, cap_hits));
  EXPECT_EQ(cap_hits, 2u);
}

TEST(TranspositionTable, GrowsPastItsFirstAllocationWithoutLosingStates) {
  TranspositionTable table(2, 1'000, 1'000'000);
  std::uint64_t cap_hits = 0;
  for (std::uint32_t last = 0; last < 999; ++last) {
    const std::uint64_t ends[] = {word(0, last), word(1, last)};
    EXPECT_FALSE(table.dominated(last + 1, ends, 2, 5, cap_hits));
  }
  EXPECT_EQ(table.size(), 999u);
  for (std::uint32_t last = 0; last < 999; ++last) {
    const std::uint64_t ends[] = {word(0, last), word(1, last)};
    EXPECT_TRUE(table.dominated(last + 1, ends, 2, 5, cap_hits));
  }
}

TEST(ExactAllocator, PinnedPrefixIsHonoredAndCosted) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  ExactOptions options;
  options.pinned_prefix = {0, 0, 1};
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 2, options);
  ASSERT_TRUE(r.proven);
  validate_allocation(seq, r.paths, 2);
  // Accesses 0 and 1 share a register; access 2 is on a different one.
  for (const Path& path : r.paths) {
    const std::vector<std::size_t>& accesses = path.indices();
    const auto has = [&accesses](std::size_t i) {
      return std::find(accesses.begin(), accesses.end(), i) !=
             accesses.end();
    };
    EXPECT_EQ(has(0), has(1));
    if (has(0)) EXPECT_FALSE(has(2));
  }
  // Pinning can only restrict the search space.
  const ExactResult free_search = exact_min_cost_allocation(seq, kM1, 2);
  EXPECT_GE(r.cost, free_search.cost);
}

TEST(ExactAllocator, FullyPinnedSequenceEvaluatesThatAssignment) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1});
  ExactOptions options;
  options.pinned_prefix = {0, 1, 0, 1};
  const ExactResult r = exact_min_cost_allocation(seq, kM1, 2, options);
  ASSERT_TRUE(r.proven);
  EXPECT_EQ(r.cost, total_cost(seq, r.paths, kM1));
  // The searched space is the single pinned assignment.
  ASSERT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.paths[0].indices(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(r.paths[1].indices(), (std::vector<std::size_t>{1, 3}));
}

TEST(ExactAllocator, RejectsMalformedPinnedPrefix) {
  const auto seq = AccessSequence::from_offsets({0, 1, 2});

  ExactOptions skips_fresh_rule;
  skips_fresh_rule.pinned_prefix = {1};  // register 1 before register 0
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 2, skips_fresh_rule),
               dspaddr::InvalidArgument);

  ExactOptions out_of_range;
  out_of_range.pinned_prefix = {0, 1, 2};  // register 2 with K = 2
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 2, out_of_range),
               dspaddr::InvalidArgument);

  ExactOptions too_long;
  too_long.pinned_prefix = {0, 0, 0, 0};
  EXPECT_THROW(exact_min_cost_allocation(seq, kM1, 2, too_long),
               dspaddr::InvalidArgument);
}

/// Oracle: full enumeration of register assignments (tiny N, small K)
/// that agree with `pinned` on its prefix.
int brute_force_min_cost(const AccessSequence& seq, const CostModel& model,
                         std::size_t k,
                         const std::vector<std::size_t>& pinned = {}) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> assignment(n, 0);
  int best = std::numeric_limits<int>::max();
  while (true) {
    if (std::equal(pinned.begin(), pinned.end(), assignment.begin())) {
      std::vector<std::vector<std::size_t>> groups(k);
      for (std::size_t i = 0; i < n; ++i) {
        groups[assignment[i]].push_back(i);
      }
      std::vector<Path> paths;
      for (auto& g : groups) {
        if (!g.empty()) paths.emplace_back(std::move(g));
      }
      best = std::min(best, total_cost(seq, paths, model));
    }
    std::size_t digit = 0;
    while (digit < n) {
      if (++assignment[digit] < k) break;
      assignment[digit] = 0;
      ++digit;
    }
    if (digit == n) break;
  }
  return best;
}

class ExactPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactPropertyTest, MatchesBruteForceEnumeration) {
  // Every input the bounds read: symmetric windows spanning the builtin
  // machine catalog (M in 1..4), asymmetric windows with extra free
  // widths, both wrap policies, and a random pinned prefix (the state a
  // tiled window or a stolen subtree starts from, where the search
  // rebuilds its residual matching). Ten draws per seed: a bound that
  // over-prunes shows only where the greedy incumbent is not optimal.
  support::Rng rng(GetParam() * 911 + 3);
  for (int draw = 0; draw < 10; ++draw) {
    const std::size_t n = 2 + rng.index(6);  // up to 7
    const std::size_t k = 1 + rng.index(3);  // up to 3
    std::vector<std::int64_t> offsets(n);
    for (auto& o : offsets) {
      o = rng.uniform_int(-4, 4);
    }
    const auto seq = AccessSequence::from_offsets(offsets);
    const WrapPolicy wrap =
        rng.bernoulli(0.25) ? WrapPolicy::kAcyclic : WrapPolicy::kCyclic;
    CostModel model{1 + rng.uniform_int(0, 3), wrap};
    if (rng.bernoulli(0.5)) {
      std::vector<std::int64_t> widths;
      for (std::int64_t w = rng.uniform_int(0, 2); w > 0; --w) {
        widths.push_back(rng.uniform_int(-6, 6));
      }
      // Upper bound first, as GCC evaluated the two draws when they
      // were arguments of one call: the same seed draws the same body
      // on every compiler.
      const std::int64_t hi = rng.uniform_int(0, 2);
      const std::int64_t lo = -rng.uniform_int(0, 2);
      model = CostModel(lo, hi, std::move(widths), wrap);
    }
    ExactOptions options;
    if (rng.bernoulli(0.5)) {
      // Fresh rule: register r first appears after registers 0..r-1.
      std::size_t opened = 0;
      for (std::size_t i = rng.index(n + 1); i > 0; --i) {
        const std::size_t reg = rng.index(std::min(opened + 1, k));
        if (reg == opened) ++opened;
        options.pinned_prefix.push_back(reg);
      }
    }

    const ExactResult r = exact_min_cost_allocation(seq, model, k, options);
    ASSERT_TRUE(r.proven) << "draw " << draw;
    EXPECT_EQ(r.cost,
              brute_force_min_cost(seq, model, k, options.pinned_prefix))
        << "draw " << draw;
    EXPECT_EQ(total_cost(seq, r.paths, model), r.cost) << "draw " << draw;
    validate_allocation(seq, r.paths, k);
  }
}

TEST_P(ExactPropertyTest, HeuristicNeverBeatsExact) {
  support::Rng rng(GetParam() * 389 + 21);
  eval::PatternSpec spec;
  spec.accesses = 6 + rng.index(8);  // up to 13
  spec.offset_range = 5;
  const auto seq = eval::generate_pattern(spec, rng);
  const std::size_t k = 1 + rng.index(3);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = k;
  const int heuristic = RegisterAllocator(config).run(seq).cost();

  const ExactResult exact = exact_min_cost_allocation(seq, kM1, k);
  ASSERT_TRUE(exact.proven);
  EXPECT_GE(heuristic, exact.cost);
}

TEST_P(ExactPropertyTest, ExactIsAtMostAllocatorAcrossMachineGrid) {
  // exact_min_cost_allocation(...).cost <= RegisterAllocator::run(...)
  // .cost() over a machines-like K x M grid, every pattern family.
  support::Rng rng(GetParam() * 677 + 5);
  eval::PatternSpec spec;
  spec.accesses = 6 + rng.index(7);  // up to 12
  spec.offset_range = 6;
  spec.family = static_cast<eval::PatternFamily>(GetParam() % 4);
  const auto seq = eval::generate_pattern(spec, rng);

  for (const std::int64_t m : {1, 2, 4}) {
    for (const std::size_t k : {1u, 2u, 4u}) {
      ProblemConfig config;
      config.modify_range = m;
      config.registers = k;
      config.phase2.mode = Phase2Options::Mode::kHeuristic;
      const int heuristic = RegisterAllocator(config).run(seq).cost();

      const CostModel model{m, WrapPolicy::kCyclic};
      const ExactResult exact = exact_min_cost_allocation(seq, model, k);
      ASSERT_TRUE(exact.proven) << "M=" << m << " K=" << k;
      EXPECT_LE(exact.cost, heuristic) << "M=" << m << " K=" << k;
      validate_allocation(seq, exact.paths, k);
    }
  }
}

TEST_P(ExactPropertyTest, PrunedSearchAgreesWithLegacyDfs) {
  // The bounds + dominance + symmetry machinery must never change the
  // proven optimum, only how fast it is reached: checked against the
  // brute-force enumerator on every pattern family. The test ID is kept
  // from when an unpruned depth-first search was the reference.
  support::Rng rng(GetParam() * 1201 + 7);
  eval::PatternSpec spec;
  spec.accesses = 6 + rng.index(6);  // up to 11: brute force still finishes
  spec.offset_range = 5;
  spec.family = static_cast<eval::PatternFamily>(GetParam() % 4);
  const auto seq = eval::generate_pattern(spec, rng);
  const std::size_t k = 1 + rng.index(3);

  const ExactResult pruned = exact_min_cost_allocation(seq, kM1, k);
  ASSERT_TRUE(pruned.proven);
  EXPECT_EQ(pruned.cost, brute_force_min_cost(seq, kM1, k));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExactPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 30));

/// Oracle for bodies too long for brute_force_min_cost: a depth-first
/// enumeration of the fresh-rule assignments that agree with `pinned`,
/// cut only where the partial cost alone reaches the best leaf. It
/// reads the cost model and nothing of the search's bounds.
struct Enumeration {
  const AccessSequence& seq;
  const CostModel& model;
  std::size_t registers;
  const std::vector<std::size_t>& pinned;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> lasts;
  int best = std::numeric_limits<int>::max();

  void extend(std::size_t access, int cost) {
    if (cost >= best) return;
    if (access == seq.size()) {
      for (std::size_t r = 0; r < firsts.size(); ++r) {
        cost += wrap_transition_cost(seq, lasts[r], firsts[r], model);
      }
      best = std::min(best, cost);
      return;
    }
    const bool is_pinned = access < pinned.size();
    const std::size_t top = std::min(firsts.size(), registers - 1);
    for (std::size_t r = is_pinned ? pinned[access] : 0;
         r <= (is_pinned ? pinned[access] : top); ++r) {
      if (r == firsts.size()) {
        firsts.push_back(access);
        lasts.push_back(access);
        extend(access + 1, cost);
        firsts.pop_back();
        lasts.pop_back();
      } else {
        const std::size_t previous = lasts[r];
        lasts[r] = access;
        extend(access + 1,
               cost + intra_transition_cost(seq, previous, access, model));
        lasts[r] = previous;
      }
    }
  }
};

int enumerated_min_cost(const AccessSequence& seq, const CostModel& model,
                        std::size_t registers,
                        const std::vector<std::size_t>& pinned) {
  Enumeration enumeration{seq, model, registers, pinned, {}, {}};
  enumeration.extend(0, 0);
  return enumeration.best;
}

TEST(ExactAllocator, EntryDualsBuiltAtTheFirstCheckpointKeepTheOptimum) {
  // Bodies of 21 or 22 accesses whose search runs past its first
  // 1024-node checkpoint, where it solves the entry assignment for its
  // start state and walks the dual sum down the current path. Three
  // start from a nontrivial pinned prefix. The proven cost is the
  // enumerated optimum, sequentially and at jobs = 2. Each body needs
  // 9,775 to 19,226 nodes today, at least 9.5 times the checkpoint, so
  // a pruning gain has to cut a body's tree by that factor before the
  // premise `nodes > 1024` fails. They are the 6 of seeds 1 to 1,500
  // that need more than 8,192 nodes and that the enumeration proves in
  // under a second each in a Release build.
  for (const std::uint64_t seed : {347, 652, 714, 772, 1376, 1401}) {
    support::Rng rng(seed * 31 + 7);
    eval::PatternSpec spec;
    spec.accesses = 20 + rng.index(3);
    spec.offset_range = static_cast<std::int64_t>(5 + rng.index(8));
    spec.family = static_cast<eval::PatternFamily>(seed % 4);
    const auto seq = eval::generate_pattern(spec, rng);
    const std::size_t k = 3 + rng.index(2);
    ExactOptions options;
    if (rng.bernoulli(0.5)) {
      std::size_t opened = 0;
      for (std::size_t i = 1 + rng.index(3); i > 0; --i) {
        const std::size_t reg = rng.index(std::min(opened + 1, k));
        if (reg == opened) ++opened;
        options.pinned_prefix.push_back(reg);
      }
    }
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ", N " << seq.size() << ", K " << k
                 << ", pinned " << options.pinned_prefix.size());
    const ExactResult r = exact_min_cost_allocation(seq, kM1, k, options);
    ASSERT_TRUE(r.proven);
    EXPECT_GT(r.nodes, 1024u);
    EXPECT_EQ(r.cost,
              enumerated_min_cost(seq, kM1, k, options.pinned_prefix));
    EXPECT_EQ(total_cost(seq, r.paths, kM1), r.cost);

    options.jobs = 2;
    const ExactResult parallel =
        exact_min_cost_allocation(seq, kM1, k, options);
    ASSERT_TRUE(parallel.proven);
    EXPECT_EQ(parallel.cost, r.cost);
  }
}

TEST(ExactAllocator, EntryDualsStopAboveTheirSizeLimit) {
  // A 140-access sorted-noise body at K = 2, pinned so that kMaxRows +
  // 1 accesses stay unassigned, keeps the matching bound alone: it
  // walks the tree the search walked before the entry duals existed
  // (5,760 nodes with states keyed by their future; 22,729 with raw
  // indices). With one access fewer to assign the run builds them and
  // proves the same cost in 2,537 nodes (4,701 with raw indices).
  static_assert(EntryDuals::kMaxRows == 128,
                "the node counts below are pinned at kMaxRows = 128");
  support::Rng rng(575);
  eval::PatternSpec spec;
  spec.accesses = 129 + rng.index(12);
  spec.offset_range = static_cast<std::int64_t>(2 + rng.index(6));
  spec.family = eval::PatternFamily::kSortedNoise;
  const auto seq = eval::generate_pattern(spec, rng);
  const std::size_t k = 2 + rng.index(3);
  ASSERT_EQ(seq.size(), 140u);
  ASSERT_EQ(k, 2u);

  ExactOptions above;
  above.pinned_prefix.assign(seq.size() - (EntryDuals::kMaxRows + 1), 0);
  const ExactResult skipped = exact_min_cost_allocation(seq, kM1, k, above);
  ASSERT_TRUE(skipped.proven);
  EXPECT_EQ(skipped.cost, 13);
  EXPECT_EQ(skipped.nodes, 5'760u);

  ExactOptions at_limit;
  at_limit.pinned_prefix.assign(seq.size() - EntryDuals::kMaxRows, 0);
  const ExactResult built = exact_min_cost_allocation(seq, kM1, k, at_limit);
  ASSERT_TRUE(built.proven);
  EXPECT_EQ(built.cost, 13);
  EXPECT_EQ(built.nodes, 2'537u);
}

}  // namespace
}  // namespace dspaddr::core
