// The tiled solver is the middle rung of the anytime ladder: exact per
// window, heuristic across boundaries, a full proof when one window
// covers the sequence. These tests pin the ladder ordering, the
// stitching validity, and the per-window stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/exact.hpp"
#include "core/tiled.hpp"
#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::AccessSequence;

const CostModel kM1{1, WrapPolicy::kCyclic};

AccessSequence pattern(std::size_t accesses, std::uint64_t seed) {
  support::Rng rng(seed);
  eval::PatternSpec spec;
  spec.accesses = accesses;
  spec.offset_range = 8;
  spec.family = eval::PatternFamily::kSortedNoise;
  return eval::generate_pattern(spec, rng);
}

TEST(Tiled, SingleWindowIsAFullProofMatchingExact) {
  const AccessSequence seq = pattern(14, 21);
  TiledOptions options;
  options.tile_width = 32;  // wider than the sequence: one window
  const TiledResult tiled = tiled_min_cost_allocation(seq, kM1, 3, options);
  const ExactResult exact = exact_min_cost_allocation(seq, kM1, 3);
  ASSERT_TRUE(exact.proven);
  EXPECT_TRUE(tiled.proven);
  EXPECT_EQ(tiled.windows, 1u);
  EXPECT_EQ(tiled.windows_proven, 1u);
  EXPECT_EQ(tiled.cost, exact.cost);
  validate_allocation(seq, tiled.paths, 3);
}

TEST(Tiled, MultiWindowStitchingIsValidAndCosted) {
  const AccessSequence seq = pattern(60, 23);
  TiledOptions options;
  options.tile_width = 16;
  options.tile_overlap = 4;
  const TiledResult r = tiled_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_GT(r.windows, 1u);
  EXPECT_FALSE(r.proven);  // stitched, not globally proven
  validate_allocation(seq, r.paths, 3);
  EXPECT_EQ(total_cost(seq, r.paths, kM1), r.cost);
  EXPECT_LE(r.windows_proven, r.windows);
}

TEST(Tiled, LadderOrderingHeuristicTiledExact) {
  // heuristic >= tiled (>= exact when it proves): each rung spends
  // more search and may only improve the cost.
  const AccessSequence seq = pattern(48, 29);
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 3;

  config.phase2.mode = Phase2Options::Mode::kHeuristic;
  const Allocation heuristic = RegisterAllocator(config).run(seq);

  config.phase2.mode = Phase2Options::Mode::kTiled;
  const Allocation tiled = RegisterAllocator(config).run(seq);

  EXPECT_LE(tiled.cost(), heuristic.cost());
  EXPECT_GT(tiled.stats().phase2_windows, 0u);
}

TEST(Tiled, AllocatorSurfacesWindowStats) {
  const AccessSequence seq = pattern(40, 31);
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 3;
  config.phase2.mode = Phase2Options::Mode::kTiled;
  config.phase2.tile_width = 12;
  config.phase2.tile_overlap = 3;
  const Allocation a = RegisterAllocator(config).run(seq);
  const AllocationStats& stats = a.stats();
  EXPECT_GT(stats.phase2_windows, 1u);
  EXPECT_LE(stats.phase2_windows_proven, stats.phase2_windows);
}

/// The first `accesses` of the 3x3 stencil body unrolled x8
/// (workloads/stencil3x3_unroll8.kern) under the contiguous layout:
/// array a at 0, array b at 192, every access advancing by 8.
AccessSequence stencil_prefix(std::size_t accesses) {
  std::vector<ir::Access> body;
  for (std::int64_t copy = 0; copy < 8; ++copy) {
    for (const std::int64_t row : {0, 64, 128}) {
      for (std::int64_t col = 0; col < 3; ++col) {
        body.push_back(ir::Access{row + col + copy, 8});
      }
    }
    body.push_back(ir::Access{192 + copy, 8});
  }
  body.resize(accesses);
  return AccessSequence(std::move(body));
}

TEST(Tiled, MultiWindowAnswerStatesTheWholeBodyBound) {
  const AccessSequence seq = stencil_prefix(56);
  const ExactResult exact = exact_min_cost_allocation(seq, kM1, 3);
  ASSERT_TRUE(exact.proven);
  ASSERT_EQ(exact.cost, 8);

  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 3;
  config.phase2.mode = Phase2Options::Mode::kTiled;
  const Allocation tiled = RegisterAllocator(config).run(seq);
  const AllocationStats& stats = tiled.stats();
  ASSERT_GT(stats.phase2_windows, 1u);
  EXPECT_FALSE(stats.phase2_proven);
  // The whole-body bound, not the sum of per-window gaps: admissible
  // against the proven optimum, and the gap is measured against it.
  EXPECT_GT(stats.phase2_lower_bound, 0);
  EXPECT_LE(stats.phase2_lower_bound, exact.cost);
  EXPECT_EQ(stats.phase2_gap, tiled.cost() - stats.phase2_lower_bound);
}

TEST(Tiled, RegisterCountIsClampedToTheSequenceLength) {
  // No allocation uses more registers than accesses, so any K >= N
  // answers like K = N, and a huge K costs no O(K) tables or scans.
  const AccessSequence seq = pattern(40, 41);
  TiledOptions options;
  options.tile_width = 12;
  const TiledResult at_n =
      tiled_min_cost_allocation(seq, kM1, seq.size(), options);
  const TiledResult at_max = tiled_min_cost_allocation(
      seq, kM1, std::numeric_limits<std::size_t>::max(), options);
  ASSERT_GT(at_n.windows, 1u);
  EXPECT_EQ(at_max.paths, at_n.paths);
  EXPECT_EQ(at_max.cost, at_n.cost);
  EXPECT_EQ(at_max.nodes, at_n.nodes);
}

TEST(Tiled, WholeBodyBoundDoesNotNarrowALargeRegisterCount) {
  // K = 2^32 + 1 would read as K = 1 if narrowed to int; at K >= N the
  // whole-body bound is 0.
  const AccessSequence seq = stencil_prefix(56);
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = (std::size_t{1} << 32) + 1;
  config.phase2.mode = Phase2Options::Mode::kTiled;
  config.phase2.tile_width = 12;
  const Allocation tiled = RegisterAllocator(config).run(seq);
  EXPECT_EQ(tiled.stats().phase2_lower_bound, 0);
  EXPECT_EQ(tiled.stats().phase2_gap, tiled.cost());
}

TEST(Tiled, FixedSweepReportsTheConstantWindowWidths) {
  const AccessSequence seq = pattern(60, 43);
  TiledOptions options;
  options.tile_width = 16;
  options.tile_overlap = 4;
  const TiledResult r = tiled_min_cost_allocation(seq, kM1, 3, options);
  ASSERT_EQ(r.window_widths.size(), r.windows);
  ASSERT_GT(r.windows, 1u);
  // Every window is tile_width wide except possibly the final stub.
  for (std::size_t w = 0; w + 1 < r.window_widths.size(); ++w) {
    EXPECT_EQ(r.window_widths[w], 16u) << "window " << w;
  }
  EXPECT_LE(r.window_widths.back(), 16u);
}

TEST(Tiled, AutoWidthSweepIsValidAndRecordsItsDecisions) {
  const AccessSequence seq = pattern(70, 47);
  TiledOptions options;
  options.tile_width = 12;
  options.tile_overlap = 4;
  options.auto_width = true;
  options.min_width = 10;
  options.max_width = 24;
  const TiledResult r = tiled_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_GT(r.windows, 1u);
  ASSERT_EQ(r.window_widths.size(), r.windows);
  for (const std::size_t width : r.window_widths) {
    EXPECT_LE(width, 24u);
    EXPECT_GE(width, 2u);
  }
  validate_allocation(seq, r.paths, 3);
  EXPECT_EQ(total_cost(seq, r.paths, kM1), r.cost);
}

TEST(Tiled, AutoWidthIsDeterministicWithoutAClock) {
  // With no wall budget and one worker the tuner's inputs (nodes per
  // window, proof status) are pure functions of the problem, so two
  // sweeps make identical decisions.
  const AccessSequence seq = pattern(64, 53);
  TiledOptions options;
  options.tile_width = 12;
  options.tile_overlap = 4;
  options.auto_width = true;
  const TiledResult first = tiled_min_cost_allocation(seq, kM1, 3, options);
  const TiledResult second = tiled_min_cost_allocation(seq, kM1, 3, options);
  EXPECT_EQ(first.window_widths, second.window_widths);
  EXPECT_EQ(first.cost, second.cost);
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.windows_proven, second.windows_proven);
}

TEST(Tiled, AutoWidthNarrowsWhenWindowsStopProving) {
  // A starving node budget leaves windows unproven; the tuner must
  // react by narrowing toward min_width, never below it.
  const AccessSequence seq = pattern(80, 59);
  TiledOptions options;
  options.tile_width = 24;
  options.tile_overlap = 4;
  options.auto_width = true;
  options.min_width = 10;
  options.max_width = 32;
  options.max_nodes = 300;  // a handful of nodes per window
  const TiledResult r = tiled_min_cost_allocation(seq, kM1, 3, options);
  ASSERT_GT(r.windows, 1u);
  ASSERT_EQ(r.window_widths.size(), r.windows);
  EXPECT_LT(r.windows_proven, r.windows);
  // The opening window cannot prove 24 accesses on ~75 nodes, so the
  // very next window must already be narrower (and the tuner never
  // exceeds max_width anywhere).
  EXPECT_LT(r.window_widths[1], r.window_widths[0]);
  for (const std::size_t width : r.window_widths) {
    EXPECT_LE(width, 32u);
  }
  validate_allocation(seq, r.paths, 3);
}

TEST(Tiled, AllocatorSurfacesAutoWindowWidths) {
  const AccessSequence seq = pattern(56, 61);
  ProblemConfig config;
  config.modify_range = 1;
  config.registers = 3;
  config.phase2.mode = Phase2Options::Mode::kTiled;
  config.phase2.tile_width = 12;
  config.phase2.tile_overlap = 3;
  config.phase2.tile_width_auto = true;
  const Allocation a = RegisterAllocator(config).run(seq);
  const AllocationStats& stats = a.stats();
  EXPECT_GT(stats.phase2_windows, 1u);
  EXPECT_EQ(stats.phase2_window_widths.size(), stats.phase2_windows);
}

TEST(Tiled, AutoWidthRejectsInvertedBounds) {
  const AccessSequence seq = pattern(20, 67);
  TiledOptions options;
  options.auto_width = true;
  options.min_width = 24;
  options.max_width = 12;
  EXPECT_THROW(tiled_min_cost_allocation(seq, kM1, 3, options),
               dspaddr::InvalidArgument);
}

TEST(Tiled, RejectsDegenerateOptions) {
  const AccessSequence seq = pattern(10, 41);
  TiledOptions narrow;
  narrow.tile_width = 1;
  EXPECT_THROW(tiled_min_cost_allocation(seq, kM1, 2, narrow),
               dspaddr::InvalidArgument);
  TiledOptions fat_overlap;
  fat_overlap.tile_width = 8;
  fat_overlap.tile_overlap = 8;
  EXPECT_THROW(tiled_min_cost_allocation(seq, kM1, 2, fat_overlap),
               dspaddr::InvalidArgument);
  const TiledOptions defaults;
  EXPECT_THROW(tiled_min_cost_allocation(seq, kM1, 0, defaults),
               dspaddr::InvalidArgument);
}

}  // namespace
}  // namespace dspaddr::core
