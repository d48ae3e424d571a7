#include "core/phase1.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/exact.hpp"
#include "core/validate.hpp"
#include "eval/patterns.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {
namespace {

using ir::Access;
using ir::AccessSequence;

void expect_zero_cost_cover(const AccessSequence& seq,
                            const CostModel& model,
                            const std::vector<Path>& cover) {
  validate_allocation(seq, cover, cover.size());
  EXPECT_EQ(total_cost(seq, cover, model), 0);
}

TEST(Phase1, EmptySequenceNeedsNoRegisters) {
  const SuffixBounds g(AccessSequence{}, CostModel{1, WrapPolicy::kCyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde, std::size_t{0});
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.cover.empty());
}

TEST(Phase1, SingleAccessNeedsOneRegister) {
  const auto seq = AccessSequence::from_offsets({5});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde, std::size_t{1});
  expect_zero_cost_cover(seq, g.model(), r.cover);
}

TEST(Phase1, MonotoneRampIsOneRegister) {
  const auto seq = AccessSequence::from_offsets({0, 1, 2, 3, 4});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kAcyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde, std::size_t{1});
  EXPECT_TRUE(r.exact);
}

TEST(Phase1, PaperExampleAcyclicNeedsTwoRegisters) {
  // Cover {(a_1,a_3,a_5,a_6), (a_2,a_4,a_7)} shows 2 suffice when the
  // loop back-edge is not charged; the matching bound shows 2 are
  // necessary.
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kAcyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde, std::size_t{2});
  EXPECT_EQ(r.lower_bound, 2u);
  EXPECT_TRUE(r.exact);
  expect_zero_cost_cover(seq, g.model(), r.cover);
}

TEST(Phase1, PaperExampleCyclicNeedsThreeRegisters) {
  // With the steady-state wrap charged, any path containing a_7 other
  // than the singleton cannot close for free, and the remaining six
  // accesses admit no single zero-cost cyclic path; three registers
  // (e.g. (a_1,a_3,a_5), (a_2,a_4,a_6), (a_7)) are optimal.
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde, std::size_t{3});
  EXPECT_TRUE(r.exact);
  expect_zero_cost_cover(seq, g.model(), r.cover);
  EXPECT_GE(*r.k_tilde, r.lower_bound);
}

TEST(Phase1, GreedyUpperBoundIsValidCover) {
  const auto seq = AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  const auto greedy = greedy_zero_cost_cover(g);
  ASSERT_TRUE(greedy.has_value());
  expect_zero_cost_cover(seq, g.model(), *greedy);
}

TEST(Phase1, LongBodiesKeepTheGreedyCoverWithoutSearching) {
  // Above kPhase1SearchAccessLimit accesses phase 1 runs no search: the
  // greedy cover stands, unproven where it misses the matching bound.
  support::Rng rng(17);
  eval::PatternSpec spec;
  spec.accesses = kPhase1SearchAccessLimit + 12;
  spec.offset_range = 8;
  const auto seq = eval::generate_pattern(spec, rng);
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.search_nodes, 0u);
  ASSERT_TRUE(r.k_tilde.has_value());
  EXPECT_EQ(r.k_tilde, r.upper_bound);
  ASSERT_GT(*r.k_tilde, r.lower_bound);  // only a search could settle it
  EXPECT_FALSE(r.exact);
  expect_zero_cost_cover(seq, g.model(), r.cover);
}

TEST(Phase1, StrideBeyondRangeMakesZeroCostInfeasible) {
  // Every access advances by 3 per iteration but M = 1: even singleton
  // paths cost one update, so no zero-cost cover exists. The cycle-cover
  // test proves that without a search, also above the search cut-off.
  for (const std::size_t n : {std::size_t{3}, kPhase1SearchAccessLimit + 12}) {
    std::vector<std::int64_t> offsets(n);
    for (std::size_t i = 0; i < n; ++i) {
      offsets[i] = 10 * static_cast<std::int64_t>(i);
    }
    const auto seq = AccessSequence::from_offsets(offsets, 3);
    const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
    const Phase1Result r = compute_min_register_cover(g);
    EXPECT_FALSE(r.k_tilde.has_value()) << "N = " << n;
    EXPECT_TRUE(r.exact) << "N = " << n;
    EXPECT_EQ(r.search_nodes, 0u) << "N = " << n;
    // Fallback cover still covers everything.
    validate_allocation(seq, r.cover, r.cover.size());
  }
}

TEST(Phase1, LargeStrideCanStillCloseInPairs) {
  // Stride 2, M = 1: singletons cost (distance 2), but a pair with
  // offsets o and o+1 closes: wrap distance = o + 2 - (o+1) = 1.
  const auto seq = AccessSequence::from_offsets({0, 1}, 2);
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});
  const Phase1Result r = compute_min_register_cover(g);
  ASSERT_TRUE(r.k_tilde.has_value());
  EXPECT_EQ(*r.k_tilde, 1u);
  expect_zero_cost_cover(seq, g.model(), r.cover);
}

TEST(Phase1, WiderModifyRangeNeverNeedsMoreRegisters) {
  const auto seq = AccessSequence::from_offsets({3, -1, 4, 1, -5, 9, 2, -6});
  std::size_t previous = seq.size() + 1;
  for (std::int64_t m : {1, 2, 4, 8, 16}) {
    const SuffixBounds g(seq, CostModel{m, WrapPolicy::kCyclic});
    const Phase1Result r = compute_min_register_cover(g);
    ASSERT_TRUE(r.k_tilde.has_value()) << "M = " << m;
    EXPECT_LE(*r.k_tilde, previous) << "M = " << m;
    previous = *r.k_tilde;
  }
}

/// Oracle: exact minimum zero-cost cyclic cover by exhaustive
/// assignment (tiny N).
std::optional<std::size_t> brute_force_k_tilde(const AccessSequence& seq,
                                               const CostModel& model) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> assignment(n, 0);
  std::optional<std::size_t> best;
  while (true) {
    std::vector<std::vector<std::size_t>> groups(n);
    for (std::size_t i = 0; i < n; ++i) {
      groups[assignment[i]].push_back(i);
    }
    std::vector<Path> paths;
    for (auto& group : groups) {
      if (!group.empty()) paths.emplace_back(std::move(group));
    }
    if (total_cost(seq, paths, model) == 0) {
      if (!best.has_value() || paths.size() < *best) best = paths.size();
    }
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

/// A random body of up to 7 accesses with one stride in 1..3 and
/// M in 1..2: strides above M leave the greedy without a cover, so the
/// cycle-cover test and the search alone decide whether any zero-cost
/// cover exists.
struct SmallBody {
  AccessSequence seq;
  CostModel model;
};

SmallBody small_body(support::Rng& rng) {
  const std::size_t n = 2 + rng.index(6);
  std::vector<std::int64_t> offsets(n);
  for (auto& o : offsets) {
    o = rng.uniform_int(-4, 4);
  }
  const std::int64_t stride = rng.uniform_int(1, 3);
  return SmallBody{AccessSequence::from_offsets(offsets, stride),
                   CostModel{1 + rng.uniform_int(0, 1), WrapPolicy::kCyclic}};
}

class Phase1PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Phase1PropertyTest, BranchAndBoundMatchesBruteForce) {
  support::Rng rng(GetParam());
  const auto [seq, model] = small_body(rng);
  const SuffixBounds g(seq, model);

  const Phase1Result r = compute_min_register_cover(g);
  const auto oracle = brute_force_k_tilde(seq, model);

  ASSERT_TRUE(r.exact);
  ASSERT_EQ(r.k_tilde.has_value(), oracle.has_value());
  if (oracle.has_value()) {
    EXPECT_EQ(*r.k_tilde, *oracle);
    expect_zero_cost_cover(seq, model, r.cover);
    EXPECT_GE(*r.k_tilde, r.lower_bound);
    if (r.upper_bound.has_value()) {
      EXPECT_LE(*r.k_tilde, *r.upper_bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, Phase1PropertyTest,
                         ::testing::Range<std::uint64_t>(0, 60));

class ZeroCostCoverPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroCostCoverPropertyTest, FindsACoverIffOneFitsInKRegisters) {
  support::Rng rng(GetParam() * 7907 + 3);
  const auto [seq, model] = small_body(rng);
  const auto oracle = brute_force_k_tilde(seq, model);

  for (std::size_t k = 1; k <= seq.size(); ++k) {
    const ZeroCostCover r = zero_cost_cover(seq, model, k, kPhase1NodeBudget);
    ASSERT_TRUE(r.proven) << "k = " << k;
    ASSERT_EQ(r.paths.has_value(), oracle.has_value() && *oracle <= k)
        << "k = " << k;
    if (r.paths.has_value()) {
      EXPECT_LE(r.paths->size(), k);
      validate_allocation(seq, *r.paths, k);
      EXPECT_EQ(total_cost(seq, *r.paths, model), 0) << "k = " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ZeroCostCoverPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 40));

/// One body of the stride-2 set: N offsets drawn uniformly from
/// [-r, r] by support::Rng(1000 r + 10 N + K), stride 2, M = 1,
/// cyclic. Strides above M leave the greedy without a cover, so phase
/// 1 rests on its cycle-cover test and the exact search. K only seeds
/// the draw (phase 1 never reads it). The pinned node counts bound the
/// search's work deterministically, unlike a wall-clock limit. Every
/// body but one has no zero-cost cover, and the cycle-cover test
/// decides that with no search; three of them used to exhaust the
/// 500,000-node budget. The residual matching bound does not help
/// here: these bodies fail on wraps, not on intra edges. The one body
/// with a cover still searches.
struct StrideTwoBody {
  std::int64_t r;
  std::size_t n;
  std::size_t k;
  std::size_t k_tilde;  ///< kNone when no zero-cost cover is known
  bool exact;
  std::uint64_t nodes;
};

constexpr std::size_t kNone = 0;

// Without this gtest names each case by the struct's raw bytes.
void PrintTo(const StrideTwoBody& body, std::ostream* os) {
  *os << "r=" << body.r << " N=" << body.n << " K=" << body.k;
}

constexpr StrideTwoBody kStrideTwoBodies[] = {
    {4, 16, 2, kNone, true, 0},
    {4, 16, 3, kNone, true, 0},
    {4, 16, 4, kNone, true, 0},
    {4, 20, 2, kNone, true, 0},
    {4, 20, 3, kNone, true, 0},
    {4, 20, 4, kNone, true, 0},
    {4, 24, 2, 4, true, 3326},
    {4, 24, 3, kNone, true, 0},
    {4, 24, 4, kNone, true, 0},
    {4, 28, 2, kNone, true, 0},
    {4, 28, 3, kNone, true, 0},
    {4, 28, 4, kNone, true, 0},
    {8, 16, 2, kNone, true, 0},
    {8, 16, 3, kNone, true, 0},
    {8, 16, 4, kNone, true, 0},
    {8, 20, 2, kNone, true, 0},
    {8, 20, 3, kNone, true, 0},
    {8, 20, 4, kNone, true, 0},
    {8, 24, 2, kNone, true, 0},
    {8, 24, 3, kNone, true, 0},
    {8, 24, 4, kNone, true, 0},
    {8, 28, 2, kNone, true, 0},
    {8, 28, 3, kNone, true, 0},
    {8, 28, 4, kNone, true, 0},
    {16, 16, 2, kNone, true, 0},
    {16, 16, 3, kNone, true, 0},
    {16, 16, 4, kNone, true, 0},
    {16, 20, 2, kNone, true, 0},
    {16, 20, 3, kNone, true, 0},
    {16, 20, 4, kNone, true, 0},
    {16, 24, 2, kNone, true, 0},
    {16, 24, 3, kNone, true, 0},
    {16, 24, 4, kNone, true, 0},
    {16, 28, 2, kNone, true, 0},
    {16, 28, 3, kNone, true, 0},
    {16, 28, 4, kNone, true, 0},
};

class Phase1StrideTwoTest : public ::testing::TestWithParam<StrideTwoBody> {};

TEST_P(Phase1StrideTwoTest, PinsNodesAndExactFlag) {
  const StrideTwoBody& body = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(1000 * body.r) + 10 * body.n +
                   body.k);
  std::vector<std::int64_t> offsets(body.n);
  for (auto& o : offsets) {
    o = rng.uniform_int(-body.r, body.r);
  }
  const auto seq = AccessSequence::from_offsets(offsets, 2);
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});

  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_LE(r.search_nodes, kPhase1NodeBudget);
  EXPECT_EQ(r.search_nodes, body.nodes);
  EXPECT_EQ(r.exact, body.exact);
  EXPECT_EQ(r.k_tilde.value_or(kNone), body.k_tilde);
  if (r.k_tilde.has_value()) {
    expect_zero_cost_cover(seq, g.model(), r.cover);
  } else {
    validate_allocation(seq, r.cover, r.cover.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrideTwoSet, Phase1StrideTwoTest, ::testing::ValuesIn(kStrideTwoBodies),
    [](const ::testing::TestParamInfo<StrideTwoBody>& info) {
      return "r" + std::to_string(info.param.r) + "_n" +
             std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

/// The bodies of Phase1PinTest: N offsets drawn from [-r, r] (r itself
/// drawn in 2..10) by support::Rng(seed).
///  * kAcyclic: unit stride, M in 1..2, the acyclic model;
///  * kUnit: unit stride, M in 1..2, the cyclic model;
///  * kStrideTwo: stride 2, M = 1, so the greedy finds no cover;
///  * kWindow: strides 1 or 2 and a window [lo, hi] with up to two
///    extra free widths.
enum class Shape { kAcyclic, kUnit, kStrideTwo, kWindow };

struct PinBody {
  AccessSequence seq;
  CostModel model;
};

PinBody pin_body(Shape shape, std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  const std::int64_t r = rng.uniform_int(2, 10);
  std::vector<Access> accesses(n);
  for (auto& access : accesses) {
    access.offset = rng.uniform_int(-r, r);
    access.stride = shape == Shape::kStrideTwo ? 2
                    : shape == Shape::kWindow  ? rng.uniform_int(1, 2)
                                               : 1;
  }
  CostModel model{1 + rng.uniform_int(0, 1), WrapPolicy::kCyclic};
  if (shape == Shape::kAcyclic) model.wrap = WrapPolicy::kAcyclic;
  if (shape == Shape::kStrideTwo) model = CostModel{1, WrapPolicy::kCyclic};
  if (shape == Shape::kWindow) {
    std::vector<std::int64_t> widths;
    for (std::int64_t w = rng.uniform_int(0, 2); w > 0; --w) {
      widths.push_back(rng.uniform_int(-5, 5));
    }
    // Two statements: argument evaluation order is unspecified.
    const std::int64_t hi = rng.uniform_int(0, 2);
    const std::int64_t lo = -rng.uniform_int(0, 2);
    model = CostModel(lo, hi, std::move(widths));
  }
  return PinBody{AccessSequence(std::move(accesses)), model};
}

/// FNV-1a over every path's access indices (each plus one), a zero
/// closing each path.
std::uint64_t cover_hash(const std::vector<Path>& cover) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  for (const Path& path : cover) {
    for (std::size_t i = 0; i < path.size(); ++i) mix(path[i] + 1);
    mix(0);
  }
  return hash;
}

/// One pinned phase-1 answer: kNone stands for "no K~" and "no greedy
/// upper bound".
struct Phase1Pin {
  Shape shape;
  std::size_t n;
  std::uint64_t seed;
  std::size_t k_tilde;
  std::size_t lower_bound;
  std::size_t upper_bound;
  std::size_t cover_paths;
  bool exact;
  std::uint64_t nodes;
  std::uint64_t cover_hash;
};

std::string shape_name(Shape shape) {
  switch (shape) {
    case Shape::kAcyclic:
      return "acyclic";
    case Shape::kUnit:
      return "unit";
    case Shape::kStrideTwo:
      return "stride2";
    case Shape::kWindow:
      return "window";
  }
  return "unknown";
}

void PrintTo(const Phase1Pin& pin, std::ostream* os) {
  *os << "N=" << pin.n << " seed=" << pin.seed;
}

// Every branch of compute_min_register_cover: the acyclic matching
// cover; a greedy cover that meets the matching bound; the search at
// N <= 28; the unsearched greedy cover above 28; the sparse table above
// 512; no greedy cover with and without a cycle cover; and a cycle
// cover above 28, where the acyclic cover stands unproven.
constexpr Phase1Pin kPhase1Pins[] = {
    // The acyclic model, dense and sparse.
    {Shape::kAcyclic, 4, 104, 2, 2, 2, 2, true, 0, 0x0bf54c1c3156f47b},
    {Shape::kAcyclic, 7, 107, 3, 3, 3, 3, true, 0, 0x0a38c5a043aa2b71},
    {Shape::kAcyclic, 12, 112, 4, 4, 4, 4, true, 0, 0x473b47931b91a637},
    {Shape::kAcyclic, 20, 120, 4, 4, 4, 4, true, 0, 0x040985f54c4d6133},
    {Shape::kAcyclic, 28, 128, 6, 6, 6, 6, true, 0, 0x072cb0e6f9edcc57},
    {Shape::kAcyclic, 45, 145, 2, 2, 2, 2, true, 0, 0x556f08329bd6b85c},
    {Shape::kAcyclic, 600, 700, 3, 3, 3, 3, true, 0, 0xe29388b0a02b3e85},
    {Shape::kAcyclic, 16, 7, 5, 5, 5, 5, true, 0, 0x3644b34770f7d2e3},
    // Unit stride: greedy or searched up to N = 28, greedy above it.
    {Shape::kUnit, 3, 203, 2, 2, 2, 2, true, 0, 0xb7f6a4c7aa77ee4d},
    {Shape::kUnit, 5, 205, 4, 2, 4, 4, true, 4, 0x66981f26773a8646},
    {Shape::kUnit, 8, 208, 4, 4, 4, 4, true, 0, 0x5126671fd62bcb7d},
    {Shape::kUnit, 10, 210, 6, 6, 6, 6, true, 0, 0xe39630abc8f39f6a},
    {Shape::kUnit, 12, 212, 9, 5, 10, 9, true, 74, 0xa960be121a264b79},
    {Shape::kUnit, 14, 214, 3, 2, 4, 3, true, 106, 0x552d8336a17fdf74},
    {Shape::kUnit, 16, 216, 7, 6, 7, 7, true, 14, 0x30c9f05739efb4ff},
    {Shape::kUnit, 18, 218, 2, 2, 2, 2, true, 0, 0x780d78cffbbc33ec},
    {Shape::kUnit, 20, 220, 4, 4, 4, 4, true, 0, 0xfe1cf1ebf1e96047},
    {Shape::kUnit, 22, 222, 5, 5, 5, 5, true, 0, 0x1ba2005a50fd9b0a},
    {Shape::kUnit, 24, 224, 4, 3, 5, 4, true, 1495, 0x87705610e41717b7},
    {Shape::kUnit, 26, 226, 4, 4, 4, 4, true, 0, 0x23b003c4395453b2},
    {Shape::kUnit, 28, 228, 3, 3, 3, 3, true, 0, 0x86f659825e014749},
    {Shape::kUnit, 16, 916, 8, 8, 8, 8, true, 0, 0x365a1ee29d1be487},
    {Shape::kUnit, 20, 920, 5, 5, 5, 5, true, 0, 0x400765a714dbb49b},
    {Shape::kUnit, 24, 924, 2, 2, 3, 2, true, 25, 0xf6a70378d4307dc9},
    {Shape::kUnit, 28, 928, 2, 2, 2, 2, true, 0, 0x3cc251cdc5ab6d6b},
    {Shape::kUnit, 29, 229, 7, 6, 7, 7, false, 0, 0x4da7fe624cb4df2c},
    {Shape::kUnit, 40, 240, 5, 4, 5, 5, false, 0, 0x79f7b75fdc599921},
    {Shape::kUnit, 64, 264, 3, 3, 3, 3, true, 0, 0x630a5fef2d01613d},
    {Shape::kUnit, 120, 320, 8, 6, 8, 8, false, 0, 0x28b553088629d39f},
    {Shape::kUnit, 520, 720, 6, 5, 6, 6, false, 0, 0x594cba1ca17387b9},
    {Shape::kUnit, 700, 900, 2, 2, 2, 2, true, 0, 0x5193771a46ffcff7},
    // No greedy cover and no cycle cover: decided with no search.
    {Shape::kStrideTwo, 2, 302, 0, 2, 0, 2, true, 0, 0xad319677479e1db6},
    {Shape::kStrideTwo, 3, 303, 0, 2, 0, 2, true, 0, 0xb7f6a4c7aa77ee4d},
    {Shape::kStrideTwo, 4, 304, 0, 1, 0, 1, true, 0, 0x0f66e1bf4f6b8607},
    {Shape::kStrideTwo, 5, 305, 0, 2, 0, 2, true, 0, 0xde9035e71c103c52},
    {Shape::kStrideTwo, 6, 306, 0, 2, 0, 2, true, 0, 0x4ac6588b19231cce},
    {Shape::kStrideTwo, 8, 308, 0, 4, 0, 4, true, 0, 0x73532aed4511a211},
    {Shape::kStrideTwo, 10, 310, 0, 6, 0, 6, true, 0, 0xd5ce084024dd549a},
    {Shape::kStrideTwo, 12, 312, 0, 3, 0, 3, true, 0, 0xaa8340fcd681780f},
    {Shape::kStrideTwo, 14, 314, 0, 5, 0, 5, true, 0, 0xf40dbe325884d518},
    {Shape::kStrideTwo, 16, 316, 0, 4, 0, 4, true, 0, 0x7eaee77b23fb1bf3},
    {Shape::kStrideTwo, 20, 320, 0, 7, 0, 7, true, 0, 0x17e0cb6f5462c989},
    {Shape::kStrideTwo, 24, 324, 0, 6, 0, 6, true, 0, 0xcc1bde9410875ff3},
    {Shape::kStrideTwo, 28, 328, 0, 4, 0, 4, true, 0, 0x1e0584edd49d6e2b},
    {Shape::kStrideTwo, 36, 336, 0, 6, 0, 6, true, 0, 0x01594037a36aefcd},
    {Shape::kStrideTwo, 530, 830, 0, 8, 0, 8, true, 0, 0x34ead6670bd62b60},
    {Shape::kStrideTwo, 4, 1304, 0, 2, 0, 2, true, 0, 0x9493a93d8f1e8ee5},
    {Shape::kStrideTwo, 6, 1306, 0, 3, 0, 3, true, 0, 0xd21cf023607db0b4},
    {Shape::kStrideTwo, 8, 1308, 0, 5, 0, 5, true, 0, 0xaabf3327d6a09a8f},
    {Shape::kStrideTwo, 10, 1310, 0, 6, 0, 6, true, 0, 0x088953310a3bc4e4},
    // A cycle cover: the search decides up to N = 28.
    {Shape::kStrideTwo, 4, 198, 2, 2, 0, 2, true, 6, 0x0ffab446a9be6033},
    {Shape::kStrideTwo, 8, 143, 3, 2, 0, 3, true, 27, 0x580d17d89c849103},
    {Shape::kStrideTwo, 16, 23, 2, 2, 0, 2, true, 579, 0x3eae6ab85b556c5d},
    {Shape::kStrideTwo, 20, 30, 3, 2, 0, 3, true, 119792, 0xa6ee2651bc700409},
    {Shape::kStrideTwo, 24, 8, 4, 3, 0, 4, true, 84, 0x2f7609b3aa26236b},
    {Shape::kStrideTwo, 32, 23, 0, 2, 0, 2, false, 0, 0x86a1bd3e06d07f1d},
    {Shape::kStrideTwo, 40, 25, 0, 7, 0, 7, false, 0, 0xa93ce5752d6dbc81},
    // Mixed strides and asymmetric windows.
    {Shape::kWindow, 5, 405, 0, 5, 0, 5, true, 0, 0x32ac92866cc55284},
    {Shape::kWindow, 8, 408, 0, 6, 0, 6, true, 0, 0x12d540ee6bbffc89},
    {Shape::kWindow, 12, 412, 5, 4, 5, 5, true, 10, 0x62aa4cde7df388c5},
    {Shape::kWindow, 16, 416, 7, 5, 7, 7, true, 37, 0xeae8c0c4fb71bcd1},
    {Shape::kWindow, 20, 420, 9, 8, 10, 9, true, 50, 0xc4ffd7c24e7625a9},
    {Shape::kWindow, 24, 424, 10, 9, 10, 10, true, 19, 0xde751e07457209a5},
    {Shape::kWindow, 28, 428, 11, 10, 0, 11, true, 6888, 0x67e7dae07306f1a5},
    {Shape::kWindow, 40, 440, 23, 17, 23, 23, false, 0, 0x7b2851c9072f3361},
    {Shape::kWindow, 560, 960, 20, 14, 20, 20, false, 0, 0x67e8bce321ab7989},
};

class Phase1PinTest : public ::testing::TestWithParam<Phase1Pin> {};

TEST_P(Phase1PinTest, KeepsBoundsNodesAndCover) {
  const Phase1Pin& pin = GetParam();
  const auto [seq, model] = pin_body(pin.shape, pin.n, pin.seed);
  const SuffixBounds g(seq, model);

  const Phase1Result r = compute_min_register_cover(g);
  EXPECT_EQ(r.k_tilde.value_or(kNone), pin.k_tilde);
  EXPECT_EQ(r.lower_bound, pin.lower_bound);
  EXPECT_EQ(r.upper_bound.value_or(kNone), pin.upper_bound);
  EXPECT_EQ(r.exact, pin.exact);
  EXPECT_EQ(r.search_nodes, pin.nodes);
  EXPECT_EQ(r.cover.size(), pin.cover_paths);
  EXPECT_EQ(cover_hash(r.cover), pin.cover_hash);
  validate_allocation(seq, r.cover, r.cover.size());
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, Phase1PinTest, ::testing::ValuesIn(kPhase1Pins),
    [](const ::testing::TestParamInfo<Phase1Pin>& info) {
      return shape_name(info.param.shape) + "_n" +
             std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

class Phase1BoundsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Phase1BoundsSweep, BoundsBracketKTildeOnMediumPatterns) {
  support::Rng rng(GetParam() * 7919 + 13);
  eval::PatternSpec spec;
  spec.accesses = 16 + rng.index(8);
  spec.offset_range = 8;
  const auto seq = eval::generate_pattern(spec, rng);
  const SuffixBounds g(seq, CostModel{1, WrapPolicy::kCyclic});

  const Phase1Result r = compute_min_register_cover(g);
  ASSERT_TRUE(r.k_tilde.has_value());
  EXPECT_GE(*r.k_tilde, r.lower_bound);
  ASSERT_TRUE(r.upper_bound.has_value());
  EXPECT_LE(*r.k_tilde, *r.upper_bound);
  expect_zero_cost_cover(seq, g.model(), r.cover);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, Phase1BoundsSweep,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace dspaddr::core
