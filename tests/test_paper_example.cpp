// Experiment FIG1: the worked example of the paper, end to end.
//
// Section 2 introduces the loop with accesses A[i+1], A[i], A[i+2],
// A[i-1], A[i+1], A[i], A[i-2] and M = 1, models it as the graph of
// Fig. 1, and claims the subsequence (a_1, a_3, a_5, a_6) is realizable
// by one register with auto-increment/decrement only. This file pins
// down every number the example implies.
#include <gtest/gtest.h>

#include "agu/codegen.hpp"
#include "agu/simulator.hpp"
#include "baselines/baselines.hpp"
#include "core/allocator.hpp"
#include "core/bounds.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"

namespace dspaddr {
namespace {

const auto kSeq =
    ir::AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});

TEST(PaperExample, KernelLowersToFigureOffsets) {
  const ir::AccessSequence lowered = ir::lower(ir::paper_example_kernel());
  // The kernel uses a single array, so lowering shifts all offsets by
  // the same base; distances (the quantity that matters) must match the
  // raw figure offsets exactly.
  ASSERT_EQ(lowered.size(), kSeq.size());
  for (std::size_t i = 0; i + 1 < kSeq.size(); ++i) {
    EXPECT_EQ(lowered.intra_distance(i, i + 1),
              kSeq.intra_distance(i, i + 1));
  }
}

TEST(PaperExample, GraphHasElevenZeroCostEdges) {
  const core::SuffixBounds g(kSeq,
                             core::CostModel{1, core::WrapPolicy::kCyclic});
  EXPECT_EQ(g.free_intra_edges().size(), 11u);
}

TEST(PaperExample, NarrativePathIsRealizableByOneRegister) {
  // (a_1, a_3, a_5, a_6) with offsets 1, 2, 1, 0: +1, -1, -1 moves.
  const core::Path narrative({0, 2, 4, 5});
  const core::CostModel model{1, core::WrapPolicy::kCyclic};
  EXPECT_EQ(core::path_intra_cost(kSeq, narrative, model), 0);
}

TEST(PaperExample, KTildeIsTwoAcyclicThreeCyclic) {
  const core::SuffixBounds acyclic(
      kSeq, core::CostModel{1, core::WrapPolicy::kAcyclic});
  EXPECT_EQ(core::compute_min_register_cover(acyclic).k_tilde,
            std::size_t{2});

  const core::SuffixBounds cyclic(
      kSeq, core::CostModel{1, core::WrapPolicy::kCyclic});
  EXPECT_EQ(core::compute_min_register_cover(cyclic).k_tilde,
            std::size_t{3});
}

TEST(PaperExample, CostLadderAcrossRegisterCounts) {
  // K >= 3 free, K = 2 costs 2, K = 1 costs 5 (forced single path).
  const std::vector<std::pair<std::size_t, int>> ladder{
      {7, 0}, {4, 0}, {3, 0}, {2, 2}, {1, 5}};
  for (const auto& [k, expected_cost] : ladder) {
    core::ProblemConfig config;
    config.modify_range = 1;
    config.registers = k;
    const core::Allocation a =
        core::RegisterAllocator(config).run(kSeq);
    EXPECT_EQ(a.cost(), expected_cost) << "K = " << k;
  }
}

TEST(PaperExample, HeuristicBeatsNaiveUnderPressure) {
  core::ProblemConfig config;
  config.modify_range = 1;
  config.registers = 2;
  const auto merged = core::RegisterAllocator(config).run(kSeq);
  const auto naive = baselines::naive_allocate(kSeq, config);
  EXPECT_LE(merged.cost(), naive.cost());
}

TEST(PaperExample, GeneratedCodeExecutesCorrectlyForAllK) {
  for (std::size_t k = 1; k <= 4; ++k) {
    core::ProblemConfig config;
    config.modify_range = 1;
    config.registers = k;
    const core::Allocation a = core::RegisterAllocator(config).run(kSeq);
    const agu::Program p = agu::generate_code(kSeq, a);
    const agu::SimResult r = agu::Simulator{}.run(p, kSeq, 32);
    EXPECT_TRUE(r.verified) << "K = " << k << ": " << r.failure;
    EXPECT_EQ(r.extra_instructions,
              32u * static_cast<std::uint64_t>(a.cost()))
        << "K = " << k;
  }
}

}  // namespace
}  // namespace dspaddr
