// Phase 2: meeting the register constraint by path merging (paper
// section 3.2).
//
// While more paths exist than physical address registers, two paths are
// merged with the order-preserving operation "⊕". The paper's selection
// rule picks the pair (P_i, P_j) whose merged cost C(P_i ⊕ P_j) is
// minimal among all pairs; alternative rules are provided for the
// ablation bench (T4) and for the naive baseline the paper compares
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "core/path.hpp"
#include "support/rng.hpp"

namespace dspaddr::core {

class SuffixBounds;

/// Pair-selection rule for one merge step.
enum class MergeStrategy {
  /// The paper's rule: minimize C(P_i ⊕ P_j) over all pairs.
  kMinMergedCost,
  /// Minimize the cost increase C(P_i ⊕ P_j) - C(P_i) - C(P_j).
  kMinDelta,
  /// Always merge the first two paths — the paper's "naive" baseline
  /// ("repetitively merges two arbitrary paths").
  kFirstPair,
  /// Merge a uniformly random pair (seeded) — alternative arbitrary
  /// baseline.
  kRandomPair,
};

const char* to_string(MergeStrategy strategy);

/// One executed merge, for tracing/ablation.
struct MergeStep {
  std::size_t first_path = 0;
  std::size_t second_path = 0;
  int merged_cost = 0;
  int total_cost_after = 0;
};

struct MergeOptions {
  MergeStrategy strategy = MergeStrategy::kMinMergedCost;
  /// Seed for kRandomPair.
  std::uint64_t seed = 1;
};

/// Merges `paths` down to at most `register_limit` paths and returns the
/// result. `register_limit` must be >= 1. If `trace` is non-null, every
/// merge step is appended to it.
std::vector<Path> merge_to_register_limit(
    const ir::AccessSequence& seq, const CostModel& model,
    std::vector<Path> paths, std::size_t register_limit,
    const MergeOptions& options = {}, std::vector<MergeStep>* trace = nullptr);

/// The same merging of paths over the table's sequence, scoring every
/// pair from `costs` (core/bounds.hpp): C(P_i ⊕ P_j) is a walk over the
/// two index lists, and only executed merges build a merged Path.
std::vector<Path> merge_to_register_limit(
    const SuffixBounds& costs, std::vector<Path> paths,
    std::size_t register_limit, const MergeOptions& options = {},
    std::vector<MergeStep>* trace = nullptr);

}  // namespace dspaddr::core
