// The phase-2 bounds: the residual matching that the exact search keeps
// current at every node, the root bound it starts from, and the
// register-cycle assignment's duals. The incremental repair is checked
// against a from-scratch Hopcroft-Karp matching of the same residual
// graph after every assign and undo; the cycle assignment's value and
// its running value against a brute-force least completion cost at
// every state below the solved one. The exact search's
// dominance key (register_key) is checked by grouping every state of
// small bodies by key: each group has one brute-force least completion
// cost.
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "engine/serialize.hpp"
#include "graph/matching.hpp"
#include "ir/layout.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
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

/// A random body of `n` accesses.
Body random_body_of_size(support::Rng& rng, std::size_t n) {
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
  // Upper bound first, as GCC evaluated the two draws when they were
  // arguments of one call: the same seed draws the same body on every
  // compiler.
  const std::int64_t hi = rng.uniform_int(0, 2);
  const std::int64_t lo = -rng.uniform_int(0, 2);
  CostModel model(lo, hi, std::move(widths));
  return Body{AccessSequence(std::move(accesses)), model};
}

/// A random body of 2 to 25 accesses, or of 65 to 164.
Body random_body(support::Rng& rng) {
  const std::size_t n =
      rng.bernoulli(0.25) ? 65 + rng.index(100) : 2 + rng.index(24);
  return random_body_of_size(rng, n);
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
  // The table's rows, its edge list, its matching bound, its per-access
  // classes and horizons and path costs summed from it against the cost
  // model, on dense and (for seed 0) sparse tables, under both wrap
  // policies.
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
  // The per-access arrays behind the dominance key: the sparse table
  // reports the identity class and no horizon.
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  for (std::size_t a = 0; a < n; ++a) {
    std::size_t value_class = a;
    std::size_t wrap_zero = costs.dense() ? 0 : kNever;
    std::size_t wrap_paid = wrap_zero;
    std::size_t step_free = wrap_zero;
    std::size_t step_paid = wrap_zero;
    for (std::size_t j = 0; costs.dense() && j < n; ++j) {
      if (j < value_class && seq[j] == seq[a]) value_class = j;
      if (wrap_transition_cost(seq, j, a, model) == 0) {
        wrap_zero = j + 1;
      } else {
        wrap_paid = j + 1;
      }
      if (j <= a) continue;
      if (intra_transition_cost(seq, a, j, model) == 0) {
        step_free = j + 1;
      } else {
        step_paid = j + 1;
      }
    }
    ASSERT_EQ(costs.value_class(a), value_class) << a;
    ASSERT_EQ(costs.wrap_zero_horizon(a), wrap_zero) << a;
    ASSERT_EQ(costs.wrap_paid_horizon(a), wrap_paid) << a;
    ASSERT_EQ(costs.free_successor_horizon(a), step_free) << a;
    ASSERT_EQ(costs.paid_successor_horizon(a), step_paid) << a;
  }
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

/// Every state the fresh-rule prefixes of one body reach, with its
/// least completion cost by brute force (the steps into the unassigned
/// accesses plus every register's wrap, read from the cost model),
/// grouped by the exact search's dominance key: `next` and the sorted
/// register_key() words.
struct KeyGroups {
  const SuffixBounds& bounds;
  std::size_t registers;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> lasts;
  /// Key -> the least completion cost and the (first, last) pairs of
  /// the first state seen with it.
  std::map<std::vector<std::uint64_t>,
           std::pair<int, std::vector<std::uint64_t>>>
      groups;
  /// States whose key an earlier, different state already had.
  std::size_t merged = 0;
  /// FREE(0), FREE(1), PAID(0) and PAID(1) words seen.
  std::array<bool, kKeySentinels> sentinels{};

  int complete(std::size_t next) {
    const ir::AccessSequence& seq = bounds.sequence();
    const CostModel& model = bounds.model();
    if (next == seq.size()) {
      int wraps = 0;
      for (std::size_t r = 0; r < firsts.size(); ++r) {
        wraps += wrap_transition_cost(seq, lasts[r], firsts[r], model);
      }
      return wraps;
    }
    int best = std::numeric_limits<int>::max();
    for (std::size_t r = 0; r < lasts.size(); ++r) {
      const std::size_t previous = lasts[r];
      lasts[r] = next;
      best = std::min(best, intra_transition_cost(seq, previous, next, model) +
                                complete(next + 1));
      lasts[r] = previous;
    }
    if (firsts.size() < registers) {
      firsts.push_back(next);
      lasts.push_back(next);
      best = std::min(best, complete(next + 1));
      firsts.pop_back();
      lasts.pop_back();
    }
    record(next, best);
    return best;
  }

  void record(std::size_t next, int least) {
    const std::size_t n = bounds.size();
    std::vector<std::uint64_t> key{next};
    std::vector<std::uint64_t> raw;
    for (std::size_t r = 0; r < firsts.size(); ++r) {
      const std::uint64_t word =
          register_key(bounds, next, firsts[r], lasts[r],
                       bounds.wrap_direct(lasts[r], firsts[r]));
      key.push_back(word);
      raw.push_back(firsts[r] << 32 | lasts[r]);
      for (const std::uint64_t half : {word >> 32, word & 0xffffffffu}) {
        ASSERT_LT(half, n + kKeySentinels);
        if (half >= n) sentinels[half - n] = true;
      }
    }
    std::sort(key.begin() + 1, key.end());
    std::sort(raw.begin(), raw.end());
    const auto [group, inserted] = groups.emplace(key, std::pair(least, raw));
    if (inserted) return;
    EXPECT_EQ(group->second.first, least) << "next " << next;
    if (group->second.second != raw) ++merged;
  }
};

TEST(RegisterKey, EqualKeysHaveEqualLeastCompletionCosts) {
  // Bodies of at most 9 accesses with repeated values: K 1 to 4,
  // asymmetric windows with extra free widths, mixed strides, both wrap
  // policies. The key must merge states (or it proves nothing), and all
  // four sentinel kinds must occur.
  support::Rng rng(2531);
  std::size_t merged = 0;
  std::array<bool, kKeySentinels> sentinels{};
  for (int body = 0; body < 200; ++body) {
    const std::size_t n = 1 + rng.index(9);
    const std::int64_t range = rng.uniform_int(1, 4);
    const bool mixed = rng.bernoulli(0.3);
    std::vector<ir::Access> accesses(n);
    for (auto& access : accesses) {
      access.offset = rng.uniform_int(-range, range);
      access.stride = mixed ? rng.uniform_int(1, 2) : 1;
    }
    std::vector<std::int64_t> widths;
    for (std::int64_t w = rng.uniform_int(0, 2); w > 0; --w) {
      widths.push_back(rng.uniform_int(-6, 6));
    }
    const std::int64_t hi = rng.uniform_int(0, 2);
    const std::int64_t lo = -rng.uniform_int(0, 2);
    const WrapPolicy wrap =
        rng.bernoulli(0.25) ? WrapPolicy::kAcyclic : WrapPolicy::kCyclic;
    const SuffixBounds bounds(AccessSequence(std::move(accesses)),
                              CostModel(lo, hi, std::move(widths), wrap));
    KeyGroups groups{bounds, 1 + rng.index(4), {}, {}, {}, 0, {}};
    SCOPED_TRACE(::testing::Message() << "body " << body << ", N " << n
                                      << ", K " << groups.registers);
    groups.complete(0);
    merged += groups.merged;
    for (std::size_t kind = 0; kind < kKeySentinels; ++kind) {
      sentinels[kind] = sentinels[kind] || groups.sentinels[kind];
    }
  }
  EXPECT_GT(merged, 0u);
  for (std::size_t kind = 0; kind < kKeySentinels; ++kind) {
    EXPECT_TRUE(sentinels[kind]) << "sentinel N + " << kind;
  }
}

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

/// A partial assignment of a body's first accesses: the register of
/// each (under the fresh rule, register r opens after registers
/// 0..r-1), and per open register its first and last access.
struct Prefix {
  std::vector<std::size_t> registers;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> lasts;

  /// Assigns the next access to register `reg` (lasts.size() opens
  /// one) and returns the intra cost of that move.
  int assign(std::size_t reg, const AccessSequence& seq,
             const CostModel& model) {
    const std::size_t access = registers.size();
    registers.push_back(reg);
    if (reg == lasts.size()) {
      firsts.push_back(access);
      lasts.push_back(access);
      return 0;
    }
    const int cost = intra_transition_cost(seq, lasts[reg], access, model);
    lasts[reg] = access;
    return cost;
  }
};

/// Extends `prefix` by `count` random fresh-rule moves onto at most
/// `registers` registers; returns their intra cost.
int extend_randomly(Prefix& prefix, std::size_t count, std::size_t registers,
                    const AccessSequence& seq, const CostModel& model,
                    support::Rng& rng) {
  int cost = 0;
  for (; count > 0; --count) {
    const std::size_t open = prefix.lasts.size();
    cost += prefix.assign(rng.index(std::min(open + 1, registers)), seq, model);
  }
  return cost;
}

/// `model` with its wrap policy replaced.
CostModel with_wrap(CostModel model, WrapPolicy wrap) {
  model.wrap = wrap;
  return model;
}

/// Brute force: the least cost still to pay over every completion of
/// the state whose open registers run from `firsts` to `lasts` and that
/// may open registers up to `registers` in all — the steps into
/// accesses [next, N) plus every register's wrap (0 under
/// WrapPolicy::kAcyclic, so the least intra cost there).
int min_completion_cost(const AccessSequence& seq, const CostModel& model,
                        std::size_t next, std::vector<std::size_t>& firsts,
                        std::vector<std::size_t>& lasts,
                        std::size_t registers) {
  if (next == seq.size()) {
    int wraps = 0;
    for (std::size_t r = 0; r < lasts.size(); ++r) {
      wraps += wrap_transition_cost(seq, lasts[r], firsts[r], model);
    }
    return wraps;
  }
  int best = std::numeric_limits<int>::max();
  // By index: the deeper calls push onto `lasts`.
  for (std::size_t r = 0, open = lasts.size(); r < open; ++r) {
    const std::size_t previous = lasts[r];
    lasts[r] = next;
    const int rest =
        min_completion_cost(seq, model, next + 1, firsts, lasts, registers);
    best = std::min(best, intra_transition_cost(seq, previous, next, model) +
                              rest);
    lasts[r] = previous;
  }
  if (lasts.size() < registers) {
    firsts.push_back(next);
    lasts.push_back(next);
    best = std::min(best, min_completion_cost(seq, model, next + 1, firsts,
                                              lasts, registers));
    firsts.pop_back();
    lasts.pop_back();
  }
  return best;
}

/// The value the duals give a state below the solved one, where
/// `opened` registers were open: the rows of its unassigned accesses
/// and open registers' firsts, the columns of its unassigned accesses
/// and open registers' lasts, less λ per register that was unused at
/// the solved state, plus the gain of each register opened since.
int kept_duals(const CycleDuals& duals, std::size_t n, std::size_t next,
               const std::vector<std::size_t>& firsts,
               const std::vector<std::size_t>& lasts, std::size_t opened,
               std::size_t registers) {
  int kept = -duals.lambda() * static_cast<int>(registers - opened);
  for (std::size_t q = next; q < n; ++q) {
    kept += duals.row(q) + duals.column(q);
  }
  for (std::size_t r = 0; r < lasts.size(); ++r) {
    kept += duals.row(firsts[r]) + duals.column(lasts[r]);
    if (r >= opened) {
      const int gain = -duals.price(firsts[r], ResidualMatching::kNoAccess);
      EXPECT_GE(gain, 0);
      EXPECT_LE(gain, duals.lambda());
      kept += gain;
    }
  }
  return kept;
}

// The brute-force checks of CycleDuals. Each row of the cycle assignment
// picks an access's entry, its predecessor in its register's cycle:
// the suite is named for those entries.
class EntryDualsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EntryDualsTest, OptimumIsTheLeastIntraCostOfAnyCompletion) {
  // Bodies of at most nine accesses with random windows, free widths
  // and mixed strides, K = 1..4, at the empty prefix and at random
  // pinned prefixes. With free wraps the cycle assignment is the entry
  // assignment of the intra steps, whose Lagrangian bound is tight at
  // an integer λ: the value is exactly the brute-force least intra cost
  // of finishing on at most K registers. With paid wraps every edge
  // costs at least as much, so the value lies between that and the
  // least completion cost, wraps included. Either way the duals the
  // state keeps add up to the value, and opening a register raises it by
  // at most λ.
  support::Rng rng(GetParam() * 7919 + 29);
  for (int draw = 0; draw < 10; ++draw) {
    const auto [seq, model] = random_body_of_size(rng, 1 + rng.index(9));
    const std::size_t n = seq.size();
    const std::size_t registers = 1 + rng.index(4);
    Prefix prefix;
    if (rng.bernoulli(0.5)) {
      extend_randomly(prefix, rng.index(n + 1), registers, seq, model, rng);
    }
    const std::size_t next = prefix.registers.size();
    SCOPED_TRACE(::testing::Message() << "draw " << draw << ", N " << n
                                      << ", K " << registers << ", next "
                                      << next);
    const CostModel acyclic = with_wrap(model, WrapPolicy::kAcyclic);
    const CostModel cyclic = with_wrap(model, WrapPolicy::kCyclic);
    std::vector<std::size_t> firsts = prefix.firsts;
    std::vector<std::size_t> lasts = prefix.lasts;
    const int least_intra =
        min_completion_cost(seq, acyclic, next, firsts, lasts, registers);
    const int least =
        min_completion_cost(seq, cyclic, next, firsts, lasts, registers);

    const SuffixBounds free_wraps(seq, acyclic);
    const CycleDuals intra(free_wraps, next, firsts, lasts, registers);
    EXPECT_EQ(intra.value(), least_intra);
    EXPECT_GE(intra.lambda(), 0);
    EXPECT_EQ(kept_duals(intra, n, next, firsts, lasts, lasts.size(),
                         registers),
              intra.value());

    const SuffixBounds paid_wraps(seq, cyclic);
    const CycleDuals cycles(paid_wraps, next, firsts, lasts, registers);
    EXPECT_LE(least_intra, cycles.value());
    EXPECT_LE(cycles.value(), least);
    EXPECT_GE(cycles.lambda(), 0);
    EXPECT_EQ(kept_duals(cycles, n, next, firsts, lasts, lasts.size(),
                         registers),
              cycles.value());
  }
}

/// Walks every fresh-rule state below the state CycleDuals was solved
/// at, moving the value with price() as the search does, and returns
/// each state's brute-force least completion cost (wraps included). At
/// every state it checks that the walked value is the sum of the duals
/// the state keeps plus its openings' gains, and that it, and the value
/// of duals solved afresh at the state, are at most that least cost.
struct DualWalk {
  const SuffixBounds& bounds;
  const CycleDuals& duals;
  std::size_t registers;
  std::size_t open_at_start;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> lasts;
  std::size_t states = 0;

  int walk(std::size_t next, int value) {
    ++states;
    const std::size_t n = bounds.size();
    int least = 0;
    if (next == n) {
      for (std::size_t r = 0; r < lasts.size(); ++r) {
        least += bounds.wrap_direct(lasts[r], firsts[r]);
      }
    } else {
      least = std::numeric_limits<int>::max();
      for (std::size_t r = 0, open = lasts.size(); r < open; ++r) {
        const std::size_t previous = lasts[r];
        lasts[r] = next;
        const int rest = walk(next + 1, value - duals.price(next, previous));
        least = std::min(least, bounds.intra_cost(previous, next) + rest);
        lasts[r] = previous;
      }
      if (lasts.size() < registers) {
        firsts.push_back(next);
        lasts.push_back(next);
        least = std::min(
            least, walk(next + 1,
                        value - duals.price(next,
                                            ResidualMatching::kNoAccess)));
        firsts.pop_back();
        lasts.pop_back();
      }
    }
    EXPECT_EQ(value, kept_duals(duals, n, next, firsts, lasts,
                                open_at_start, registers))
        << "next " << next;
    EXPECT_LE(value, least) << "next " << next;
    EXPECT_LE(CycleDuals(bounds, next, firsts, lasts, registers).value(),
              least)
        << "next " << next;
    return least;
  }
};

TEST_P(EntryDualsTest, RunningDualSumIsAdmissibleBelowTheSolvedState) {
  // The search's use of the duals: solved at a start state (the empty
  // prefix or a random pinned one) of a body of at most nine accesses,
  // under either wrap policy, with random windows and free widths and
  // K = 1..4, and walked by price() to every fresh-rule state below it,
  // the value stays the sum of the duals the state keeps plus its
  // openings' gains and never exceeds the state's least completion
  // cost, wraps included; neither does the value solved afresh at the
  // state.
  support::Rng rng(GetParam() * 4243 + 61);
  for (int draw = 0; draw < 10; ++draw) {
    auto [seq, model] = random_body_of_size(rng, 1 + rng.index(9));
    model.wrap = rng.bernoulli(0.5) ? WrapPolicy::kCyclic
                                    : WrapPolicy::kAcyclic;
    const std::size_t n = seq.size();
    const std::size_t registers = 1 + rng.index(4);
    const SuffixBounds bounds(seq, model);
    Prefix prefix;
    if (rng.bernoulli(0.5)) {
      extend_randomly(prefix, rng.index(n + 1), registers, seq, model, rng);
    }
    const std::size_t start = prefix.registers.size();
    SCOPED_TRACE(::testing::Message() << "draw " << draw << ", N " << n
                                      << ", K " << registers << ", start "
                                      << start);
    const CycleDuals duals(bounds, start, prefix.firsts, prefix.lasts,
                           registers);
    DualWalk walk{bounds,        duals,        registers,
                  prefix.lasts.size(), prefix.firsts, prefix.lasts};
    std::vector<std::size_t> firsts = prefix.firsts;
    std::vector<std::size_t> lasts = prefix.lasts;
    EXPECT_EQ(walk.walk(start, duals.value()),
              min_completion_cost(seq, model, start, firsts, lasts,
                                  registers));
    EXPECT_GE(walk.states, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EntryDualsTest,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(CycleDuals, SmallBodiesHaveKnownValues) {
  // 0 -> 1 -> 2 is one free chain, and its wrap 2 -> 0 moves by
  // 0 + 1 - 2 = -1, also free: one register finishes for free.
  const auto seq = AccessSequence::from_offsets({0, 1, 2});
  const SuffixBounds bounds(seq, CostModel{1});
  EXPECT_EQ(CycleDuals(bounds, 0, {}, {}, 1).value(), 0);
  // On 0, 5, 10 every step and every wrap between distinct accesses
  // pays. One register pays both steps and its wrap: 3, the only
  // completion, so the value is exact. Three registers wrap each access
  // onto itself for free: 0. Two registers cost 2 at best, but the
  // relaxation gets 1: at λ = 1, three self-wraps cost 3λ - 2λ = 1.
  const auto jumps = AccessSequence::from_offsets({0, 5, 10});
  const SuffixBounds jump_bounds(jumps, CostModel{1});
  EXPECT_EQ(CycleDuals(jump_bounds, 0, {}, {}, 1).value(), 3);
  EXPECT_EQ(CycleDuals(jump_bounds, 0, {}, {}, 2).value(), 1);
  EXPECT_EQ(CycleDuals(jump_bounds, 0, {}, {}, 3).value(), 0);
  // The same from the state where access 0 is open on a register.
  EXPECT_EQ(CycleDuals(jump_bounds, 1, {0}, {0}, 1).value(), 3);
  EXPECT_EQ(CycleDuals(jump_bounds, 1, {0}, {0}, 3).value(), 0);
  // No register may be open beyond K, and every open one needs both
  // endpoints assigned. With no register at all no completion exists.
  EXPECT_THROW(CycleDuals(jump_bounds, 1, {0}, {0}, 0),
               dspaddr::InvalidArgument);
  EXPECT_THROW(CycleDuals(jump_bounds, 1, {0}, {1}, 1),
               dspaddr::InvalidArgument);
  EXPECT_THROW(CycleDuals(jump_bounds, 0, {}, {}, 0),
               dspaddr::InvalidArgument);
  EXPECT_EQ(CycleDuals(jump_bounds, 3, {}, {}, 0).value(), 0);
}

TEST(CycleDuals, RejectsSparseBounds) {
  std::vector<ir::Access> accesses(SuffixBounds::kDenseLimit + 1);
  const SuffixBounds bounds(AccessSequence(std::move(accesses)),
                            CostModel{1});
  EXPECT_THROW(CycleDuals(bounds, SuffixBounds::kDenseLimit, {0}, {0}, 1),
               dspaddr::InvalidArgument);
}

TEST(CycleDuals, SolveHardRootValuesAreKnown) {
  // The value at the empty prefix of the seven exact solve-hard
  // instances (workloads/solve_hard.jsonl, perfbench's hard set), next
  // to the proven cost in tests/golden/solve_hard.jsonl: five of them
  // are proven at the root. The matching bound's root values are far
  // lower (phase 1's max(0, K~acyc - K)).
  const std::string root = std::string(DSPADDR_SOURCE_DIR);
  std::ifstream requests(root + "/workloads/solve_hard.jsonl");
  std::ifstream answers(root + "/tests/golden/solve_hard.jsonl");
  ASSERT_TRUE(requests && answers);
  const std::map<std::string, int> expected = {
      {"uniform28-k3", 12}, {"uniform30-k3", 15},
      {"strided30-k3", 16}, {"strided32-k3", 15},
      {"skewed48-k4", 1},   {"uniform32-k4-capped", 10},
      {"stencil56", 8}};
  std::size_t checked = 0;
  for (std::string request, answer;
       std::getline(requests, request) && std::getline(answers, answer);) {
    const support::JsonValue json = support::JsonValue::parse(request);
    const ir::Kernel kernel = engine::kernel_from_json(*json.find("kernel"));
    const auto it = expected.find(kernel.name());
    if (it == expected.end()) continue;  // the tiled 80-access stencil
    SCOPED_TRACE(kernel.name());
    ASSERT_EQ(json.find("phase2")->as_string(), "exact");
    const SuffixBounds bounds(
        ir::lower(kernel), CostModel{json.find("modify_range")->as_int()});
    const auto registers =
        static_cast<std::size_t>(json.find("registers")->as_int());
    const CycleDuals duals(bounds, 0, {}, {}, registers);
    EXPECT_EQ(duals.value(), it->second);
    const support::JsonValue golden = support::JsonValue::parse(answer);
    const support::JsonValue& allocate =
        *golden.find("stages")->find("allocate");
    EXPECT_TRUE(allocate.find("phase2")->find("proven")->as_bool());
    EXPECT_LE(duals.value(), allocate.find("cost")->as_int());
    EXPECT_LE(bounds.root_lower_bound(registers), duals.value());
    ++checked;
  }
  EXPECT_EQ(checked, expected.size());
}

}  // namespace
}  // namespace dspaddr::core
