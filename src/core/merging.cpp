#include "core/merging.hpp"

#include <limits>
#include <queue>
#include <tuple>

#include "core/bounds.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

const char* to_string(MergeStrategy strategy) {
  switch (strategy) {
    case MergeStrategy::kMinMergedCost:
      return "min-merged-cost";
    case MergeStrategy::kMinDelta:
      return "min-delta";
    case MergeStrategy::kFirstPair:
      return "first-pair";
    case MergeStrategy::kRandomPair:
      return "random-pair";
  }
  return "unknown";
}

namespace {

/// Cost-guided merging with a lazily invalidated pair heap.
///
/// Slots hold live paths; merging replaces the lower slot and kills the
/// higher one. Heap entries carry the slot versions they were computed
/// for and are dropped when stale. Keys order by (cost key, slot a,
/// slot b) so selection is deterministic.
class CostGuidedMerger {
public:
  CostGuidedMerger(const SuffixBounds& costs, std::vector<Path> paths,
                   bool use_delta, bool build_heap)
      : costs_(costs), use_delta_(use_delta), heap_enabled_(build_heap) {
    // Pairs are scored without building the merged path, so the
    // indices are checked here, once, before the table is read
    // unchecked.
    std::vector<bool> covered(costs_.size(), false);
    slots_.reserve(paths.size());
    for (Path& p : paths) {
      for (const std::size_t access : p.indices()) {
        check_arg(access < covered.size() && !covered[access],
                  "merge_to_register_limit: paths must be node-disjoint "
                  "and index the sequence");
        covered[access] = true;
      }
      slot_cost_.push_back(costs_.path_cost(p));
      slots_.push_back(std::move(p));
    }
    version_.assign(slots_.size(), 0);
    alive_.assign(slots_.size(), true);
    alive_count_ = slots_.size();
    if (heap_enabled_) {
      for (std::size_t a = 0; a < slots_.size(); ++a) {
        for (std::size_t b = a + 1; b < slots_.size(); ++b) {
          push_pair(a, b);
        }
      }
    }
  }

  std::size_t alive_count() const { return alive_count_; }

  /// Executes the best merge; returns the executed step.
  MergeStep merge_best() {
    check_invariant(alive_count_ >= 2, "merge_best: fewer than two paths");
    while (true) {
      check_invariant(!heap_.empty(), "merge_best: exhausted pair heap");
      const Entry top = heap_.top();
      heap_.pop();
      if (!alive_[top.a] || !alive_[top.b] ||
          version_[top.a] != top.version_a ||
          version_[top.b] != top.version_b) {
        continue;
      }
      return execute(top.a, top.b, top.merged_cost);
    }
  }

  /// Executes an externally chosen merge of slots a != b.
  MergeStep merge_pair(std::size_t a, std::size_t b) {
    check_arg(a != b && alive_[a] && alive_[b],
              "merge_pair: slots must be two live paths");
    if (a > b) std::swap(a, b);
    return execute(a, b, merged_cost(slots_[a], slots_[b]));
  }

  /// Slot ids of all live paths, ascending.
  std::vector<std::size_t> live_slots() const {
    std::vector<std::size_t> live;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (alive_[s]) live.push_back(s);
    }
    return live;
  }

  std::vector<Path> take_paths() {
    std::vector<Path> result;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (alive_[s]) result.push_back(std::move(slots_[s]));
    }
    return result;
  }

  int total_cost() const {
    int cost = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (alive_[s]) cost += slot_cost_[s];
    }
    return cost;
  }

private:
  struct Entry {
    int key;
    std::size_t a, b;
    std::uint32_t version_a, version_b;
    int merged_cost;

    bool operator>(const Entry& other) const {
      return std::tie(key, a, b) > std::tie(other.key, other.a, other.b);
    }
  };

  /// C(a ⊕ b), walking the two index lists in sequence order without
  /// building the merged path.
  int merged_cost(const Path& a, const Path& b) const {
    const std::vector<std::size_t>& x = a.indices();
    const std::vector<std::size_t>& y = b.indices();
    if (x.empty() && y.empty()) return 0;
    std::size_t i = 0;
    std::size_t j = 0;
    const auto take = [&] {
      return j == y.size() || (i < x.size() && x[i] < y[j]) ? x[i++] : y[j++];
    };
    const std::size_t first = take();
    std::size_t last = first;
    int cost = 0;
    while (i < x.size() || j < y.size()) {
      const std::size_t next = take();
      cost += costs_.intra_cost(last, next);
      last = next;
    }
    return cost + costs_.wrap_direct(last, first);
  }

  void push_pair(std::size_t a, std::size_t b) {
    const int merged = merged_cost(slots_[a], slots_[b]);
    const int key =
        use_delta_ ? merged - slot_cost_[a] - slot_cost_[b] : merged;
    heap_.push(Entry{key, a, b, version_[a], version_[b], merged});
  }

  MergeStep execute(std::size_t a, std::size_t b, int merged_cost) {
    MergeStep step;
    step.first_path = a;
    step.second_path = b;
    step.merged_cost = merged_cost;

    slots_[a] = merge(slots_[a], slots_[b]);
    slot_cost_[a] = merged_cost;
    ++version_[a];
    alive_[b] = false;
    ++version_[b];
    --alive_count_;

    if (heap_enabled_) {
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (alive_[s] && s != a) {
          push_pair(std::min(s, a), std::max(s, a));
        }
      }
    }
    step.total_cost_after = total_cost();
    return step;
  }

  const SuffixBounds& costs_;
  const bool use_delta_;
  const bool heap_enabled_;

  std::vector<Path> slots_;
  std::vector<int> slot_cost_;
  std::vector<std::uint32_t> version_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
};

}  // namespace

std::vector<Path> merge_to_register_limit(
    const ir::AccessSequence& seq, const CostModel& model,
    std::vector<Path> paths, std::size_t register_limit,
    const MergeOptions& options, std::vector<MergeStep>* trace) {
  check_arg(register_limit >= 1, "merge_to_register_limit: need >= 1 register");
  if (paths.size() <= register_limit) return paths;
  return merge_to_register_limit(SuffixBounds(seq, model), std::move(paths),
                                 register_limit, options, trace);
}

std::vector<Path> merge_to_register_limit(const SuffixBounds& costs,
                                          std::vector<Path> paths,
                                          std::size_t register_limit,
                                          const MergeOptions& options,
                                          std::vector<MergeStep>* trace) {
  check_arg(register_limit >= 1, "merge_to_register_limit: need >= 1 register");
  if (paths.size() <= register_limit) return paths;

  const bool cost_guided =
      options.strategy == MergeStrategy::kMinMergedCost ||
      options.strategy == MergeStrategy::kMinDelta;
  CostGuidedMerger merger(costs, std::move(paths),
                          options.strategy == MergeStrategy::kMinDelta,
                          /*build_heap=*/cost_guided);
  support::Rng rng(options.seed);

  while (merger.alive_count() > register_limit) {
    MergeStep step;
    if (cost_guided) {
      step = merger.merge_best();
    } else {
      const std::vector<std::size_t> live = merger.live_slots();
      std::size_t a = 0;
      std::size_t b = 1;
      if (options.strategy == MergeStrategy::kRandomPair) {
        a = rng.index(live.size());
        b = rng.index(live.size() - 1);
        if (b >= a) ++b;
      }
      step = merger.merge_pair(live[a], live[b]);
    }
    if (trace != nullptr) trace->push_back(step);
  }
  return merger.take_paths();
}

}  // namespace dspaddr::core
