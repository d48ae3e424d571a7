#include "core/bounds.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "core/validate.hpp"
#include "graph/matching.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

namespace {

/// Splits a path whose intra transitions are all zero-cost into the
/// minimum number of contiguous chunks that each close (wrap) at zero
/// cost. Returns nullopt when no such partition exists.
std::optional<std::vector<Path>> split_for_zero_wrap(
    const SuffixBounds& costs, const Path& path) {
  const std::size_t m = path.size();
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  // chunks_up_to[j]: min chunks covering path positions [0, j); the
  // chunk ending at position j-1 must start at some position i whose
  // wrap from path[j-1] is free.
  std::vector<std::size_t> chunks_up_to(m + 1, kInf);
  std::vector<std::size_t> chunk_start(m + 1, 0);
  chunks_up_to[0] = 0;
  for (std::size_t j = 1; j <= m; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (chunks_up_to[i] == kInf) continue;
      if (costs.wrap_direct(path[j - 1], path[i]) != 0) continue;
      if (chunks_up_to[i] + 1 < chunks_up_to[j]) {
        chunks_up_to[j] = chunks_up_to[i] + 1;
        chunk_start[j] = i;
      }
    }
  }
  if (chunks_up_to[m] == kInf) return std::nullopt;

  std::vector<Path> chunks;
  std::size_t end = m;
  while (end > 0) {
    const std::size_t start = chunk_start[end];
    std::vector<std::size_t> indices;
    indices.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      indices.push_back(path[i]);
    }
    chunks.emplace_back(std::move(indices));
    end = start;
  }
  std::reverse(chunks.begin(), chunks.end());
  return chunks;
}

/// Index of the lowest set bit of a nonzero word.
std::size_t lowest_bit(std::uint64_t bits) {
  return static_cast<std::size_t>(__builtin_ctzll(bits));
}

/// The mask of `index` within its 64-bit word of a bitset row.
std::uint64_t bit(std::size_t index) {
  return std::uint64_t{1} << (index % 64);
}

}  // namespace

std::size_t lower_bound_registers(const SuffixBounds& costs) {
  // With no registers the root bound is K~acyc itself.
  if (costs.dense()) {
    return static_cast<std::size_t>(costs.root_lower_bound(0));
  }
  const std::size_t n = costs.size();
  return n - graph::hopcroft_karp(n, n, costs.free_intra_edges()).size;
}

std::vector<Path> acyclic_optimal_cover(
    const SuffixBounds& costs, const std::vector<SuffixBounds::Edge>& edges) {
  // Fulkerson's reduction: split every access into a left (out) and a
  // right (in) copy; a maximum matching of the free intra edges pairs
  // each matched access with its successor, so N - M paths cover all.
  const std::size_t n = costs.size();
  const graph::MatchingResult matching = graph::hopcroft_karp(n, n, edges);
  std::vector<Path> cover;
  for (std::size_t start = 0; start < n; ++start) {
    if (matching.match_right[start] != graph::MatchingResult::kUnmatched) {
      continue;
    }
    std::vector<std::size_t> path{start};
    while (matching.match_left[path.back()] !=
           graph::MatchingResult::kUnmatched) {
      path.push_back(matching.match_left[path.back()]);
    }
    cover.emplace_back(std::move(path));
  }
  check_invariant(cover.size() == n - matching.size,
                  "acyclic_optimal_cover: path count mismatch");
  validate_path_cover(costs, cover);
  return cover;
}

std::optional<std::vector<Path>> greedy_zero_cost_cover(
    const SuffixBounds& costs) {
  const ir::AccessSequence& seq = costs.sequence();
  const std::size_t n = seq.size();

  std::vector<Path> open;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = open.size();
    std::int64_t best_distance = std::numeric_limits<std::int64_t>::max();
    bool best_closable = false;
    for (std::size_t p = 0; p < open.size(); ++p) {
      if (costs.intra_cost(open[p].last(), i) != 0) continue;
      const std::int64_t distance =
          std::llabs(*seq.intra_distance(open[p].last(), i));
      const bool closable = costs.wrap_direct(i, open[p].first()) == 0;
      // Prefer a path that could close at zero cost if `i` became its
      // final access; among those, the nearest endpoint.
      if (best == open.size() || (closable && !best_closable) ||
          (closable == best_closable && distance < best_distance)) {
        best = p;
        best_distance = distance;
        best_closable = closable;
      }
    }
    if (best == open.size()) {
      open.push_back(Path::singleton(i));
    } else {
      open[best].append(i);
    }
  }

  if (costs.model().wrap == WrapPolicy::kAcyclic) return open;

  // Repair: split any path whose wrap transition is unit-cost.
  std::vector<Path> result;
  for (const Path& path : open) {
    if (costs.wrap_direct(path.last(), path.first()) == 0) {
      result.push_back(path);
      continue;
    }
    auto chunks = split_for_zero_wrap(costs, path);
    if (!chunks.has_value()) return std::nullopt;
    for (Path& chunk : *chunks) {
      result.push_back(std::move(chunk));
    }
  }
  return result;
}

SuffixBounds::SuffixBounds(const ir::AccessSequence& seq,
                           const CostModel& model)
    : seq_(seq), model_(model), dense_(seq.size() <= kDenseLimit) {
  check_arg(model_.valid(),
            "SuffixBounds: modify window [lo, hi] must contain 0");
  if (!dense_) return;

  const std::size_t n = seq_.size();
  words_ = (n + 63) / 64;
  successors_.assign(n * words_, 0);
  predecessors_.assign(n * words_, 0);
  free_successor_horizon_.assign(n, 0);
  paid_successor_horizon_.assign(n, 0);
  value_class_.resize(n);
  for (std::size_t j = 0; j < n; ++j) value_class_[j] = j;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t j = p + 1; j < n; ++j) {
      // p runs upward, so the first match is the smallest index.
      if (value_class_[j] == j && seq_[p] == seq_[j]) value_class_[j] = p;
      if (intra_transition_cost(seq_, p, j, model_) != 0) {
        paid_successor_horizon_[p] = j + 1;
        continue;
      }
      free_successor_horizon_[p] = j + 1;
      successors_[p * words_ + j / 64] |= bit(j);
      predecessors_[j * words_ + p / 64] |= bit(p);
    }
  }
  ResidualMatching root(*this);
  root.rebuild(0, {});
  root_matching_ = root.size();
  root_partner_ = std::move(root.partner_);

  wrap_free_.assign(n * words_, 0);
  wrap_zero_horizon_.assign(n, 0);
  wrap_paid_horizon_.assign(n, 0);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t f = 0; f < n; ++f) {
      if (wrap_transition_cost(seq_, l, f, model_) != 0) {
        wrap_paid_horizon_[f] = l + 1;
        continue;
      }
      wrap_free_[l * words_ + f / 64] |= bit(f);
      wrap_zero_horizon_[f] = l + 1;
    }
  }
}

std::vector<SuffixBounds::Edge> SuffixBounds::free_intra_edges() const {
  const std::size_t n = seq_.size();
  std::vector<Edge> edges;
  const auto add = [&](std::size_t p, std::size_t q) {
    edges.emplace_back(static_cast<std::uint32_t>(p),
                       static_cast<std::uint32_t>(q));
  };
  for (std::size_t p = 0; p < n; ++p) {
    if (!dense_) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (intra_transition_cost(seq_, p, q, model_) == 0) add(p, q);
      }
      continue;
    }
    const std::uint64_t* row = free_successors(p);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        add(p, w * 64 + lowest_bit(bits));
      }
    }
  }
  return edges;
}

int SuffixBounds::path_cost(const Path& path) const {
  const std::vector<std::size_t>& indices = path.indices();
  if (indices.empty()) return 0;
  int cost = wrap_direct(indices.back(), indices.front());
  for (std::size_t i = 0; i + 1 < indices.size(); ++i) {
    cost += intra_cost(indices[i], indices[i + 1]);
  }
  return cost;
}

int SuffixBounds::root_lower_bound(std::size_t registers) const {
  if (!dense_) return 0;
  // Every access is entered by a fresh register, a free matched edge or
  // a paid transition.
  const std::size_t n = seq_.size();
  const std::size_t free_entries = root_matching_ + registers;
  return free_entries >= n ? 0 : static_cast<int>(n - free_entries);
}

ResidualMatching::ResidualMatching(const SuffixBounds& bounds)
    : bounds_(bounds), n_(bounds.size()), words_(bounds.row_words()) {
  check_arg(bounds.dense(), "ResidualMatching: needs dense bounds");
  partner_.assign(2 * n_, kFree);
  left_active_.assign(words_, 0);
  seen_left_.assign(words_, 0);
  seen_right_.assign(words_, 0);
}

void ResidualMatching::rebuild(std::size_t next,
                               const std::vector<std::size_t>& lasts) {
  check_arg(next <= n_, "ResidualMatching: access index out of range");
  next_ = next;
  size_ = 0;
  std::fill(partner_.begin(), partner_.end(), kFree);
  std::fill(left_active_.begin(), left_active_.end(), 0);
  for (std::size_t v = next; v < n_; ++v) {
    left_active_[v / 64] |= bit(v);
  }
  for (const std::size_t last : lasts) {
    check_arg(last < next, "ResidualMatching: last access not assigned");
    left_active_[last / 64] |= bit(last);
  }
  // Kuhn's algorithm: one augmenting search per left vertex yields a
  // maximum matching.
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = left_active_[w]; bits != 0; bits &= bits - 1) {
      if (augment_from_left(w * 64 + lowest_bit(bits))) ++size_;
    }
  }
  trail_.clear();
  steps_.clear();
}

void ResidualMatching::start_at_root() {
  next_ = 0;
  size_ = bounds_.root_matching_;
  partner_ = bounds_.root_partner_;
  std::fill(left_active_.begin(), left_active_.end(), 0);
  for (std::size_t v = 0; v < n_; ++v) {
    left_active_[v / 64] |= bit(v);
  }
  trail_.clear();
  steps_.clear();
}

void ResidualMatching::assign(std::size_t previous_last) {
  check_invariant(next_ < n_, "ResidualMatching: every access assigned");
  steps_.push_back(Step{trail_.size(), previous_last, size_});
  const std::size_t access = next_++;
  // Delete right vertex `access`. A partner that is about to leave the
  // left side needs no repair: the matching without that edge is
  // already maximum once both of its ends are gone.
  const std::uint32_t left = partner_[n_ + access];
  if (left != kFree) {
    set_partner(left, kFree);
    set_partner(n_ + access, kFree);
    --size_;
    if (left != previous_last && augment_from_left(left)) ++size_;
  }
  if (previous_last == kNoAccess) return;
  // Delete left vertex `previous_last`: `access` replaces it as the
  // register's last access.
  left_active_[previous_last / 64] &= ~bit(previous_last);
  const std::uint32_t right = partner_[previous_last];
  if (right != kFree) {
    set_partner(previous_last, kFree);
    set_partner(n_ + right, kFree);
    --size_;
    if (augment_from_right(right)) ++size_;
  }
}

void ResidualMatching::undo() {
  check_invariant(!steps_.empty(), "ResidualMatching: nothing to undo");
  const Step step = steps_.back();
  steps_.pop_back();
  while (trail_.size() > step.trail_begin) {
    partner_[trail_.back().slot] = trail_.back().partner;
    trail_.pop_back();
  }
  if (step.previous_last != kNoAccess) {
    left_active_[step.previous_last / 64] |= bit(step.previous_last);
  }
  size_ = step.size;
  --next_;
}

void ResidualMatching::set_partner(std::size_t slot, std::uint32_t partner) {
  trail_.push_back(Write{static_cast<std::uint32_t>(slot), partner_[slot]});
  partner_[slot] = partner;
}

void ResidualMatching::match(std::size_t left, std::size_t right) {
  set_partner(left, static_cast<std::uint32_t>(right));
  set_partner(n_ + right, static_cast<std::uint32_t>(left));
}

bool ResidualMatching::augment_from_left(std::size_t left) {
  // Right vertices below next_ are assigned: mark them seen up front.
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t base = w * 64;
    if (next_ >= base + 64) {
      seen_right_[w] = ~std::uint64_t{0};
    } else if (next_ > base) {
      seen_right_[w] = bit(next_) - 1;
    } else {
      seen_right_[w] = 0;
    }
  }
  return search_left(left);
}

bool ResidualMatching::augment_from_right(std::size_t right) {
  for (std::size_t w = 0; w < words_; ++w) {
    seen_left_[w] = ~left_active_[w];
  }
  return search_right(right);
}

bool ResidualMatching::search_left(std::size_t left) {
  const std::uint64_t* row = bounds_.free_successors(left);
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = row[w] & ~seen_right_[w];
    while (bits != 0) {
      const std::size_t right = w * 64 + lowest_bit(bits);
      bits &= bits - 1;
      if ((seen_right_[w] & bit(right)) != 0) continue;
      seen_right_[w] |= bit(right);
      const std::uint32_t owner = partner_[n_ + right];
      if (owner == kFree || search_left(owner)) {
        match(left, right);
        return true;
      }
    }
  }
  return false;
}

bool ResidualMatching::search_right(std::size_t right) {
  const std::uint64_t* row = bounds_.free_predecessors(right);
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = row[w] & ~seen_left_[w];
    while (bits != 0) {
      const std::size_t left = w * 64 + lowest_bit(bits);
      bits &= bits - 1;
      if ((seen_left_[w] & bit(left)) != 0) continue;
      seen_left_[w] |= bit(left);
      const std::uint32_t owner = partner_[left];
      if (owner == kFree || search_right(owner)) {
        match(left, right);
        return true;
      }
    }
  }
  return false;
}

CycleDuals::CycleDuals(const SuffixBounds& bounds, std::size_t next,
                       const std::vector<std::size_t>& firsts,
                       const std::vector<std::size_t>& lasts,
                       std::size_t registers) {
  check_arg(bounds.dense(), "CycleDuals: needs dense bounds");
  const std::size_t n = bounds.size();
  check_arg(next <= n, "CycleDuals: access index out of range");
  const std::size_t open = lasts.size();
  check_arg(firsts.size() == open && open <= registers,
            "CycleDuals: one first and one last per open register, at "
            "most K of them");
  for (std::size_t r = 0; r < open; ++r) {
    check_arg(firsts[r] <= lasts[r] && lasts[r] < next,
              "CycleDuals: an open register's access is not assigned");
  }
  // Some completion must exist: with none, every permutation keeps a
  // priced edge beyond the budget and the λ loop below never stops.
  check_arg(next == n || registers > 0,
            "CycleDuals: no register can take the unassigned accesses");
  const std::size_t unassigned = n - next;
  const std::size_t size = unassigned + open;
  const int budget = static_cast<int>(registers - open);

  // Rows 1..|U| are the accesses of U in order, then register r's first
  // is row |U| + 1 + r; columns 1..|U| are U again, then register r's
  // last is column |U| + 1 + r. Row and column 0 are the method's
  // virtual start. Column j <= |U| is priced for row i <= |U| iff
  // j >= i: q = next + i - 1 <= p = next + j - 1.
  constexpr int kAbsent = -1;
  std::vector<int> cost(size * size);
  for (std::size_t i = 0; i < unassigned; ++i) {
    const std::size_t q = next + i;
    int* costs = cost.data() + i * size;
    for (std::size_t j = 0; j < unassigned; ++j) {
      const std::size_t p = next + j;
      costs[j] = j < i ? bounds.intra_cost(p, q) : bounds.wrap_direct(p, q);
    }
    for (std::size_t r = 0; r < open; ++r) {
      costs[unassigned + r] = bounds.intra_cost(lasts[r], q);
    }
  }
  for (std::size_t r = 0; r < open; ++r) {
    int* costs = cost.data() + (unassigned + r) * size;
    for (std::size_t j = 0; j < unassigned; ++j) {
      costs[j] = bounds.wrap_direct(next + j, firsts[r]);
    }
    for (std::size_t s = 0; s < open; ++s) {
      costs[unassigned + s] =
          s == r ? bounds.wrap_direct(lasts[r], firsts[r]) : kAbsent;
    }
  }

  // The Hungarian method, one row at a time: a Dijkstra search in
  // reduced costs for the cheapest augmenting path from the row, then
  // the potentials move so the path's edges become tight. owner[c] is
  // the row matched to column c (0: none). Each row closes through its
  // own priced self-edge, so an augmenting path always exists.
  constexpr int kInfinity = std::numeric_limits<int>::max() / 2;
  std::vector<int> u(size + 1, 0);
  std::vector<int> v(size + 1, 0);
  std::vector<int> min_reduced(size + 1);
  std::vector<std::size_t> owner(size + 1, 0);
  std::vector<std::size_t> way(size + 1, 0);
  std::vector<char> reached(size + 1);
  const auto augment = [&](std::size_t row) {
    owner[0] = row;
    std::size_t col0 = 0;
    std::fill(min_reduced.begin(), min_reduced.end(), kInfinity);
    std::fill(reached.begin(), reached.end(), 0);
    do {
      reached[col0] = 1;
      const std::size_t row0 = owner[col0];
      const int* costs = cost.data() + (row0 - 1) * size;
      int delta = kInfinity;
      std::size_t col1 = 0;
      for (std::size_t col = 1; col <= size; ++col) {
        if (reached[col] != 0) continue;
        if (costs[col - 1] != kAbsent) {
          const int reduced = costs[col - 1] - u[row0] - v[col];
          if (reduced < min_reduced[col]) {
            min_reduced[col] = reduced;
            way[col] = col0;
          }
        }
        if (min_reduced[col] < delta) {
          delta = min_reduced[col];
          col1 = col;
        }
      }
      check_invariant(col1 != 0, "CycleDuals: no augmenting path");
      for (std::size_t col = 0; col <= size; ++col) {
        if (reached[col] != 0) {
          u[owner[col]] += delta;
          v[col] -= delta;
        } else {
          min_reduced[col] -= delta;
        }
      }
      col0 = col1;
    } while (owner[col0] != 0);
    do {
      const std::size_t col1 = way[col0];
      owner[col0] = owner[col1];
      col0 = col1;
    } while (col0 != 0);
  };
  for (std::size_t row = 1; row <= size; ++row) augment(row);

  // Raise λ while the value rises. The optimum at λ stays a permutation
  // at λ + 1, dearer by its priced edges, so the value can rise only
  // while the optimum has more than K - used of them. Raising costs
  // keeps the duals feasible and every other matched edge tight, so a
  // warm re-solve re-augments just the rows matched through a priced
  // edge.
  rows_.assign(n, 0);
  columns_.assign(n, 0);
  std::vector<std::size_t> repriced;
  for (int lambda = 0;; ++lambda) {
    int dual_sum = 0;
    int assigned = 0;
    for (std::size_t k = 1; k <= size; ++k) {
      const int edge = cost[(owner[k] - 1) * size + (k - 1)];
      check_invariant(edge != kAbsent,
                      "CycleDuals: a register wraps into another's first");
      dual_sum += u[k] + v[k];
      assigned += edge;
    }
    check_invariant(dual_sum == assigned,
                    "CycleDuals: the duals do not sum to the optimum");
    const int value = dual_sum - lambda * budget;
    if (lambda > 0 && value <= value_) break;
    lambda_ = lambda;
    value_ = value;
    for (std::size_t i = 0; i < unassigned; ++i) {
      rows_[next + i] = u[i + 1];
      columns_[next + i] = v[i + 1];
    }
    for (std::size_t r = 0; r < open; ++r) {
      rows_[firsts[r]] = u[unassigned + 1 + r];
      columns_[lasts[r]] = v[unassigned + 1 + r];
    }
    repriced.clear();
    for (std::size_t col = 1; col <= unassigned; ++col) {
      if (owner[col] <= col) repriced.push_back(col);
    }
    if (repriced.size() <= static_cast<std::size_t>(budget)) break;
    for (std::size_t i = 0; i < unassigned; ++i) {
      int* costs = cost.data() + i * size;
      for (std::size_t j = i; j < unassigned; ++j) ++costs[j];
    }
    for (std::size_t& col : repriced) {
      const std::size_t row = owner[col];
      owner[col] = 0;
      col = row;
    }
    for (const std::size_t row : repriced) augment(row);
  }

  // Opening q gains min(λ, s), s the least reduced cost at λ of the
  // wraps into q: from every p >= q, all still unassigned when q is
  // the next access to place.
  opening_.assign(n, 0);
  for (std::size_t q = next; q < n; ++q) {
    int slack = lambda_;
    for (std::size_t p = q; p < n; ++p) {
      slack = std::min(slack, bounds.wrap_direct(p, q) + lambda_ -
                                  rows_[q] - columns_[p]);
    }
    check_invariant(slack >= 0, "CycleDuals: the duals are infeasible");
    opening_[q] = slack;
  }
}

}  // namespace dspaddr::core
