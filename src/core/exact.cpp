#include "core/exact.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/transposition_table.hpp"
#include "core/validate.hpp"
#include "runtime/steal_pool.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

namespace {

/// Entries kept in a transposition table before insertion stops;
/// lookups and in-place improvements continue past the cap, so the
/// search stays correct, only less pruned (and counts the refusals).
constexpr std::size_t kDefaultTableCap = std::size_t{1} << 21;

/// Dominance pruning tracks at most this many register states per key;
/// beyond it the table is disabled (the other prunings keep working).
/// Covers the whole builtin machine catalog (max K = 8).
constexpr std::size_t kMaxDominanceRegisters = 8;

/// A donated subtree must still have at least this many accesses to
/// assign. Small enough that work remains stealable close to the leaves
/// of a skewed tree, large enough that a stolen task amortizes its
/// replay + scheduling cost over hundreds of nodes. Every grain proves
/// the same cost.
constexpr std::size_t kDefaultStealGrain = 8;

/// Fixed-size key of the parallel path's shared table: the next access
/// in words[0], then the used registers' register_key() words in
/// ascending order (Searcher::make_key); unused slots hold an all-ones
/// sentinel. 32-bit packing is exact for any sequence that fits in
/// memory.
struct StateKey {
  std::array<std::uint64_t, kMaxDominanceRegisters + 1> words;

  friend bool operator==(const StateKey& a, const StateKey& b) {
    return a.words == b.words;
  }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const {
    // FNV-1a over the packed words.
    std::uint64_t hash = 1469598103934665603ULL;
    for (const std::uint64_t word : key.words) {
      hash = (hash ^ word) * 1099511628211ULL;
    }
    return static_cast<std::size_t>(hash);
  }
};

using Clock = std::chrono::steady_clock;
using Table = std::unordered_map<StateKey, int, StateKeyHash>;

constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

/// Tie rank of the fresh register under SearchContext::nearest_first:
/// after every append.
constexpr std::uint32_t kFreshTie = std::numeric_limits<std::uint32_t>::max();

/// Transposition table shared by every subtree task of a parallel
/// solve, striped-mutexed so pruning decisions see the states *all*
/// tasks have visited. Without it each task re-explores states its
/// siblings already reached more cheaply — the dominant source of
/// parallel node inflation. Pruning stays admissible under any
/// interleaving: an entry holds the cheapest prefix cost any task has
/// continued the search from, so a lookup at no lower cost can only
/// cut subtrees whose best completion is matched elsewhere (and an
/// aborted solve reports proven=false regardless).
class SharedTable {
 public:
  explicit SharedTable(std::size_t cap)
      : stripe_cap_(std::max<std::size_t>(cap / kStripes, 1)) {}

  /// True when the state was already reached at no higher cost;
  /// records/improves the entry otherwise. Adds any insertion refusal
  /// past the cap to `cap_hits`.
  bool dominated(const StateKey& key, int cost, std::uint64_t& cap_hits) {
    Stripe& stripe = stripes_[StateKeyHash{}(key) % kStripes];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      if (it->second <= cost) return true;
      it->second = cost;
      return false;
    }
    if (stripe.map.size() < stripe_cap_) {
      stripe.map.emplace(key, cost);
    } else {
      ++cap_hits;
    }
    return false;
  }

 private:
  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    std::mutex mutex;
    Table map;
  };
  std::array<Stripe, kStripes> stripes_;
  const std::size_t stripe_cap_;
};

/// Problem, budgets and cross-task shared state of one solve. The
/// incumbent cost is read lock-free for pruning; the witness
/// assignment (and the authoritative cost guarding updates) live under
/// the mutex. Everything else is read-only while searchers run.
struct SearchContext {
  SearchContext(const SuffixBounds& costs, std::size_t register_count,
                const ExactOptions& opts)
      : seq(costs.sequence()),
        registers(register_count),
        options(opts),
        bounds(costs),
        table_cap(opts.table_cap == 0 ? kDefaultTableCap : opts.table_cap),
        use_dominance(register_count <= kMaxDominanceRegisters),
        max_nodes(opts.max_nodes) {}

  /// Starts the wall clock immediately before the search proper, so
  /// table construction and incumbent seeding never eat the budget.
  void arm_deadline() {
    if (options.time_budget_ms > 0) {
      deadline =
          Clock::now() + std::chrono::milliseconds(options.time_budget_ms);
      has_deadline = true;
    }
  }

  /// Records a complete assignment when it strictly improves the
  /// incumbent. Rare enough that the mutex never contends measurably;
  /// the lock-free fast reject keeps losers off it entirely.
  void record_solution(int total, const std::vector<std::size_t>& assignment) {
    if (total >= best_cost.load(std::memory_order_relaxed)) return;
    const std::lock_guard<std::mutex> lock(best_mutex);
    if (total < best_cost.load(std::memory_order_relaxed)) {
      best_cost.store(total, std::memory_order_relaxed);
      best_assignment = assignment;
    }
  }

  const ir::AccessSequence& seq;
  const std::size_t registers;
  const ExactOptions& options;
  /// The step costs and suffix bounds every cost the search reads comes
  /// from (shared by the whole request when the allocator passes them).
  const SuffixBounds& bounds;
  const std::size_t table_cap;
  /// Off above kMaxDominanceRegisters registers.
  const bool use_dominance;

  const std::uint64_t max_nodes;
  /// Tie order among equal-cost moves: false (phase 2) keeps appends
  /// before the fresh register in register order; true (phase 1) takes
  /// the nearest endpoint first, by |offset distance|, fresh last.
  bool nearest_first = false;
  /// True when searchers that pass their first 1024-node checkpoint
  /// add the register-cycle assignment's duals (core::CycleDuals) to
  /// their bound. Phase 2 only: phase 1's trees, covers and node counts
  /// stay those of the matching bound.
  bool cycle_duals = false;
  bool has_deadline = false;
  Clock::time_point deadline;

  std::atomic<int> best_cost{std::numeric_limits<int>::max()};
  std::mutex best_mutex;
  std::vector<std::size_t> best_assignment;

  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> cap_hits{0};
  std::atomic<bool> aborted{false};
  /// Set (alongside `aborted`) when ExactOptions::abort cancelled the
  /// solve — either the shared stop flag or the external cost bound.
  std::atomic<bool> external_abort{false};
  /// The admissible root bound, frozen before the search starts — the
  /// proven lower bound the external cost-bound check compares against
  /// (a tighter per-node bound would make cancellation timing depend
  /// on traversal order; the root bound keeps it a pure function of
  /// the problem and the bound value).
  int root_lb = 0;

  /// Cross-task dominance table of the parallel phase (null for a
  /// sequential solve, which keeps its faster lock-free private table).
  SharedTable* shared_table = nullptr;
  /// Work-stealing pool of a parallel solve (null sequentially). A
  /// searcher polls pool->hungry() every ~1024 nodes and donates its
  /// shallowest untried subtrees while workers are starving.
  runtime::StealPool* pool = nullptr;
};

/// Runs one pinned-prefix subtree task on the shared context. This is
/// the steal boundary: a solve that was cancelled (externally via
/// SearchAbortHook, or by budget/clock) must not start stolen
/// subtrees, so both flags are checked before any node is expanded —
/// a raced portfolio loser dies here instead of burning a 1024-node
/// cadence per stolen task.
void search_subtree(SearchContext& ctx, const std::vector<std::size_t>& prefix);

/// One flat branch-and-bound task: an explicit frame stack over a move
/// arena explores every completion of a pinned prefix — no recursion,
/// no per-node allocation. Node counts flush to the shared context
/// every 1024 nodes; the wall clock, the cross-task abort flag and the
/// pool's hunger signal are checked at the same cadence, while the
/// node cap is checked per node (so `max_nodes = 10` still aborts
/// after exactly 10 nodes sequentially). When the pool reports hungry
/// workers the searcher donates its shallowest untried subtrees: the
/// last candidate move of a shallow frame is removed from the owner's
/// range and republished as a pinned-prefix task, so the owner and the
/// thief partition the tree exactly — no node is searched twice and
/// none is lost. A sequential solve owns a private flat transposition
/// table sized to its K; parallel tasks share the context's striped
/// table, so nothing unsynchronized is written cross-task.
class Searcher {
 public:
  explicit Searcher(SearchContext& ctx)
      : ctx_(ctx),
        n_(ctx.seq.size()),
        accesses_(ctx.seq.accesses().data()),
        use_bound_terms_(ctx.bounds.dense()),
        states_(ctx.registers),
        assignment_(ctx.seq.size(), kUnassigned),
        table_(ctx.registers, ctx.seq.size() + kKeySentinels,
               ctx.table_cap) {
    if (use_bound_terms_) matching_.emplace(ctx.bounds);
  }

  /// Explores every completion of `prefix` (accesses [0, prefix.size())
  /// pinned), sharing the incumbent, node budget and abort state.
  void run(const std::vector<std::size_t>& prefix) {
    if (ctx_.aborted.load(std::memory_order_relaxed)) return;
    const int prefix_cost = replay_prefix(prefix);
    if (visit(prefix.size(), prefix_cost)) {
      loop();
    }
    flush();
  }

  /// Publishes any locally buffered node / cap-hit counts.
  void flush() {
    if (local_nodes_ != 0) {
      flushed_total_ =
          ctx_.nodes.fetch_add(local_nodes_, std::memory_order_relaxed) +
          local_nodes_;
      local_nodes_ = 0;
    }
    if (local_cap_hits_ != 0) {
      ctx_.cap_hits.fetch_add(local_cap_hits_, std::memory_order_relaxed);
      local_cap_hits_ = 0;
    }
  }

 private:
  struct RegisterState {
    bool used = false;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    /// Cached wrap cost last -> first and `first`'s zero-wrap horizon
    /// (SuffixBounds::wrap_zero_horizon): together they give the
    /// register's wrap floor, updated O(1) on assign/undo so bound
    /// evaluation touches no O(N^2) table.
    std::uint8_t wrap_direct = 0;
    std::size_t wrap_horizon = 0;
  };

  /// Candidate placement of the next access, ordered by (step, tie):
  /// cheapest first, then SearchContext::nearest_first's tie order.
  struct Move {
    std::uint32_t reg;
    std::int32_t step;
    std::uint32_t tie;
    bool fresh;
  };

  static bool before(const Move& a, const Move& b) {
    return a.step != b.step ? a.step < b.step : a.tie < b.tie;
  }

  /// One suspended search node: the arena slice of its candidate
  /// moves, the cursor into them, and the undo record of the move
  /// currently applied below it.
  struct Frame {
    std::uint32_t next = 0;  ///< the access this frame assigns
    int cost = 0;            ///< partial cost before assigning it
    std::uint32_t move_begin = 0;
    std::uint32_t move_end = 0;
    std::uint32_t move_cursor = 0;
    std::uint32_t applied_reg = 0;
    std::uint32_t saved_last = 0;
    std::uint8_t saved_direct = 0;
    bool applied_fresh = false;
    bool has_applied = false;
  };

  void reset() {
    states_.assign(ctx_.registers, RegisterState{});
    used_count_ = 0;
    std::fill(assignment_.begin(), assignment_.end(), kUnassigned);
    frames_.clear();
    arena_.clear();
    aborted_ = false;
    duals_.reset();
    duals_tried_ = !(ctx_.cycle_duals && use_bound_terms_);
  }

  /// Applies a pinned prefix and returns its transition cost.
  int replay_prefix(const std::vector<std::size_t>& prefix) {
    reset();
    int cost = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      RegisterState& state = states_[prefix[i]];
      if (state.used) {
        cost += transition(state.last, i);
        state.last = static_cast<std::uint32_t>(i);
        state.wrap_direct = wrap_cost(i, state.first);
      } else {
        state.used = true;
        state.first = state.last = static_cast<std::uint32_t>(i);
        state.wrap_direct = wrap_cost(i, i);
        state.wrap_horizon = horizon(i);
        ++used_count_;
      }
      assignment_[i] = prefix[i];
    }
    start_next_ = prefix.size();
    start_used_ = used_count_;
    if (matching_) {
      if (prefix.empty()) {
        matching_->start_at_root();
      } else {
        std::vector<std::size_t> lasts;
        for (std::size_t r = 0; r < used_count_; ++r) {
          lasts.push_back(states_[r].last);
        }
        matching_->rebuild(prefix.size(), lasts);
      }
    }
    return cost;
  }

  int transition(std::size_t last, std::size_t next) const {
    return ctx_.bounds.intra_cost(last, next);
  }

  std::uint8_t wrap_cost(std::size_t last, std::size_t first) const {
    return static_cast<std::uint8_t>(ctx_.bounds.wrap_direct(last, first));
  }

  std::size_t horizon(std::size_t first) const {
    return use_bound_terms_ ? ctx_.bounds.wrap_zero_horizon(first) : 0;
  }

  /// Admissible lower bound on partial cost + everything still to pay,
  /// evaluated from the residual matching, the cycle duals' running
  /// value and the per-register caches alone. Matching term: an
  /// unassigned access that neither opens an unused register nor
  /// follows a matched free edge pays one. Wrap term: each open
  /// register that can no longer close for free pays one. Once built,
  /// the cycle duals' value bounds the intra and wrap cost together;
  /// the larger of the two bounds counts.
  int lower_bound(std::size_t next, int partial) const {
    if (!use_bound_terms_) return partial;
    const std::size_t unassigned = n_ - next;
    const std::size_t free_entries =
        matching_->size() + (ctx_.registers - used_count_);
    int rest = unassigned > free_entries
                   ? static_cast<int>(unassigned - free_entries)
                   : 0;
    for (std::size_t r = 0; r < used_count_; ++r) {
      const RegisterState& s = states_[r];
      if (s.wrap_direct != 0 && next >= s.wrap_horizon) ++rest;
    }
    if (duals_) rest = std::max(rest, cycle_value_);
    return partial + rest;
  }

  /// Fills key_ with the used registers' register_key() words at the
  /// state whose first unassigned access is `next`, in ascending order:
  /// with `next`, the dominance key of both tables. Equal keys have
  /// equal completion costs (see register_key), so a state whose key was
  /// already reached at no higher cost holds no leaf cheaper than one
  /// the search has explored: cutting it changes no recorded leaf.
  void make_key(std::size_t next) {
    for (std::size_t r = 0; r < used_count_; ++r) {
      const RegisterState& s = states_[r];
      const std::uint64_t word =
          register_key(ctx_.bounds, next, s.first, s.last, s.wrap_direct);
      std::size_t i = r;
      for (; i > 0 && word < key_[i - 1]; --i) key_[i] = key_[i - 1];
      key_[i] = word;
    }
  }

  /// True when the subtree can be cut because a state of the same key
  /// was already reached at no higher cost; records the new cost
  /// otherwise. Parallel tasks share one striped table (every
  /// sibling's states prune here too); a sequential solve keeps its
  /// private flat table.
  bool dominated(std::size_t next, int cost) {
    if (!ctx_.use_dominance) return false;
    make_key(next);
    if (ctx_.shared_table != nullptr) {
      StateKey key;
      key.words.fill(~std::uint64_t{0});
      key.words[0] = next;
      std::copy(key_.begin(), key_.begin() + used_count_,
                key.words.begin() + 1);
      return ctx_.shared_table->dominated(key, cost, local_cap_hits_);
    }
    return table_.dominated(static_cast<std::uint32_t>(next), key_.data(),
                            used_count_, cost, local_cap_hits_);
  }

  /// Per-node accounting at the state whose first unassigned access is
  /// `next`: the node cap is exact; the wall clock, the cross-task abort
  /// flag and the pool's hunger signal are read every 1024 nodes, and
  /// the first such checkpoint builds the cycle duals.
  bool count_node(std::size_t next) {
    ++local_nodes_;
    if (flushed_total_ + local_nodes_ > ctx_.max_nodes) {
      abort_solve();
      return false;
    }
    if ((local_nodes_ & 1023) == 0) {
      flush();
      if (ctx_.has_deadline && Clock::now() > ctx_.deadline) {
        abort_solve();
        return false;
      }
      if (ctx_.options.abort.armed() &&
          ctx_.options.abort.should_abort(ctx_.root_lb)) {
        ctx_.external_abort.store(true, std::memory_order_relaxed);
        abort_solve();
        return false;
      }
      if (ctx_.aborted.load(std::memory_order_relaxed)) {
        aborted_ = true;
        return false;
      }
      if (!duals_tried_) build_cycle_duals(next);
      if (ctx_.pool != nullptr && ctx_.pool->hungry()) {
        donate_subtrees();
      }
    }
    return true;
  }

  /// Solves the register-cycle assignment for the run's start state
  /// (its pinned prefix) and brings its value to the current state by
  /// walking the moves applied since — done once per run, at its first
  /// checkpoint, so a solve that ends within 1024 nodes never pays the
  /// O(rows^3) setup. Above CycleDuals::kMaxRows unassigned accesses
  /// the run keeps the matching bound alone.
  void build_cycle_duals(std::size_t next) {
    duals_tried_ = true;
    if (n_ - start_next_ > CycleDuals::kMaxRows) return;
    // Under the fresh rule register r is the r-th one opened, so the
    // start state's endpoints are indexed by register.
    std::vector<std::size_t> firsts;
    std::vector<std::size_t> lasts(start_used_);
    for (std::size_t i = 0; i < start_next_; ++i) {
      if (assignment_[i] == firsts.size()) firsts.push_back(i);
      lasts[assignment_[i]] = i;
    }
    duals_.emplace(ctx_.bounds, start_next_, firsts, lasts, ctx_.registers);
    cycle_value_ = duals_->value();
    for (std::size_t i = start_next_; i < next; ++i) {
      const std::size_t reg = assignment_[i];
      if (reg < lasts.size()) {
        cycle_value_ -= duals_->price(i, lasts[reg]);
        lasts[reg] = i;
      } else {
        cycle_value_ -= duals_->price(i, ResidualMatching::kNoAccess);
        lasts.push_back(i);
      }
    }
  }

  /// Feeds starving workers: scanning from the shallowest frame — the
  /// biggest pending subtrees — republish the *last* untried move of
  /// any frame whose subtree still has at least kDefaultStealGrain
  /// unassigned accesses as a stealable pinned-prefix task, removing
  /// it from the owner's candidate range. Taking from the cheap-first
  /// range's tail keeps the owner on the likeliest-best moves; the
  /// shallow-first scan makes stolen work as large as possible.
  /// Donation mutates only this searcher's own frames, so it is safe
  /// at any point of the flat loop.
  void donate_subtrees() {
    runtime::StealPool& pool = *ctx_.pool;
    for (std::size_t f = 0; f < frames_.size() && pool.hungry(); ++f) {
      Frame& frame = frames_[f];
      if (n_ - frame.next < kDefaultStealGrain) {
        break;  // deeper frames have even shorter suffixes
      }
      while (frame.move_cursor < frame.move_end && pool.hungry()) {
        --frame.move_end;
        const Move move = arena_[frame.move_end];
        // Accesses [0, frame.next) are all assigned (each shallower
        // frame has its move applied), and a fresh move's register
        // index was fixed against exactly this prefix at push time —
        // so the donated prefix is a valid fresh-rule pin.
        std::vector<std::size_t> prefix(
            assignment_.begin(),
            assignment_.begin() + static_cast<std::ptrdiff_t>(frame.next));
        prefix.push_back(move.reg);
        SearchContext& ctx = ctx_;
        pool.donate([&ctx, donated = std::move(prefix)] {
          search_subtree(ctx, donated);
        });
      }
    }
  }

  void abort_solve() {
    aborted_ = true;
    ctx_.aborted.store(true, std::memory_order_relaxed);
  }

  void record_leaf(int cost) {
    int total = cost;
    for (std::size_t r = 0; r < used_count_; ++r) {
      total += states_[r].wrap_direct;
    }
    ctx_.record_solution(total, assignment_);
  }

  /// True when registers `a` and `b` are interchangeable for every
  /// possible future: transition and wrap distances depend only on the
  /// endpoint accesses' (offset, stride), so value-identical first and
  /// last accesses make the subtrees isomorphic.
  bool equivalent_registers(std::size_t a, std::size_t b) const {
    return accesses_[states_[a].first] == accesses_[states_[b].first] &&
           accesses_[states_[a].last] == accesses_[states_[b].last];
  }

  /// The visit steps of one node, in the same order (and with the same
  /// node-counting semantics) as the pre-flattening recursive solver:
  /// incumbent/bound prune, budget, leaf, dominance, then a frame with
  /// the ordered moves. True when a frame was pushed.
  bool visit(std::size_t next, int cost) {
    if (aborted_ ||
        lower_bound(next, cost) >=
            ctx_.best_cost.load(std::memory_order_relaxed)) {
      return false;
    }
    if (!count_node(next)) return false;
    if (next == n_) {
      record_leaf(cost);
      return false;
    }
    if (dominated(next, cost)) return false;
    push_frame(next, cost);
    return true;
  }

  /// Tie rank of appending `next` to register `r`: 0 in phase 2 (the
  /// fresh register's 1 sorts it last); the |offset distance| in phase
  /// 1, saturated below the fresh register's rank.
  std::uint32_t append_tie(std::size_t r, std::size_t next) const {
    if (!ctx_.nearest_first) return 0;
    const ir::Access& from = accesses_[states_[r].last];
    const ir::Access& to = accesses_[next];
    if (from.stride != to.stride) return kFreshTie - 1;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::llabs(to.offset - from.offset)),
        kFreshTie - 1));
  }

  /// Generates the candidate moves of `next` into the arena and pushes
  /// the frame. Used registers occupy indices [0, used_count_): one
  /// move per distinct register state plus at most one fresh opening,
  /// cheapest-first. A stable insertion sort keeps equal moves in
  /// register order without the buffer std::stable_sort allocates.
  void push_frame(std::size_t next, int cost) {
    const std::uint32_t begin = static_cast<std::uint32_t>(arena_.size());
    for (std::size_t r = 0; r < used_count_; ++r) {
      bool symmetric = false;
      for (std::size_t prior = 0; prior < r && !symmetric; ++prior) {
        symmetric = equivalent_registers(prior, r);
      }
      if (symmetric) continue;
      arena_.push_back(Move{static_cast<std::uint32_t>(r),
                            transition(states_[r].last, next),
                            append_tie(r, next), false});
    }
    if (used_count_ < ctx_.registers) {
      arena_.push_back(Move{static_cast<std::uint32_t>(used_count_), 0,
                            ctx_.nearest_first ? kFreshTie : 1, true});
    }
    for (std::size_t i = begin + 1; i < arena_.size(); ++i) {
      const Move move = arena_[i];
      std::size_t j = i;
      for (; j > begin && before(move, arena_[j - 1]); --j) {
        arena_[j] = arena_[j - 1];
      }
      arena_[j] = move;
    }
    Frame frame;
    frame.next = static_cast<std::uint32_t>(next);
    frame.cost = cost;
    frame.move_begin = begin;
    frame.move_end = static_cast<std::uint32_t>(arena_.size());
    frame.move_cursor = begin;
    frames_.push_back(frame);
  }

  void apply_move(Frame& frame, const Move& move) {
    RegisterState& state = states_[move.reg];
    const std::size_t previous_last =
        move.fresh ? ResidualMatching::kNoAccess : state.last;
    if (matching_) matching_->assign(previous_last);
    if (duals_) cycle_value_ -= duals_->price(frame.next, previous_last);
    assignment_[frame.next] = move.reg;
    frame.applied_reg = move.reg;
    frame.applied_fresh = move.fresh;
    frame.has_applied = true;
    if (move.fresh) {
      state.used = true;
      state.first = state.last = frame.next;
      state.wrap_direct = wrap_cost(frame.next, frame.next);
      state.wrap_horizon = horizon(frame.next);
      ++used_count_;
    } else {
      frame.saved_last = state.last;
      frame.saved_direct = state.wrap_direct;
      state.last = frame.next;
      state.wrap_direct = wrap_cost(frame.next, state.first);
    }
  }

  void undo_move(Frame& frame) {
    RegisterState& state = states_[frame.applied_reg];
    if (matching_) matching_->undo();
    assignment_[frame.next] = kUnassigned;
    if (frame.applied_fresh) {
      state = RegisterState{};
      --used_count_;
    } else {
      state.last = frame.saved_last;
      state.wrap_direct = frame.saved_direct;
    }
    if (duals_) {
      cycle_value_ += duals_->price(frame.next,
                                    frame.applied_fresh
                                        ? ResidualMatching::kNoAccess
                                        : frame.saved_last);
    }
    frame.has_applied = false;
  }

  /// The flat DFS driver: the top frame undoes its applied move, then
  /// either advances to its next candidate or pops (releasing its
  /// arena slice). An abort just unwinds — the incumbent is already
  /// recorded in the context. Moves are sorted by step, so once one
  /// would pay the incumbent, visit would cut it and every move after
  /// it before counting a node: the frame is done.
  void loop() {
    while (!frames_.empty()) {
      Frame& frame = frames_.back();
      if (frame.has_applied) undo_move(frame);
      if (aborted_ || frame.move_cursor == frame.move_end) {
        arena_.resize(frame.move_begin);
        frames_.pop_back();
        continue;
      }
      const Move move = arena_[frame.move_cursor++];
      if (frame.cost + move.step >=
          ctx_.best_cost.load(std::memory_order_relaxed)) {
        frame.move_cursor = frame.move_end;
        continue;
      }
      apply_move(frame, move);
      visit(frame.next + 1, frame.cost + move.step);
    }
  }

  SearchContext& ctx_;
  const std::size_t n_;
  /// The sequence's accesses, for the symmetry test and phase 1's tie
  /// order.
  const ir::Access* accesses_;
  const bool use_bound_terms_;

  std::vector<RegisterState> states_;
  std::size_t used_count_ = 0;
  /// The intra term of lower_bound, kept current by apply_move /
  /// undo_move and rebuilt by replay_prefix (dense bounds only).
  std::optional<ResidualMatching> matching_;
  /// The run's start state: its first unassigned access and open
  /// register count.
  std::size_t start_next_ = 0;
  std::size_t start_used_ = 0;
  /// The register-cycle assignment of the start state, once built, and
  /// its value walked down to the current state (the cycle term of
  /// lower_bound), kept current by apply_move / undo_move. duals_tried_
  /// is set once the build is done or skipped.
  std::optional<CycleDuals> duals_;
  int cycle_value_ = 0;
  bool duals_tried_ = true;
  std::vector<std::size_t> assignment_;
  std::vector<Frame> frames_;
  std::vector<Move> arena_;
  TranspositionTable table_;
  /// The register words of a table lookup (make_key).
  std::array<std::uint64_t, kMaxDominanceRegisters> key_{};

  std::uint64_t local_nodes_ = 0;
  std::uint64_t flushed_total_ = 0;
  std::uint64_t local_cap_hits_ = 0;
  bool aborted_ = false;
};

void search_subtree(SearchContext& ctx,
                    const std::vector<std::size_t>& prefix) {
  if (ctx.aborted.load(std::memory_order_relaxed)) return;
  if (ctx.options.abort.armed() &&
      ctx.options.abort.should_abort(ctx.root_lb)) {
    ctx.external_abort.store(true, std::memory_order_relaxed);
    ctx.aborted.store(true, std::memory_order_relaxed);
    return;
  }
  Searcher searcher(ctx);
  searcher.run(prefix);
}

/// Cheap left-to-right sweep (place each access on the register with
/// the cheapest transition, honoring any pinned prefix) to start the
/// search with a finite incumbent; dramatically improves pruning.
void seed_incumbent_with_greedy_sweep(SearchContext& ctx) {
  struct SweepState {
    bool used = false;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  const ir::AccessSequence& seq = ctx.seq;
  const SuffixBounds& costs = ctx.bounds;
  const std::vector<std::size_t>& pinned = ctx.options.pinned_prefix;
  std::vector<SweepState> states(ctx.registers);
  std::vector<std::size_t> assignment(seq.size(), 0);
  int cost = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    std::size_t best_r = 0;
    int best_step = std::numeric_limits<int>::max();
    if (i < pinned.size()) {
      best_r = pinned[i];
      best_step =
          states[best_r].used ? costs.intra_cost(states[best_r].last, i) : 0;
    } else {
      for (std::size_t r = 0; r < ctx.registers; ++r) {
        const int step =
            states[r].used ? costs.intra_cost(states[r].last, i) : 0;
        if (step < best_step) {
          best_step = step;
          best_r = r;
        }
      }
    }
    if (!states[best_r].used) {
      states[best_r] = SweepState{true, i, i};
    } else {
      cost += best_step;
      states[best_r].last = i;
    }
    assignment[i] = best_r;
  }
  for (const SweepState& s : states) {
    if (s.used) cost += costs.wrap_direct(s.last, s.first);
  }
  // The greedy assignment is achievable (it respects the pin), so it
  // is a valid incumbent: the search then only records strictly better
  // solutions, and an exhausted search proves the incumbent optimal.
  ctx.best_cost.store(cost, std::memory_order_relaxed);
  ctx.best_assignment = std::move(assignment);
}

/// Replaces the greedy incumbent with the caller's warm start (e.g.
/// the two-phase heuristic's allocation) when that is cheaper. The
/// warm start must be a valid exact cover: every access on exactly
/// one path (duplicate coverage would double-count total_cost and
/// seed an unachievable incumbent, silently corrupting the proof) —
/// and must agree with any pinned prefix, or the incumbent would not
/// live in the searched subspace.
void seed_incumbent_with_warm_start(SearchContext& ctx) {
  const std::vector<Path>& warm = ctx.options.warm_start;
  if (warm.empty()) return;
  const ir::AccessSequence& seq = ctx.seq;
  std::size_t covered = 0;
  std::vector<std::size_t> assignment(seq.size(), kUnassigned);
  for (std::size_t r = 0; r < warm.size(); ++r) {
    covered += warm[r].size();
    for (std::size_t i = 0; i < warm[r].size(); ++i) {
      const std::size_t access = warm[r][i];
      check_arg(access < seq.size(),
                "exact_min_cost_allocation: warm start access index "
                "out of range");
      assignment[access] = r;
    }
  }
  check_arg(covered == seq.size() &&
                std::find(assignment.begin(), assignment.end(),
                          kUnassigned) == assignment.end() &&
                warm.size() <= ctx.registers,
            "exact_min_cost_allocation: warm start is not a valid "
            "allocation");
  const std::vector<std::size_t>& pinned = ctx.options.pinned_prefix;
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    check_arg(assignment[i] == pinned[i],
              "exact_min_cost_allocation: warm start disagrees with the "
              "pinned prefix");
  }
  int cost = 0;
  for (const Path& path : warm) cost += ctx.bounds.path_cost(path);
  if (cost >= ctx.best_cost.load(std::memory_order_relaxed)) return;
  ctx.best_cost.store(cost, std::memory_order_relaxed);
  ctx.best_assignment = std::move(assignment);
}

/// Runs the solve on a work-stealing pool: one root task explores the
/// whole tree, and donation (Searcher::donate_subtrees, driven by
/// StealPool::hungry()) keeps carving stealable subtrees off busy
/// workers for as long as any worker is starving — so deep unbalanced
/// trees rebalance continuously instead of once at the root. All
/// tasks share the incumbent, node budget and a striped transposition
/// table. Fills the pool's schedule-dependent diagnostics into
/// `result`; the proven cost is identical at any jobs level.
void run_parallel(SearchContext& ctx, std::size_t jobs,
                  ExactResult& result) {
  SharedTable shared(ctx.table_cap);
  if (ctx.use_dominance) ctx.shared_table = &shared;
  {
    runtime::StealPool pool(jobs);
    ctx.pool = &pool;
    std::vector<std::size_t> root = ctx.options.pinned_prefix;
    pool.submit([&ctx, seed = std::move(root)] {
      search_subtree(ctx, seed);
    });
    pool.wait_done();
    // All tasks have finished, so no worker can donate or read the
    // pool pointer anymore.
    ctx.pool = nullptr;
    const runtime::StealPoolStats stats = pool.stats();
    result.subtree_tasks = stats.executed;
    result.steals = stats.steals;
    result.steal_attempts = stats.steal_attempts;
    result.splits = stats.donated;
    result.worker_busy_us = stats.busy_us;
    pool.rethrow_first_failure();
  }
  ctx.shared_table = nullptr;
}

/// The paths of an access -> register assignment, in register order.
std::vector<Path> paths_of(const std::vector<std::size_t>& assignment,
                           std::size_t registers) {
  std::vector<std::vector<std::size_t>> groups(registers);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    groups[assignment[i]].push_back(i);
  }
  std::vector<Path> paths;
  for (auto& group : groups) {
    if (!group.empty()) paths.emplace_back(std::move(group));
  }
  return paths;
}

ExactResult run_search(const SuffixBounds& costs, std::size_t registers,
                       const ExactOptions& options) {
  SearchContext ctx(costs, registers, options);
  ctx.cycle_duals = true;
  seed_incumbent_with_greedy_sweep(ctx);
  seed_incumbent_with_warm_start(ctx);

  // An incumbent already at the root bound is proven without a node.
  const int root_lb = ctx.bounds.root_lower_bound(registers);
  ctx.root_lb = root_lb;
  ExactResult result;
  if (ctx.best_cost.load(std::memory_order_relaxed) > root_lb) {
    // An externally cancelled racer dies before its first node — not
    // just at the 1024-node cadence — so a hopeless solve costs ~zero.
    if (options.abort.armed() && options.abort.should_abort(root_lb)) {
      ctx.external_abort.store(true, std::memory_order_relaxed);
      ctx.aborted.store(true, std::memory_order_relaxed);
    } else {
      ctx.arm_deadline();
      const std::size_t jobs = std::max<std::size_t>(1, options.jobs);
      if (jobs == 1) {
        Searcher searcher(ctx);
        searcher.run(options.pinned_prefix);
      } else {
        run_parallel(ctx, jobs, result);
      }
    }
  }

  result.proven = !ctx.aborted.load(std::memory_order_relaxed);
  result.nodes = ctx.nodes.load(std::memory_order_relaxed);
  result.cost = ctx.best_cost.load(std::memory_order_relaxed);
  result.lower_bound =
      result.proven ? result.cost : std::min(root_lb, result.cost);
  result.table_cap_hits = ctx.cap_hits.load(std::memory_order_relaxed);
  result.external_abort = ctx.external_abort.load(std::memory_order_relaxed);
  result.paths = paths_of(ctx.best_assignment, registers);
  return result;
}

}  // namespace

ExactResult exact_min_cost_allocation(const ir::AccessSequence& seq,
                                      const CostModel& model,
                                      std::size_t registers,
                                      const ExactOptions& options) {
  return exact_min_cost_allocation(SuffixBounds(seq, model), registers,
                                   options);
}

ExactResult exact_min_cost_allocation(const SuffixBounds& costs,
                                      std::size_t registers,
                                      const ExactOptions& options) {
  const ir::AccessSequence& seq = costs.sequence();
  check_arg(registers >= 1,
            "exact_min_cost_allocation: need at least one register");
  if (seq.empty()) {
    ExactResult empty;
    empty.proven = true;
    return empty;
  }

  // More registers than accesses never helps (each access occupies at
  // most one); clamping keeps the state tables small for generous K.
  const std::size_t effective = std::min(registers, seq.size());
  check_arg(options.pinned_prefix.size() <= seq.size(),
            "exact_min_cost_allocation: pinned prefix longer than the "
            "sequence");
  std::size_t opened = 0;
  for (const std::size_t reg : options.pinned_prefix) {
    check_arg(reg < effective,
              "exact_min_cost_allocation: pinned register out of range");
    if (reg == opened) {
      ++opened;
    } else {
      check_arg(reg < opened,
                "exact_min_cost_allocation: pinned prefix must open "
                "registers in increasing order (fresh rule)");
    }
  }

  ExactResult result = run_search(costs, effective, options);
  check_invariant(result.cost != std::numeric_limits<int>::max(),
                  "exact_min_cost_allocation: no assignment found");
  validate_allocation(seq, result.paths, registers);
  return result;
}

ZeroCostCover zero_cost_cover(const ir::AccessSequence& seq,
                              const CostModel& model, std::size_t registers,
                              std::uint64_t max_nodes) {
  return zero_cost_cover(SuffixBounds(seq, model), registers, max_nodes);
}

ZeroCostCover zero_cost_cover(const SuffixBounds& costs,
                              std::size_t registers,
                              std::uint64_t max_nodes) {
  const ir::AccessSequence& seq = costs.sequence();
  check_arg(registers >= 1, "zero_cost_cover: need at least one register");
  ZeroCostCover result;
  result.proven = true;
  if (seq.empty()) {
    result.paths.emplace();
    return result;
  }

  const std::size_t effective = std::min(registers, seq.size());
  ExactOptions options;
  options.max_nodes = max_nodes;
  SearchContext ctx(costs, effective, options);
  ctx.nearest_first = true;
  // An incumbent of cost 1 with no witness: the bound cuts every partial
  // assignment that would pay anything, and the first zero-cost leaf
  // (cost 0 < 1) is recorded and ends the search.
  ctx.best_cost.store(1, std::memory_order_relaxed);
  if (costs.root_lower_bound(effective) == 0) {
    Searcher searcher(ctx);
    searcher.run({});
  }

  // The node that tripped the cap was refused, not expanded.
  result.nodes =
      std::min(ctx.nodes.load(std::memory_order_relaxed), max_nodes);
  if (ctx.best_cost.load(std::memory_order_relaxed) == 0) {
    result.paths = paths_of(ctx.best_assignment, effective);
    validate_allocation(seq, *result.paths, registers);
    check_invariant(total_cost(seq, *result.paths, costs.model()) == 0,
                    "zero_cost_cover: the cover is not zero-cost");
  } else {
    result.proven = !ctx.aborted.load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace dspaddr::core
