// The sequential exact search's dominance table (core/exact.hpp): the
// cheapest partial cost at which the search continued from each state
// it has seen, so a later visit at no lower cost can be cut.
//
// A state's key is the next access to assign and one word per used
// register, first_word << 32 | last_word, in the order the caller gives
// (the search passes core::register_key words in ascending order, so a
// key names every state whose future is the same). The table is a flat
// open-addressing array (linear probing, power-of-two capacity, no
// allocation per insert) whose slots are sized to the solve: a cost and
// 1 + 2K fields for K registers, unused registers' fields all ones.
// Fields are 16 bits wide while every value and the all-ones sentinel
// fit in them (values below 65,535) and 32 bits wide beyond, so keys
// are exact at any N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dspaddr::core {

class TranspositionTable {
 public:
  /// A table for states of `registers` registers whose fields (the
  /// next access and each half of a register word) are all below
  /// `field_limit`, that stops inserting once it holds `cap` entries.
  /// Memory is taken on the first insertion and grows with the entries.
  TranspositionTable(std::size_t registers, std::size_t field_limit,
                     std::size_t cap);

  /// True when the state (next, words) was already reached at no
  /// higher cost; `words` holds one first << 32 | last word for each of
  /// the `used` registers. Otherwise records the state at `cost` —
  /// lowering an entry on a cheaper revisit, inserting a new one while
  /// fewer than `cap` are held and counting the refusal in `cap_hits`
  /// after that — and returns false.
  bool dominated(std::uint32_t next, const std::uint64_t* words,
                 std::size_t used, int cost, std::uint64_t& cap_hits);

  /// Entries held.
  std::size_t size() const { return size_; }

 private:
  using Unit = std::uint16_t;
  /// Units of the cost at the start of each slot; a negative cost marks
  /// an empty slot.
  static constexpr std::size_t kCostUnits = sizeof(std::int32_t) / sizeof(Unit);

  void pack(std::uint32_t next, const std::uint64_t* words, std::size_t used);
  std::size_t home(const Unit* key) const;
  int cost_at(std::size_t slot) const;
  void set_cost(std::size_t slot, int cost);
  void grow();

  /// Units per index field: 1 (16-bit fields) or 2 (32-bit fields).
  const std::size_t field_units_;
  const std::size_t key_units_;
  const std::size_t stride_;
  const std::size_t cap_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<Unit> slots_;
  /// The packed key of the current lookup.
  std::vector<Unit> probe_;
};

}  // namespace dspaddr::core
