#include "core/transposition_table.hpp"

#include <algorithm>
#include <cstring>

namespace dspaddr::core {

namespace {

/// Slots of the first allocation.
constexpr std::size_t kInitialCapacity = 64;

constexpr std::uint16_t kAllOnes = 0xffff;

}  // namespace

TranspositionTable::TranspositionTable(std::size_t registers,
                                       std::size_t field_limit,
                                       std::size_t cap)
    : field_units_(field_limit <= kAllOnes ? 1 : 2),
      key_units_((1 + 2 * registers) * field_units_),
      stride_(kCostUnits + key_units_),
      cap_(cap),
      probe_(key_units_, kAllOnes) {}

void TranspositionTable::pack(std::uint32_t next, const std::uint64_t* words,
                              std::size_t used) {
  Unit* out = probe_.data();
  const auto put = [&](std::uint32_t value) {
    *out++ = static_cast<Unit>(value);
    if (field_units_ == 2) *out++ = static_cast<Unit>(value >> 16);
  };
  put(next);
  for (std::size_t r = 0; r < used; ++r) {
    put(static_cast<std::uint32_t>(words[r] >> 32));
    put(static_cast<std::uint32_t>(words[r]));
  }
  // Unused registers keep the all-ones sentinel.
  std::fill(out, probe_.data() + key_units_, kAllOnes);
}

std::size_t TranspositionTable::home(const Unit* key) const {
  // FNV-1a over the units, then Fibonacci hashing onto the capacity.
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < key_units_; ++i) {
    hash = (hash ^ key[i]) * 1099511628211ULL;
  }
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32) &
         (capacity_ - 1);
}

int TranspositionTable::cost_at(std::size_t slot) const {
  std::int32_t cost = 0;
  std::memcpy(&cost, slots_.data() + slot * stride_, sizeof cost);
  return cost;
}

void TranspositionTable::set_cost(std::size_t slot, int cost) {
  const std::int32_t value = cost;
  std::memcpy(slots_.data() + slot * stride_, &value, sizeof value);
}

bool TranspositionTable::dominated(std::uint32_t next,
                                   const std::uint64_t* words,
                                   std::size_t used, int cost,
                                   std::uint64_t& cap_hits) {
  pack(next, words, used);
  const std::size_t key_bytes = key_units_ * sizeof(Unit);
  if (capacity_ != 0) {
    for (std::size_t slot = home(probe_.data());;
         slot = (slot + 1) & (capacity_ - 1)) {
      const int stored = cost_at(slot);
      if (stored < 0) break;
      if (std::memcmp(slots_.data() + slot * stride_ + kCostUnits,
                      probe_.data(), key_bytes) == 0) {
        if (stored <= cost) return true;
        set_cost(slot, cost);
        return false;
      }
    }
  }
  if (size_ >= cap_) {
    ++cap_hits;
    return false;
  }
  // Keep the load at most one half so probe runs stay short.
  if (2 * (size_ + 1) > capacity_) grow();
  std::size_t slot = home(probe_.data());
  while (cost_at(slot) >= 0) slot = (slot + 1) & (capacity_ - 1);
  std::memcpy(slots_.data() + slot * stride_ + kCostUnits, probe_.data(),
              key_bytes);
  set_cost(slot, cost);
  ++size_;
  return false;
}

void TranspositionTable::grow() {
  std::vector<Unit> old = std::move(slots_);
  const std::size_t old_capacity = capacity_;
  capacity_ = old_capacity == 0 ? kInitialCapacity : 2 * old_capacity;
  // All ones: every cost reads -1, every slot is empty.
  slots_.assign(capacity_ * stride_, kAllOnes);
  for (std::size_t from = 0; from < old_capacity; ++from) {
    const Unit* entry = old.data() + from * stride_;
    std::int32_t cost = 0;
    std::memcpy(&cost, entry, sizeof cost);
    if (cost < 0) continue;
    std::size_t slot = home(entry + kCostUnits);
    while (cost_at(slot) >= 0) slot = (slot + 1) & (capacity_ - 1);
    std::memcpy(slots_.data() + slot * stride_, entry,
                stride_ * sizeof(Unit));
  }
}

}  // namespace dspaddr::core
