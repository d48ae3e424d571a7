#include "baselines/baselines.hpp"

#include <limits>

#include "core/validate.hpp"
#include "support/check.hpp"

namespace dspaddr::baselines {

namespace {

core::Allocation allocate_with_merge_strategy(
    const ir::AccessSequence& seq, const core::ProblemConfig& config,
    core::MergeStrategy strategy, std::uint64_t seed) {
  core::ProblemConfig modified = config;
  modified.merge.strategy = strategy;
  modified.merge.seed = seed;
  // A baseline must stay a baseline: without this, the default kAuto
  // phase-2 mode silently upgrades small instances to the exact
  // optimum and the "arbitrary merge" comparator measures nothing.
  modified.phase2.mode = core::Phase2Options::Mode::kHeuristic;
  return core::RegisterAllocator(modified).run(seq);
}

core::Allocation from_register_assignment(
    const ir::AccessSequence& seq, const core::ProblemConfig& config,
    const std::vector<std::size_t>& register_of) {
  std::vector<std::vector<std::size_t>> indices(config.registers);
  for (std::size_t i = 0; i < register_of.size(); ++i) {
    check_invariant(register_of[i] < config.registers,
                    "baseline: register index out of range");
    indices[register_of[i]].push_back(i);
  }
  std::vector<core::Path> paths;
  for (auto& list : indices) {
    if (!list.empty()) paths.emplace_back(std::move(list));
  }
  core::validate_allocation(seq, paths, config.registers);
  return core::Allocation(seq, config.cost_model(), std::move(paths), {});
}

}  // namespace

core::Allocation naive_allocate(const ir::AccessSequence& seq,
                                const core::ProblemConfig& config) {
  return allocate_with_merge_strategy(seq, config,
                                      core::MergeStrategy::kFirstPair, 1);
}

core::Allocation random_merge_allocate(const ir::AccessSequence& seq,
                                       const core::ProblemConfig& config,
                                       std::uint64_t seed) {
  return allocate_with_merge_strategy(seq, config,
                                      core::MergeStrategy::kRandomPair, seed);
}

core::Allocation round_robin_allocate(const ir::AccessSequence& seq,
                                      const core::ProblemConfig& config) {
  std::vector<std::size_t> register_of(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    register_of[i] = i % config.registers;
  }
  return from_register_assignment(seq, config, register_of);
}

core::Allocation greedy_online_allocate(const ir::AccessSequence& seq,
                                        const core::ProblemConfig& config) {
  const core::CostModel model = config.cost_model();
  struct RegisterState {
    bool used = false;
    std::size_t last = 0;
  };
  std::vector<RegisterState> registers(config.registers);
  std::vector<std::size_t> register_of(seq.size());

  for (std::size_t i = 0; i < seq.size(); ++i) {
    std::size_t best = 0;
    // Rank candidates by (transition cost, |distance|); an unused
    // register is free (the before-loop setup is not charged).
    int best_cost = std::numeric_limits<int>::max();
    std::int64_t best_distance = std::numeric_limits<std::int64_t>::max();
    for (std::size_t r = 0; r < registers.size(); ++r) {
      int cost = 0;
      std::int64_t distance = 0;
      if (registers[r].used) {
        cost = core::intra_transition_cost(seq, registers[r].last, i, model);
        const auto d = seq.intra_distance(registers[r].last, i);
        distance = d.has_value() ? std::llabs(*d)
                                 : std::numeric_limits<std::int64_t>::max();
      }
      if (cost < best_cost ||
          (cost == best_cost && distance < best_distance)) {
        best = r;
        best_cost = cost;
        best_distance = distance;
      }
    }
    registers[best].used = true;
    registers[best].last = i;
    register_of[i] = best;
  }
  return from_register_assignment(seq, config, register_of);
}

std::vector<NamedAllocator> all_allocators(std::uint64_t random_seed) {
  std::vector<NamedAllocator> list;
  list.push_back({"path-merge",
                  [](const ir::AccessSequence& seq,
                     const core::ProblemConfig& config) {
                    return core::RegisterAllocator(config).run(seq);
                  }});
  list.push_back({"naive", naive_allocate});
  list.push_back({"random-merge",
                  [random_seed](const ir::AccessSequence& seq,
                                const core::ProblemConfig& config) {
                    return random_merge_allocate(seq, config, random_seed);
                  }});
  list.push_back({"round-robin", round_robin_allocate});
  list.push_back({"greedy-online", greedy_online_allocate});
  return list;
}

}  // namespace dspaddr::baselines
