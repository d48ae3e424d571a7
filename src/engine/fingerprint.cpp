#include "engine/fingerprint.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "engine/engine.hpp"

namespace dspaddr::engine {

std::string request_fingerprint(const Request& request,
                                const ir::AccessSequence& lowered) {
  const std::uint64_t sim_iterations = request.iterations.value_or(
      static_cast<std::uint64_t>(request.kernel.iterations()));

  std::string key;
  key.reserve(128 + lowered.size() * 8);
  // v2: layout and allocation strategies joined the key — two strategy
  // pairs must never share a cache entry, even when they happen to
  // lower to the same sequence (e.g. single-array kernels, where every
  // layout is the identity).
  // v3: the machine's bare (K, L, M) triple was replaced by its full
  // structural key, so machines that agree on the triple but differ in
  // window asymmetry, free widths or addressing mode never alias.
  // v4: the parallel solver's steal grain became a constant and left
  // the key.
  key += "v4|layout=";
  key += request.layout;
  key += "|strat=";
  key += request.strategy;
  key += "|seq=";
  for (const ir::Access& access : lowered.accesses()) {
    key += std::to_string(access.offset);
    key += ':';
    key += std::to_string(access.stride);
    key += ',';
  }
  key += "|ops=";
  key += std::to_string(request.kernel.data_ops());
  key += "|it=";
  key += std::to_string(request.kernel.iterations());
  key += "|sim=";
  key += std::to_string(sim_iterations);
  key += "|machine=";
  key += request.machine.structural_key();
  key += "|p2=";
  key += std::to_string(static_cast<int>(request.phase2.mode));
  key += ',';
  key += std::to_string(request.phase2.exact_access_limit);
  key += ',';
  key += std::to_string(request.phase2.max_nodes);
  key += ',';
  key += std::to_string(request.phase2.time_budget_ms);
  // The jobs level never changes costs, but the serialized diagnostics
  // (node counts, subtree tasks, steal counts) do vary with it — and
  // the tile geometry, auto-width included, changes the allocation
  // itself — so none of them may alias in the cache.
  key += ',';
  key += std::to_string(request.phase2.jobs);
  key += ',';
  key += std::to_string(request.phase2.tile_width);
  key += ',';
  key += std::to_string(request.phase2.tile_overlap);
  key += ',';
  key += request.phase2.tile_width_auto ? "auto" : "fixed";
  key += "|stop=";
  key += std::to_string(static_cast<int>(request.stop_after));
  return key;
}

std::string request_feature_key(const Request& request,
                                const ir::AccessSequence& lowered) {
  // The stride profile: distinct |stride| magnitudes in ascending
  // order, capped so pathological kernels cannot blow up the key. Two
  // kernels sweeping the same array shapes at different bases share a
  // profile — which is exactly the aliasing the learned table wants.
  constexpr std::size_t kMaxProfile = 8;
  std::vector<std::int64_t> profile;
  for (const ir::Access& access : lowered.accesses()) {
    profile.push_back(std::llabs(access.stride));
  }
  std::sort(profile.begin(), profile.end());
  profile.erase(std::unique(profile.begin(), profile.end()), profile.end());
  if (profile.size() > kMaxProfile) profile.resize(kMaxProfile);

  std::string key;
  key.reserve(96);
  key += "pf1|n=";
  key += std::to_string(lowered.size());
  key += "|k=";
  key += std::to_string(request.machine.address_registers());
  key += "|l=";
  key += std::to_string(request.machine.modify_registers());
  key += "|w=";
  key += std::to_string(request.machine.modify_lo);
  key += ':';
  key += std::to_string(request.machine.modify_hi);
  key += "|free=";
  for (const std::int64_t width : request.machine.free_widths) {
    key += std::to_string(width);
    key += ',';
  }
  key += "|strides=";
  for (const std::int64_t stride : profile) {
    key += std::to_string(stride);
    key += ',';
  }
  key += "|p2=";
  key += std::to_string(static_cast<int>(request.phase2.mode));
  key += "|stop=";
  key += std::to_string(static_cast<int>(request.stop_after));
  return key;
}

}  // namespace dspaddr::engine
