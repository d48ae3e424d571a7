// Quickstart: the paper's worked example (Fig. 1), end to end.
//
// Builds the access sequence of section 2, prints the zero-cost graph
// model, then hands the kernel to the engine — the library's public
// API, which runs both allocator phases for a 2-register AGU, plans
// modify registers, generates the address program and replays it on
// the simulator. A second identical request demonstrates the engine's
// fingerprint cache.
//
//   $ ./quickstart
#include <iostream>

#include "core/bounds.hpp"
#include "engine/engine.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"

int main() {
  using namespace dspaddr;

  // for (i = 2; i <= N; i++) {
  //   A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
  // }
  const ir::Kernel kernel = ir::builtin_kernel("paper_example");
  const ir::AccessSequence seq = ir::lower(kernel);

  std::cout << "=== Access pattern (offsets w.r.t. loop variable) ===\n";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    std::cout << "  a_" << (i + 1) << ": A[i"
              << (seq[i].offset >= 0 ? "+" : "")
              << seq[i].offset << "]\n";
  }

  // The graph model of Fig. 1: an edge (a_i, a_j) means a_j's address
  // is a free post-modify away from a_i's (|distance| <= M).
  const core::CostModel model{/*modify_range=*/1,
                              core::WrapPolicy::kCyclic};
  const core::SuffixBounds costs(seq, model);
  std::cout << "\n=== Zero-cost graph (M = 1), cf. Fig. 1 ===\n";
  for (const auto& [from, to] : costs.free_intra_edges()) {
    std::cout << "  (a_" << (from + 1) << ", a_" << (to + 1) << ")\n";
  }

  // The whole pipeline through the engine, for an AGU with K = 2
  // address registers and no modify registers.
  engine::Engine engine;
  engine::Request request;
  request.kernel = kernel;
  request.machine.name = "example2";
  request.machine.set_address_registers(2);
  request.machine.set_modify_registers(0);
  request.machine.set_modify_range(1);
  request.iterations = 100;

  const engine::Result result = engine.run(request);
  if (!result.ok()) {
    std::cerr << "pipeline failed in " << engine::stage_name(
                     result.error->stage)
              << ": " << result.error->message << "\n";
    return 1;
  }

  std::cout << "\n=== Phase 1 ===\n"
            << "  K~ (virtual registers for a zero-cost allocation): "
            << *result.k_tilde << "\n"
            << "  matching lower bound: " << result.stats.lower_bound
            << "\n";

  std::cout << "\n=== Phase 2 (merge to K = 2 registers) ===\n"
            << result.allocation_text;

  std::cout << "\n=== Generated address code ===\n"
            << result.program.to_string();

  std::cout << "\n=== Simulation (100 iterations) ===\n"
            << "  addresses verified: "
            << (result.verified ? "yes" : "NO") << "\n"
            << "  extra address instructions: "
            << result.sim.extra_instructions << " (predicted "
            << 100 * result.allocation_cost << ")\n";

  // Identical request again: answered from the fingerprint cache.
  const engine::Result repeat = engine.run(request);
  const engine::CacheStats stats = engine.cache_stats();
  std::cout << "\n=== Engine cache ===\n"
            << "  repeat request was a cache "
            << (repeat.cache_hit ? "hit" : "miss") << " ("
            << stats.hits << " hit(s), " << stats.misses
            << " miss(es))\n";
  return result.verified && repeat.cache_hit ? 0 : 1;
}
