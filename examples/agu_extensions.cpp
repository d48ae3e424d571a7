// Example: squeezing the last unit costs out with AGU extensions.
//
// Starts from a register-starved allocation of the paper's example,
// then shows two levers beyond the paper's core technique:
//   1. modify registers — load the hot over-range distances into MRs so
//      the AGU post-modifies through them for free;
//   2. loop unrolling — amortize wrap transitions across copies.
// Every variant is executed on the AGU simulator.
//
//   $ ./agu_extensions
#include <iostream>

#include "agu/codegen.hpp"
#include "agu/simulator.hpp"
#include "core/allocator.hpp"
#include "core/modify_registers.hpp"
#include "ir/unroll.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

int main() {
  using namespace dspaddr;

  const auto seq =
      ir::AccessSequence::from_offsets({1, 0, 2, -1, 1, 0, -2});
  core::ProblemConfig config;
  config.modify_range = 1;
  config.registers = 2;  // register-starved: K < K~ = 3

  const core::Allocation base = core::RegisterAllocator(config).run(seq);
  std::cout << "Paper example, K = 2: cost " << base.cost()
            << " unit-cost address computations per iteration.\n\n";

  support::Table table({"variant", "cost/original iteration",
                        "sim extra instrs (100 iters)", "verified"});

  const auto simulate = [](const ir::AccessSequence& s,
                           const agu::Program& p) {
    return agu::Simulator{}.run(p, s, 100);
  };

  {
    const agu::Program p = agu::generate_code(seq, base);
    const agu::SimResult r = simulate(seq, p);
    table.add_row({"baseline (paper technique)",
                   std::to_string(base.cost()),
                   std::to_string(r.extra_instructions),
                   r.verified ? "yes" : "NO"});
  }

  for (const std::size_t mrs : {1u, 2u}) {
    const auto plan = core::plan_modify_registers(seq, base, mrs);
    const agu::Program p = agu::generate_code(seq, base, plan);
    const agu::SimResult r = simulate(seq, p);
    table.add_row({"+ " + std::to_string(mrs) + " modify register" +
                       (mrs > 1 ? "s" : ""),
                   std::to_string(plan.residual_cost),
                   std::to_string(r.extra_instructions),
                   r.verified ? "yes" : "NO"});
  }

  {
    constexpr std::size_t kFactor = 2;
    const ir::AccessSequence unrolled = ir::unroll(seq, kFactor);
    const core::Allocation a =
        core::RegisterAllocator(config).run(unrolled);
    const agu::Program p = agu::generate_code(unrolled, a);
    const agu::SimResult r = agu::Simulator{}.run(p, unrolled, 50);
    table.add_row({"unrolled x2 (50 unrolled iters)",
                   support::format_fixed(
                       static_cast<double>(a.cost()) / kFactor, 1),
                   std::to_string(r.extra_instructions),
                   r.verified ? "yes" : "NO"});
  }

  table.write(std::cout);
  std::cout << "\nModify registers eliminate unit costs whose distance "
               "repeats; unrolling trades code size for fewer wrap "
               "updates per original iteration.\n";
  return 0;
}
