#include "agu/machines.hpp"

#include <gtest/gtest.h>

#include <set>

#include "engine/engine.hpp"
#include "ir/kernels.hpp"
#include "support/check.hpp"

namespace dspaddr::agu {
namespace {

/// Lowers, allocates, plans MRs, generates code and simulates `kernel`
/// on `machine` through the engine's default pipeline.
engine::Result run_on_machine(const ir::Kernel& kernel,
                              const AguSpec& machine) {
  engine::Request request;
  request.kernel = kernel;
  request.machine = machine;
  engine::Engine engine;
  engine::Result result = engine.run(request);
  EXPECT_TRUE(result.ok()) << result.error->message;
  return result;
}

TEST(Machines, CatalogIsWellFormed) {
  const auto machines = builtin_machines();
  EXPECT_GE(machines.size(), 6u);
  std::set<std::string> names;
  for (const AguSpec& machine : machines) {
    SCOPED_TRACE(machine.name);
    EXPECT_FALSE(machine.name.empty());
    EXPECT_FALSE(machine.description.empty());
    EXPECT_GE(machine.address_registers(), 1u);
    EXPECT_GE(machine.modify_range(), 1);
    names.insert(machine.name);
  }
  EXPECT_EQ(names.size(), machines.size()) << "duplicate machine names";
}

TEST(Machines, LookupByName) {
  const AguSpec c25 = builtin_machine("tms320c25");
  EXPECT_EQ(c25.address_registers(), 8u);
  EXPECT_EQ(c25.modify_registers(), 1u);
  EXPECT_THROW(builtin_machine("pdp11"), dspaddr::InvalidArgument);
  EXPECT_EQ(builtin_machine_names().size(), builtin_machines().size());
}

TEST(Machines, RunOnMachineVerifiesEverywhere) {
  // Every kernel on every machine must execute correctly and match the
  // analytic residual cost.
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    for (const AguSpec& machine : builtin_machines()) {
      SCOPED_TRACE(kernel.name() + " on " + machine.name);
      const engine::Result report = run_on_machine(kernel, machine);
      EXPECT_TRUE(report.verified);
      EXPECT_GE(report.allocation_cost, report.plan.residual_cost);
      EXPECT_GE(report.plan.residual_cost, 0);
    }
  }
}

TEST(Machines, ModifyRegistersOnlyHelp) {
  // adsp218x is tms320c54x-shaped with 8 MRs instead of 1: residual
  // cost can only improve.
  const ir::Kernel kernel = ir::filter2d_3x3_kernel(32);
  const engine::Result one_mr =
      run_on_machine(kernel, builtin_machine("tms320c54x"));
  const engine::Result eight_mrs =
      run_on_machine(kernel, builtin_machine("adsp218x"));
  EXPECT_EQ(one_mr.allocation_cost, eight_mrs.allocation_cost);
  EXPECT_LE(eight_mrs.plan.residual_cost, one_mr.plan.residual_cost);
}

TEST(Machines, SmallMachineCostsMore) {
  // 2 registers without MRs can't beat 8 registers with MRs.
  const ir::Kernel kernel = ir::paper_example_kernel();
  const engine::Result small =
      run_on_machine(kernel, builtin_machine("minimal2"));
  const engine::Result large =
      run_on_machine(kernel, builtin_machine("adsp218x"));
  EXPECT_GE(small.plan.residual_cost, large.plan.residual_cost);
}

TEST(Machines, WiderImmediateRangeLowersAllocationCost) {
  // wide4 (M = 2, K = 4) vs a hypothetical M = 1, K = 4 machine.
  const ir::Kernel kernel = ir::paper_example_kernel();
  AguSpec narrow;
  narrow.name = "narrow4";
  narrow.description = "test";
  narrow.set_address_registers(4);
  narrow.set_modify_registers(0);
  narrow.set_modify_range(1);
  const engine::Result n = run_on_machine(kernel, narrow);
  const engine::Result w = run_on_machine(kernel, builtin_machine("wide4"));
  EXPECT_LE(w.allocation_cost, n.allocation_cost);
}

}  // namespace
}  // namespace dspaddr::agu
