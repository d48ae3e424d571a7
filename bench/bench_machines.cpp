// Experiment T11 (extension) — the kernel suite across AGU
// configurations modeled after real DSP families.
//
// The paper's parameters (K, M) plus the modify-register count span the
// practical AGU design space; this bench shows, per kernel, the
// per-iteration addressing cost that remains on each machine model —
// i.e. where extra address registers pay off and where modify
// registers do. Every cell is simulator-verified.
#include <benchmark/benchmark.h>

#include <iostream>

#include "agu/machines.hpp"
#include "engine/engine.hpp"
#include "ir/kernels.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace dspaddr;

/// One cell through the engine's default pipeline. A capacity-0 engine
/// computes every request, so the benchmark below never times a cache
/// hit.
engine::Result run_on_machine(engine::Engine& engine, const ir::Kernel& kernel,
                              const agu::AguSpec& machine) {
  engine::Request request;
  request.kernel = kernel;
  request.machine = machine;
  return engine.run(request);
}

void print_machine_table() {
  engine::Engine engine(engine::Engine::Options{0});
  const auto machines = agu::builtin_machines();
  std::vector<std::string> header{"kernel"};
  for (const agu::AguSpec& machine : machines) {
    header.push_back(machine.name);
  }
  support::Table table(std::move(header));

  std::vector<support::RunningStats> per_machine(machines.size());
  bool all_verified = true;
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    std::vector<std::string> row{kernel.name()};
    for (std::size_t m = 0; m < machines.size(); ++m) {
      const engine::Result result = run_on_machine(engine, kernel, machines[m]);
      all_verified = all_verified && result.verified;
      per_machine[m].add(result.plan.residual_cost);
      row.push_back(std::to_string(result.plan.residual_cost) +
                    (result.verified ? "" : " !"));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> mean_row{"MEAN"};
  for (const auto& stats : per_machine) {
    mean_row.push_back(support::format_fixed(stats.mean(), 2));
  }
  table.add_rule();
  table.add_row(std::move(mean_row));

  std::cout << "T11: residual addressing cost per iteration across AGU "
               "models (simulator-verified: "
            << (all_verified ? "all" : "FAILURES PRESENT") << ")\n\n";
  for (const agu::AguSpec& machine : machines) {
    std::cout << "  " << machine.name
              << ": K=" << machine.address_registers()
              << ", MRs=" << machine.modify_registers()
              << ", M=" << machine.modify_range() << " — "
              << machine.description << '\n';
  }
  std::cout << '\n';
  table.write(std::cout);
  std::cout << '\n';
}

void BM_RunOnMachine(benchmark::State& state) {
  const ir::Kernel kernel = ir::filter2d_3x3_kernel(32);
  const auto machines = agu::builtin_machines();
  const agu::AguSpec machine =
      machines[static_cast<std::size_t>(state.range(0)) % machines.size()];
  engine::Engine engine(engine::Engine::Options{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_on_machine(engine, kernel, machine).plan.residual_cost);
  }
}
BENCHMARK(BM_RunOnMachine)->Arg(0)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  print_machine_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
