// Experiment T8 (extension) — quality of the two-phase heuristic
// against the exact optimum, and the exact solver on real workloads.
//
// The paper evaluates its heuristic only against a *naive* allocator;
// this bench adds the missing upper reference: an exact
// branch-and-bound over all register assignments (core/exact.hpp). For
// small instances it reports the mean heuristic and optimal costs, the
// mean relative gap, and how often the heuristic is exactly optimal —
// quantifying how much of the naive-to-optimal interval the two-phase
// scheme actually captures.
//
// Three further tables exercise the parallel and tiled solvers, two on
// real unrolled workloads (workloads/*.kern):
//  * the anytime ladder — heuristic vs tiled vs full exact on the
//    50–200-access kernels the tiled mode exists for;
//  * the scaling table — prefixes of the unrolled stencil at growing N
//    under a fixed wall-clock budget, sequential vs parallel, with the
//    max proven N per jobs level;
//  * the steal table — the deep-unbalanced skewed-strided family at
//    jobs 1/2/8, reporting splits, steals, the steal rate and the
//    worker-idle fraction.
// Nodes/sec and max proven N depend on the host's clock and load, so
// they are printed as data, not gated. The one check is deterministic:
// a proven cost is the optimum, so two jobs levels that both prove an
// instance must report the same cost — the bench exits 1 otherwise.
// Pass --scaling-csv=PATH to also write every scaling and steal row
// (nodes/sec, max proven N, steal diagnostics) as one CSV artifact for
// CI, and --quick to shrink the tables to a CI-budget smoke run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/allocator.hpp"
#include "core/exact.hpp"
#include "core/tiled.hpp"
#include "eval/patterns.hpp"
#include "ir/layout.hpp"
#include "ir/parser.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace dspaddr;

// --quick shrinks every table to a CI-budget smoke run: same check,
// fewer sizes and trials.
bool g_quick = false;

void print_gap_table() {
  const std::size_t kTrials = g_quick ? 10 : 40;
  const core::CostModel model{1, core::WrapPolicy::kCyclic};

  support::Table table({"N", "K", "naive", "heuristic", "optimal",
                        "heuristic optimal in", "captured"});
  const std::vector<std::size_t> sizes =
      g_quick ? std::vector<std::size_t>{8, 12}
              : std::vector<std::size_t>{8, 10, 12, 14};
  for (const std::size_t n : sizes) {
    for (const std::size_t k : {2u, 3u}) {
      support::RunningStats naive_stats, heuristic_stats, optimal_stats;
      std::size_t hit_optimal = 0;
      support::Rng rng(0xE8ac7 ^ (n * 1009) ^ k);
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        eval::PatternSpec spec;
        spec.accesses = n;
        spec.offset_range = 6;
        const ir::AccessSequence seq = eval::generate_pattern(spec, rng);

        core::ProblemConfig config;
        config.modify_range = 1;
        config.registers = k;
        const int heuristic =
            core::RegisterAllocator(config).run(seq).cost();
        const int naive = baselines::naive_allocate(seq, config).cost();
        const core::ExactResult exact =
            core::exact_min_cost_allocation(seq, model, k);

        naive_stats.add(naive);
        heuristic_stats.add(heuristic);
        optimal_stats.add(exact.cost);
        if (heuristic == exact.cost) ++hit_optimal;
      }
      // Fraction of the naive-to-optimal interval the heuristic closes.
      const double interval =
          naive_stats.mean() - optimal_stats.mean();
      const double captured =
          interval > 0.0
              ? 100.0 * (naive_stats.mean() - heuristic_stats.mean()) /
                    interval
              : 100.0;
      table.add_row({
          std::to_string(n),
          std::to_string(k),
          support::format_fixed(naive_stats.mean(), 2),
          support::format_fixed(heuristic_stats.mean(), 2),
          support::format_fixed(optimal_stats.mean(), 2),
          support::format_percent(100.0 * hit_optimal / kTrials, 0),
          support::format_percent(captured, 0),
      });
    }
  }
  std::cout << "T8: two-phase heuristic vs exact optimum (" << kTrials
            << " uniform patterns per row, M = 1)\n\n";
  table.write(std::cout);
  std::cout << "\n'captured' = share of the naive-to-optimal cost "
               "interval closed by the heuristic.\n\n";
}

// ------------------------------------------------------------------
// Real-workload tables: the anytime ladder and the parallel scaling
// table, both on the unrolled kernels in workloads/.

ir::AccessSequence load_workload(const std::string& file) {
  const std::string path =
      std::string(DSPADDR_SOURCE_DIR) + "/workloads/" + file;
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "missing workload file " << path << "\n";
    std::exit(1);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ir::lower(ir::parse_kernel(text.str()));
}

ir::AccessSequence sequence_prefix(const ir::AccessSequence& seq,
                                   std::size_t n) {
  std::vector<ir::Access> accesses(seq.accesses().begin(),
                                   seq.accesses().begin() +
                                       static_cast<std::ptrdiff_t>(n));
  return ir::AccessSequence(std::move(accesses));
}

/// Wall-clock budget per solve in the workload tables. Small enough to
/// keep the smoke run quick, large enough that the sequential solver
/// proves the mid sizes — the interesting frontier.
constexpr std::int64_t kWorkloadBudgetMs = 250;

void print_workload_ladder() {
  constexpr std::size_t kRegisters = 3;
  const core::CostModel model{1, core::WrapPolicy::kCyclic};

  support::Table table({"workload", "N", "K", "heuristic", "tiled",
                        "windows proven", "exact", "exact status"});
  for (const char* file :
       {"fir64_unroll4.kern", "stencil3x3_unroll8.kern"}) {
    const ir::AccessSequence seq = load_workload(file);

    core::ProblemConfig config;
    config.modify_range = 1;
    config.registers = kRegisters;
    config.phase2.mode = core::Phase2Options::Mode::kHeuristic;
    const int heuristic = core::RegisterAllocator(config).run(seq).cost();

    core::TiledOptions tiled_options;
    tiled_options.time_budget_ms = kWorkloadBudgetMs;
    const core::TiledResult tiled = core::tiled_min_cost_allocation(
        seq, model, kRegisters, tiled_options);

    core::ExactOptions exact_options;
    exact_options.time_budget_ms = kWorkloadBudgetMs;
    exact_options.max_nodes = 1'000'000'000;
    const core::ExactResult exact =
        core::exact_min_cost_allocation(seq, model, kRegisters,
                                        exact_options);

    table.add_row({
        file,
        std::to_string(seq.size()),
        std::to_string(kRegisters),
        std::to_string(heuristic),
        std::to_string(tiled.cost),
        std::to_string(tiled.windows_proven) + "/" +
            std::to_string(tiled.windows),
        std::to_string(exact.cost),
        exact.proven ? "proven"
                     : "gap " + std::to_string(exact.gap()),
    });
  }
  std::cout << "Anytime ladder on unrolled workloads (K = 3, M = 1, "
            << kWorkloadBudgetMs << " ms budget per solver)\n\n";
  table.write(std::cout);
  std::cout << "\nheuristic = paper's two-phase merge; tiled = windowed "
               "exact + stitching;\nexact = full anytime search on one "
               "thread, as the allocator runs it.\n\n";
}

/// One scaling measurement: the exact solver on one instance (workload
/// prefix or generated pattern) at a fixed wall-clock budget. Rows
/// from the scaling and steal tables share the CSV artifact.
struct ScalingRow {
  std::string workload;
  std::size_t n = 0;
  std::size_t jobs = 0;
  core::ExactResult result;
  double nodes_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::size_t max_proven_n = 0;
};

/// Stolen-per-donated ratio: how much of the published work thieves
/// actually picked up (the rest was popped back by the donor).
double steal_rate(const core::ExactResult& result) {
  return result.splits == 0
             ? 0.0
             : static_cast<double>(result.steals) /
                   static_cast<double>(result.splits);
}

/// Fraction of worker-seconds the pool spent parked rather than
/// searching: 1 - busy / (jobs * wall). Negative clamp guards clock
/// granularity. Meaningless for the sequential path (no pool).
double idle_fraction(const ScalingRow& row) {
  if (row.jobs <= 1 || row.wall_seconds <= 0.0) {
    return 0.0;
  }
  const double busy =
      static_cast<double>(row.result.worker_busy_us) / 1e6;
  const double capacity =
      static_cast<double>(row.jobs) * row.wall_seconds;
  return std::max(0.0, 1.0 - busy / capacity);
}

void write_scaling_csv(const std::string& csv_path,
                       const std::vector<ScalingRow>& rows) {
  if (csv_path.empty()) return;
  support::CsvWriter csv({"workload", "n", "k", "jobs", "budget_ms",
                          "proven", "cost", "lower_bound", "nodes",
                          "nodes_per_sec", "subtree_tasks", "splits",
                          "steals", "steal_attempts", "steal_rate",
                          "idle_frac", "table_cap_hits",
                          "max_proven_n"});
  for (const ScalingRow& row : rows) {
    csv.add_row({
        row.workload,
        std::to_string(row.n),
        "3",
        std::to_string(row.jobs),
        std::to_string(kWorkloadBudgetMs),
        row.result.proven ? "yes" : "no",
        std::to_string(row.result.cost),
        std::to_string(row.result.lower_bound),
        std::to_string(row.result.nodes),
        support::format_fixed(row.nodes_per_sec, 0),
        std::to_string(row.result.subtree_tasks),
        std::to_string(row.result.splits),
        std::to_string(row.result.steals),
        std::to_string(row.result.steal_attempts),
        support::format_fixed(steal_rate(row.result), 3),
        support::format_fixed(idle_fraction(row), 3),
        std::to_string(row.result.table_cap_hits),
        std::to_string(row.max_proven_n),
    });
  }
  std::ofstream out(csv_path);
  if (!out.good()) {
    std::cerr << "cannot write scaling CSV to " << csv_path << "\n";
    std::exit(1);
  }
  csv.write(out);
  std::cout << "scaling CSV written to " << csv_path << " ("
            << rows.size() << " rows)\n\n";
}

/// Prints the scaling table; returns how many instances proved
/// different costs at jobs 1 and 8.
std::size_t print_scaling_table(std::vector<ScalingRow>& csv_rows) {
  constexpr std::size_t kRegisters = 3;
  const char* kWorkload = "stencil3x3_unroll8.kern";
  const core::CostModel model{1, core::WrapPolicy::kCyclic};
  const ir::AccessSequence full = load_workload(kWorkload);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<ScalingRow> rows;
  std::size_t max_proven_seq = 0;
  std::size_t max_proven_par = 0;
  std::size_t cost_mismatches = 0;
  support::Table table({"N", "jobs", "proven", "cost", "nodes",
                        "nodes/sec", "subtree tasks"});
  const std::vector<std::size_t> sizes =
      g_quick ? std::vector<std::size_t>{24, 40, 56}
              : std::vector<std::size_t>{24, 32, 40, 48, 56, 64, 72};
  for (const std::size_t n : sizes) {
    if (n > full.size()) continue;
    const ir::AccessSequence seq = sequence_prefix(full, n);
    ScalingRow seq_row, par_row;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
      core::ExactOptions options;
      options.time_budget_ms = kWorkloadBudgetMs;
      options.max_nodes = 1'000'000'000;
      options.jobs = jobs;
      const auto start = std::chrono::steady_clock::now();
      ScalingRow row;
      row.workload = kWorkload;
      row.n = n;
      row.jobs = jobs;
      row.result =
          core::exact_min_cost_allocation(seq, model, kRegisters, options);
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      row.nodes_per_sec =
          row.wall_seconds > 0.0
              ? static_cast<double>(row.result.nodes) / row.wall_seconds
              : 0.0;
      if (row.result.proven) {
        if (jobs == 1) {
          max_proven_seq = std::max(max_proven_seq, n);
        } else {
          max_proven_par = std::max(max_proven_par, n);
        }
      }
      (jobs == 1 ? seq_row : par_row) = row;
      table.add_row({
          std::to_string(n),
          std::to_string(jobs),
          row.result.proven ? "yes" : "no",
          std::to_string(row.result.cost),
          std::to_string(row.result.nodes),
          support::format_fixed(row.nodes_per_sec / 1e6, 2) + "M",
          std::to_string(row.result.subtree_tasks),
      });
      rows.push_back(std::move(row));
    }
    // Proven costs are the optimum — any jobs-level disagreement is a
    // solver bug, not a tuning artifact.
    if (seq_row.result.proven && par_row.result.proven &&
        seq_row.result.cost != par_row.result.cost) {
      ++cost_mismatches;
    }
  }

  std::cout << "Parallel scaling on " << kWorkload << " prefixes (K = "
            << kRegisters << ", M = 1, " << kWorkloadBudgetMs
            << " ms budget, " << hw << " hardware threads)\n\n";
  table.write(std::cout);
  std::cout << "\nmax proven N: sequential " << max_proven_seq
            << ", parallel " << max_proven_par << "\n";
  std::cout << "proven-cost mismatches across jobs levels: "
            << cost_mismatches << " (must be 0)\n\n";

  for (ScalingRow& row : rows) {
    row.max_proven_n = row.jobs == 1 ? max_proven_seq : max_proven_par;
    csv_rows.push_back(std::move(row));
  }
  return cost_mismatches;
}

/// The work-stealing table: the deep-unbalanced skewed-strided family
/// (long dominant ramps, rare far jumps — one subtree dwarfs its
/// siblings, so a static decomposition starves every worker but one)
/// at jobs 1, 2 and 8, with the schedule diagnostics that show the
/// scheduler actually moved work: splits, steals, the steal rate and
/// the worker-idle fraction. Returns how many solves proved a cost
/// other than an earlier jobs level's proven cost.
std::size_t print_steal_table(std::vector<ScalingRow>& csv_rows) {
  constexpr std::size_t kRegisters = 3;
  const core::CostModel model{1, core::WrapPolicy::kCyclic};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  support::Table table({"N", "jobs", "proven", "cost", "nodes",
                        "nodes/sec", "splits", "steals", "steal rate",
                        "idle frac"});
  std::size_t cost_mismatches = 0;
  double seq_nodes_per_sec = 0.0;
  double par_nodes_per_sec = 0.0;
  std::size_t measurements = 0;
  const std::vector<std::size_t> sizes =
      g_quick ? std::vector<std::size_t>{28, 34}
              : std::vector<std::size_t>{28, 34, 40};
  for (const std::size_t n : sizes) {
    support::Rng rng(0x57EA1 ^ (n * 7919));
    eval::PatternSpec spec;
    spec.accesses = n;
    spec.offset_range = 8;
    spec.family = eval::PatternFamily::kSkewedStrided;
    const ir::AccessSequence seq = eval::generate_pattern(spec, rng);

    int proven_cost = 0;
    bool have_proven_cost = false;
    for (const std::size_t jobs :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      core::ExactOptions options;
      options.time_budget_ms = kWorkloadBudgetMs;
      options.max_nodes = 1'000'000'000;
      options.jobs = jobs;
      const auto start = std::chrono::steady_clock::now();
      ScalingRow row;
      row.workload = "skewed-strided";
      row.n = n;
      row.jobs = jobs;
      row.result =
          core::exact_min_cost_allocation(seq, model, kRegisters, options);
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      row.nodes_per_sec =
          row.wall_seconds > 0.0
              ? static_cast<double>(row.result.nodes) / row.wall_seconds
              : 0.0;
      if (row.result.proven) {
        if (have_proven_cost && row.result.cost != proven_cost) {
          ++cost_mismatches;
        }
        proven_cost = row.result.cost;
        have_proven_cost = true;
        row.max_proven_n = n;
      }
      if (jobs == 1) {
        seq_nodes_per_sec += row.nodes_per_sec;
        ++measurements;
      } else if (jobs == 8) {
        par_nodes_per_sec += row.nodes_per_sec;
      }
      table.add_row({
          std::to_string(n),
          std::to_string(jobs),
          row.result.proven ? "yes" : "no",
          std::to_string(row.result.cost),
          std::to_string(row.result.nodes),
          support::format_fixed(row.nodes_per_sec / 1e6, 2) + "M",
          std::to_string(row.result.splits),
          std::to_string(row.result.steals),
          support::format_fixed(steal_rate(row.result), 2),
          jobs == 1 ? "-" : support::format_fixed(idle_fraction(row), 2),
      });
      csv_rows.push_back(std::move(row));
    }
  }

  const double seq_mean =
      measurements > 0 ? seq_nodes_per_sec / measurements : 0.0;
  const double par_mean =
      measurements > 0 ? par_nodes_per_sec / measurements : 0.0;
  std::cout << "Work-stealing on deep-unbalanced skewed-strided trees "
               "(K = "
            << kRegisters << ", M = 1, " << kWorkloadBudgetMs
            << " ms budget, " << hw << " hardware threads)\n\n";
  table.write(std::cout);
  std::cout << "\nsteal rate = steals / splits (thief pickup share); "
               "idle frac = parked worker-seconds / capacity.\n";
  std::cout << "proven-cost mismatches across jobs levels: "
            << cost_mismatches << " (must be 0)\n";
  std::cout << "mean nodes/sec: jobs=1 "
            << support::format_fixed(seq_mean / 1e6, 2) << "M, jobs=8 "
            << support::format_fixed(par_mean / 1e6, 2) << "M\n\n";
  return cost_mismatches;
}

void BM_ExactAllocator(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(5);
  eval::PatternSpec spec;
  spec.accesses = n;
  spec.offset_range = 6;
  const ir::AccessSequence seq = eval::generate_pattern(spec, rng);
  const core::CostModel model{1, core::WrapPolicy::kCyclic};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::exact_min_cost_allocation(seq, model, 2).cost);
  }
}
BENCHMARK(BM_ExactAllocator)->Arg(8)->Arg(12)->Arg(16);


}  // namespace

int main(int argc, char** argv) {
  // Pull out our own flags before Google Benchmark sees (and rejects)
  // them.
  std::string scaling_csv;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--scaling-csv=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      scaling_csv = argv[i] + std::strlen(kFlag);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  print_gap_table();
  print_workload_ladder();
  std::vector<ScalingRow> csv_rows;
  std::size_t cost_mismatches = print_scaling_table(csv_rows);
  cost_mismatches += print_steal_table(csv_rows);
  write_scaling_csv(scaling_csv, csv_rows);
  if (cost_mismatches != 0) {
    std::cerr << "FAILED: " << cost_mismatches
              << " proven cost(s) differ across jobs levels\n";
    return 1;
  }
  if (g_quick) {
    // The microbenchmarks add nothing the tables have not already
    // checked; skip them inside the CI time budget.
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
