#!/usr/bin/env bash
# Regenerates tests/golden/ from the dspaddr CLI and the T1 and T3 benches.
#
# The CSV goldens pin the batch CSV schema and the default-path results;
# the EngineParity tests diff freshly computed sweeps against them byte
# for byte. t1_random_patterns.txt is the paper's T1 table,
# t3_phase1_bounds.txt its T3 table (phase 1's bounds, K~ and search
# nodes), solve_hard.jsonl the serve answers to the exact instances of
# workloads/solve_hard.jsonl, compile_stream_head.jsonl the serve
# answers to the first 200 requests of the benchmark's compile stream
# (workloads/compile_stream_head.jsonl) and response_shapes.jsonl the
# serve answers to workloads/response_shapes.jsonl, the rarer response
# shapes; CI's smoke job compares all five byte for byte. Rerun this script (and eyeball the git diff!)
# whenever the CSV schema or the default pipeline's numbers
# intentionally change. Under the diff stat it prints, for each answer
# golden, tools/diff_answers.py's verdict against the committed version:
# whether anything beyond phase-2 node counts moved.
#
# usage: tools/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
dspaddr="$build/dspaddr"
t1_bench="$build/bench_random_patterns"
t3_bench="$build/bench_path_cover"

for binary in "$dspaddr" "$t1_bench" "$t3_bench"; do
  if [[ ! -x "$binary" ]]; then
    echo "error: $binary not built (cmake --build $build)" >&2
    exit 1
  fi
done

# The builtin grid of EngineParity.BuiltinGridMatchesGoldenCsv.
"$dspaddr" batch \
  --builtin fir,biquad,matmul \
  --machines minimal2,wide4,adsp218x \
  --registers 1,2,4 \
  --modify-range 1,2 \
  --jobs 4 \
  --out "$repo/tests/golden/batch_small_grid.csv"

# The workload grid of EngineParity.WorkloadGridMatchesGoldenCsv
# (every workload file across the whole machine catalog).
"$dspaddr" batch \
  --kernel "$repo/workloads/fir16.kern" \
  --kernel "$repo/workloads/gradient.c" \
  --kernel "$repo/workloads/paper_example.c" \
  --kernel "$repo/workloads/smooth3.c" \
  --kernel "$repo/workloads/stereo_mix.kern" \
  --jobs 4 \
  --out "$repo/tests/golden/batch_workloads.csv"

# The registry-wide grid of EngineParity.MachineRegistryGridMatchesGoldenCsv
# (builtin catalog plus every shipped file-only .machine target, so the
# declarative loader's asymmetric windows, free widths and pre-modify
# addressing are all pinned byte for byte).
"$dspaddr" batch \
  --builtin fir,biquad \
  --machine-file "$repo/workloads/machines/msp430x.machine" \
  --machine-file "$repo/workloads/machines/arm946e.machine" \
  --machine-file "$repo/workloads/machines/dsp56300.machine" \
  --machine-file "$repo/workloads/machines/arm946e_wb.machine" \
  --jobs 4 \
  --out "$repo/tests/golden/batch_machines_grid.csv"

# The paper's T1 table: path merging vs the naive allocator (~40 %).
"$t1_bench" --benchmark_filter=NONE 2>/dev/null \
  > "$repo/tests/golden/t1_random_patterns.txt"

# The paper's T3 table: phase 1's matching bound, K~ and greedy bound,
# and the exact search's nodes, on uniform patterns.
"$t3_bench" --benchmark_filter=NONE 2>/dev/null \
  > "$repo/tests/golden/t3_phase1_bounds.txt"

# The exact search on the benchmark's solve-hard set (the requests of
# perfbench/workloads.py's hard_set(1)): costs, proofs, bounds and node
# counts, with no wall clock.
"$dspaddr" serve --jobs 1 --cache-capacity 0 \
  < "$repo/workloads/solve_hard.jsonl" \
  > "$repo/tests/golden/solve_hard.jsonl"

# The first 200 requests of perfbench/workloads.py's compile_stream(1,
# 1000): short bodies on every strategy and layout, two tiled long
# bodies and four `strategy: auto` races. Machine files are relative
# to the repository root.
serve_binary="$(cd "$(dirname "$dspaddr")" && pwd)/dspaddr"
(cd "$repo" && "$serve_binary" serve --jobs 1 --cache-capacity 0 \
  < workloads/compile_stream_head.jsonl \
  > tests/golden/compile_stream_head.jsonl)

# The response shapes the default-path goldens never show: every
# stop_after prefix, a null k_tilde, an empty body, an inline machine
# spec with an asymmetric window and free widths, a fixed-width tiled
# sweep, an iterations override, an `auto` race and pre-modify
# addressing.
(cd "$repo" && "$serve_binary" serve --jobs 1 --cache-capacity 0 \
  < workloads/response_shapes.jsonl \
  > tests/golden/response_shapes.jsonl)

echo "regenerated:"
git -C "$repo" --no-pager diff --stat -- tests/golden || true

# Each answer golden against its committed version, phase-2 node counts
# aside: a change to the search's pruning may move those and nothing
# else.
committed="$(mktemp -d)"
trap 'rm -rf "$committed"' EXIT
for golden in "$repo"/tests/golden/*.jsonl; do
  name="$(basename "$golden")"
  git -C "$repo" show "HEAD:tests/golden/$name" > "$committed/$name" \
    2>/dev/null || continue
  echo "$name:"
  python3 "$repo/tools/diff_answers.py" "$committed/$name" "$golden" \
    | sed 's/^/  /' || true
done
