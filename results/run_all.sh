#!/bin/bash
# Regenerates every table and figure under results/: builds the mbt-bench
# harnesses in release, then runs each one into results/<name>.txt.
# Run from anywhere: results/run_all.sh
cd "$(dirname "$0")/.." || exit 1
cargo build --release -p mbt-bench --bins || exit 1
bins="${CARGO_TARGET_DIR:-target}/release"
for bin in table1 fig2 table2 table3 bem_solve ablation fmm_compare fmm_depth; do
  echo "=== running $bin ==="
  "$bins/$bin" > "results/$bin.txt" 2>&1
  echo "=== $bin done (exit $?) ==="
done
echo ALL_HARNESSES_DONE
