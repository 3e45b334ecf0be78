#!/bin/bash
cd /root/repo
for bin in table1 fig2 table2 table3 bem_solve ablation fmm_compare fmm_depth; do
  echo "=== running $bin ==="
  ./target/release/$bin > results/$bin.txt 2>&1
  echo "=== $bin done (exit $?) ==="
done
echo ALL_HARNESSES_DONE
