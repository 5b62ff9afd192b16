#!/usr/bin/env bash
# Quick figure tables for an equivalence check between two builds.
#
#   scripts/quick_tables.sh BUILD_DIR OUT_DIR
#
# Runs every figure, ablation and table bench under BUILD_DIR/bench with
# `--quick --csv --jobs=$(nproc)` and writes each one's stdout to
# OUT_DIR/<bench>.csv. The quick sweeps are simulated and deterministic, so
# comparing a parent build with a change is
#
#   scripts/quick_tables.sh parent/build /tmp/before
#   scripts/quick_tables.sh build /tmp/after
#   diff -r /tmp/before /tmp/after
#
# The benches run from a scratch working directory, so nothing they write
# next to themselves lands in OUT_DIR or the source tree. Exits nonzero if
# any bench fails.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi

bench_dir="$(cd "$1/bench" && pwd)"
mkdir -p "$2"
out_dir="$(cd "$2" && pwd)"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

benches=(
  fig01_motivation fig02_abort_analysis fig08_throughput fig09_abort_compare
  fig10_scalability fig11_getput_ratio fig12_distributions fig13_ablation
  fig_scan fig_latency_load abl_fallback abl_machine_model abl_structure
  abl_timeline tab_memory
)

status=0
for b in "${benches[@]}"; do
  echo "== $b" >&2
  if ! (cd "$work_dir" && "$bench_dir/$b" --quick --csv --jobs="$(nproc)") \
      > "$out_dir/$b.csv"; then
    echo "quick_tables: $b failed" >&2
    status=1
  fi
done
exit "$status"
