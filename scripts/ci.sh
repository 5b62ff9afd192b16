#!/usr/bin/env bash
# CI entry point. One job per invocation:
#
#   scripts/ci.sh default   # release-ish build, full test suite + perf gate
#   scripts/ci.sh tsan      # ThreadSanitizer build, thread-heavy suites only
#   scripts/ci.sh asan      # AddressSanitizer build, fault-campaign suites
#   scripts/ci.sh ubsan     # UBSan-only build, conformance + fault suites
#   scripts/ci.sh obsoff    # -DEUNO_OBS=OFF build, full test suite
#
# The default job re-runs the `golden` label explicitly: the fig08,
# abl_fallback, fig_latency_load, fig_scan and fig13 ablation-ladder
# manifests must stay byte-identical, which is the equivalence oracle for
# refactors that change code but not behaviour. It also re-runs the
# `obs-native` label explicitly (the native telemetry round-trip: a native
# bench run with --trace/--metrics-interval/--perf, validated by
# check_trace.py --expect-lanes=thread) and then renders the generated
# manifest with scripts/report.py, which exits nonzero on any manifest
# schema violation.
#
# The default job finishes with the self-perf regression gate: it runs
# bench/sim_selfperf --quick (which emits the BENCH_sim_selfperf.json
# artifact in the build directory) and checks the numbers against
# bench/selfperf_budget.json via scripts/check_selfperf.py — failing on a
# >15% ns-per-access regression, obs-on overhead above 25%, SIMD search
# speedups below their floors, or any bit-identity tripwire.
#
# Last, the default job smokes the repository benchmark: it runs
# `python3 perfbench/run.py --workload W --seconds 1` for each of its four
# workloads (sim-hot, sim-low, kv-store, str-scan) and fails unless the last
# stdout line, the benchmark's JSON result, reports "correct": true and
# "failed": 0. That is the one place CI runs the benchmark's own output
# checks: scan order, final tree size, and freed <= retired suffix boxes.
#
# The tsan job rebuilds with -DEUNO_TSAN=ON and runs the `parallel` label
# (the OS-thread sweep runner), the `lin` label (the linearizability suite,
# whose lin_explore fixture fans runs out across threads via --jobs), and
# the `conformance` label, whose native concurrent stresses cover the
# announce-word three-path policy — built on cross-thread handshakes TSan can
# audit directly.
# The asan job rebuilds with -DEUNO_ASAN=ON and runs the `fault` label (the
# HTM fault-injection campaigns and the hardened retry/fallback paths —
# including retry_loop_test, the shared retry loop driven through a scripted
# RTM backend, so the native RTM branch runs under both ASan and UBSan). The
# native epoch-deferred frees run under ASan in two labels, where a premature
# free is a real heap use-after-free — exactly what ASan exists to catch:
# `store`, whose native multi-threaded soak drives per-shard epoch domains
# concurrently (a cross-domain reclamation bug frees memory a reader in
# another shard still holds), and `strkey` (below), whose native string-tree
# stresses retire suffix boxes under concurrent readers.
# The asan and ubsan jobs also run the `driver` label: driver_test, which
# takes the experiment runner through every backend × target × key-codec
# path (sim and native, single tree and sharded store, u64 and string keys),
# so the runner's captured references and its tree/store teardown run under
# both sanitizers.
# The default, tsan and asan jobs all run the `strkey` label — the
# bytes-key-domain battery (string-native conformance with shared-prefix
# torture, the u64-codec registry sweep over the str-* trees, the SIMD
# prefix-slice equivalence cases, and the fig_scan end-to-end smokes in both
# domains). TSan audits the concurrent suffix-compare/box-swap handshakes;
# ASan turns an early box free under a concurrent reader into a hard fault.
# The ubsan job rebuilds with -DEUNO_UBSAN=ON (UBSan alone, no ASan shadow)
# and runs the `conformance` label — the per-tree suites plus the
# registry-driven sweep over every registered structure, where layout-layer
# arithmetic (bitmask shifts, placement news, union reinterpretation) would
# surface UB — together with the `fault` and `lin` labels (the mutation
# self-tests exercise deliberately broken splice/handshake paths, the one
# place stale-pointer arithmetic is reachable on purpose) and the
# `sim-engine` label (the scheduler reference-model test). UBSan is the one
# sanitizer build that keeps the engine's hand-written x86-64 stack switch;
# ASan and TSan builds switch fibers with swapcontext instead.
# The obsoff job rebuilds with -DEUNO_OBS=OFF (observability compiled out)
# and runs the full suite: results must not depend on the obs channels, and
# every check that reads an obs-only figure (latency percentiles, traces)
# must gate itself on obs::kCompiledIn rather than fail in such a build.
# The lin checker builds trees only through the registry, so
# lin_mutation_test compiles builtin_trees.cpp, registry.cpp and
# simd_search.cpp itself under the mutation defines instead of linking
# euno_trees: every slug it resolves is a mutated instantiation, and the
# binary holds no healthy copy of the same templates.
set -euo pipefail

cd "$(dirname "$0")/.."
job="${1:-default}"

case "$job" in
  default)
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)"
    # Golden manifests, re-run by label: byte-identical results are the
    # oracle for behaviour-preserving refactors.
    ctest --test-dir build --output-on-failure -L golden
    ctest --test-dir build --output-on-failure -L obs-native
    # Store robustness battery (admission, the admission-time deadline
    # check, run-to-completion of admitted ops, per-shard epoch domains,
    # open-loop determinism) — part of the full run above, re-run
    # by label so a store regression is attributable at a glance.
    ctest --test-dir build --output-on-failure -L store
    # Bytes-key-domain battery, re-run by label for attributability.
    ctest --test-dir build --output-on-failure -L strkey
    python3 scripts/report.py build/obs_native_manifest.json \
      -o build/obs_native_report.html
    (cd build && ./bench/sim_selfperf --quick)
    python3 scripts/check_selfperf.py build/BENCH_sim_selfperf.json
    for w in sim-hot sim-low kv-store str-scan; do
      python3 perfbench/run.py --workload "$w" --seconds 1 | tail -n 1 |
        python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
ok = r["correct"] is True and r["failed"] == 0
print("perfbench %s: correct=%s failed=%s" % (sys.argv[1], r["correct"], r["failed"]))
sys.exit(0 if ok else 1)' "$w"
    done
    ;;
  tsan)
    cmake -B build-tsan -S . -DEUNO_TSAN=ON
    cmake --build build-tsan -j
    ctest --test-dir build-tsan --output-on-failure -L "parallel|lin|conformance|strkey"
    ;;
  asan)
    cmake -B build-asan -S . -DEUNO_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -L "fault|store|strkey|driver"
    ;;
  ubsan)
    cmake -B build-ubsan -S . -DEUNO_UBSAN=ON
    cmake --build build-ubsan -j
    ctest --test-dir build-ubsan --output-on-failure \
      -L "conformance|fault|lin|sim-engine|driver"
    ;;
  obsoff)
    cmake -B build-obsoff -S . -DEUNO_OBS=OFF
    cmake --build build-obsoff -j
    ctest --test-dir build-obsoff --output-on-failure -j "$(nproc)"
    ;;
  *)
    echo "usage: $0 [default|tsan|asan|ubsan|obsoff]" >&2
    exit 2
    ;;
esac
