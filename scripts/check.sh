#!/usr/bin/env bash
# One-shot verification gate, in dependency order:
#   1. bao-lint        — workspace invariant lints (DESIGN.md §7), JSON
#                        report to results/lint_report.json
#   2. check_hermetic  — static manifest scan (via bao-lint)
#   3. build + test    — tier-1: cargo build --release && cargo test -q
#   4. bench smoke     — opt-in via --bench-smoke: inference_bench,
#                        serving_bench, sched_bench, cache_bench, and
#                        shard_bench, each --quick --gate, failing on a
#                        gated regression against
#                        results/bench_baselines.json
#                        (DESIGN.md §8, §9, §10, §11, §13)
#   5. race smoke      — opt-in via --race-smoke: the bao-race suites
#                        (detection fixtures + the two production
#                        suites) under --cfg bao_race, bounded so the
#                        whole pass stays within ~60s (DESIGN.md §12).
#                        Interleaving counts land in
#                        results/race_report.json
#   6. race nightly    — opt-in via --race-nightly: the production suites
#                        with BAO_RACE_UNBOUNDED=1, exploring the
#                        bounded-preemption interleaving space to
#                        completion; final counts land in
#                        results/race_report.json
#   7. crash smoke     — opt-in via --crash-smoke: the kill-at-boundary
#                        crash matrix (tests/crash_recovery.rs), 1 seed /
#                        every 4th boundary; the full matrix (3 seeds,
#                        every boundary) runs when BAO_CRASH_EXHAUSTIVE=1
#                        is already exported (DESIGN.md §14)
#   8. code lines      — scripts/loc.sh: product code lines per crate, a
#                        tracked metric (ROADMAP aim 2); printed and
#                        written to results/loc.txt (tracked, so a PR's
#                        diff shows what it did to the count), not gated
#
# Run from anywhere; operates on the repo containing this script.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

bench_smoke=0
race_smoke=0
race_nightly=0
crash_smoke=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) bench_smoke=1 ;;
        --race-smoke) race_smoke=1 ;;
        --race-nightly) race_nightly=1 ;;
        --crash-smoke) crash_smoke=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== bao-lint =="
cargo run -q -p bao-lint -- --json

echo
echo "== hermetic manifests =="
"$repo/scripts/check_hermetic.sh"

echo
echo "== build (release) =="
cargo build --release

echo
echo "== test =="
cargo test -q

if [ "$bench_smoke" = 1 ]; then
    echo
    echo "== bench smoke (inference_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin inference_bench -- --quick --gate
    echo
    echo "== bench smoke (serving_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin serving_bench -- --quick --gate
    echo
    echo "== bench smoke (sched_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin sched_bench -- --quick --gate
    echo
    echo "== bench smoke (cache_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin cache_bench -- --quick --gate
    echo
    echo "== bench smoke (shard_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin shard_bench -- --quick --gate
    echo
    echo "== bench smoke (wal_bench --quick --gate) =="
    cargo run -q --release -p bao-bench --bin wal_bench -- --quick --gate
fi

if [ "$race_smoke" = 1 ]; then
    echo
    echo "== race smoke (bao-race under --cfg bao_race) =="
    # A separate target dir keeps the instrumented build from evicting
    # the normal incremental caches (the cfg changes every crate).
    RUSTFLAGS="--cfg bao_race" CARGO_TARGET_DIR=target/race \
        cargo test -q -p bao-race
fi

if [ "$race_nightly" = 1 ]; then
    echo
    echo "== race nightly (unbounded exploration of the production suites) =="
    BAO_RACE_UNBOUNDED=1 RUSTFLAGS="--cfg bao_race" CARGO_TARGET_DIR=target/race \
        cargo test -q -p bao-race --test race_suites
fi

if [ "$crash_smoke" = 1 ]; then
    echo
    echo "== crash smoke (kill-at-boundary recovery matrix) =="
    cargo test -q -p bao-bench --test crash_recovery
fi

echo
echo "== product code lines per crate (scripts/loc.sh) =="
"$repo/scripts/loc.sh" | tee "$repo/results/loc.txt"

echo
echo "all checks passed"
