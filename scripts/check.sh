#!/usr/bin/env bash
# One-shot verification gate, in dependency order:
#   0. fmt             — cargo fmt --all --check, with the root
#                        rustfmt.toml; the fix is `cargo fmt --all`
#   1. clippy          — cargo clippy --workspace --all-targets --offline
#                        -- -D warnings: clippy's default lints plus the
#                        workspace invariants the compiler checks
#                        (DESIGN.md §7: root clippy.toml, [workspace.lints],
#                        crate-root attributes, #[expect] at permitted sites)
#   2. bao-lint        — the three invariants clippy cannot express
#                        (no-per-node-alloc, no-unseeded-rng, no-float-eq)
#   3. check_hermetic  — cargo's resolver (cargo metadata --offline):
#                        every package must come from a local path
#   4. build + test    — tier-1: cargo build --release && cargo test -q,
#                        failing when the release build or the test build
#                        (cargo test --no-run) prints a compiler warning,
#                        so a deletion cannot leave a dangling import or a
#                        dead private helper behind;
#                        then cargo test -q --release -p bao-exec (the
#                        release build exists by then): the debug run
#                        re-verifies every plan at the execution boundary
#                        (plan::verify), which pre-empts the executor's
#                        own refusals, so a test of one of those is
#                        #[cfg(not(debug_assertions))] and runs only here;
#                        then an offline release build of benchmark/, a
#                        package outside the workspace that spells product
#                        types, fields and functions by name, so a change
#                        that removes one it uses fails here
#   5. bench smoke     — opt-in via --bench-smoke: inference_bench --quick,
#                        the one wall-clock gate the repo benchmark
#                        (benchmark/) does not cover; exits non-zero when
#                        auto-width training loses to inline (DESIGN.md §8);
#                        then benchmark/smoke.sh (< 1 min): every benchmark
#                        workload at a tenth of its length, the only
#                        end-to-end check that every hint set returns the
#                        same rows and that the pinned input digests hold —
#                        tier-1 alone would not catch a wrong fetch in a
#                        learned arm
#   6. crash smoke     — opt-in via --crash-smoke: the kill-at-boundary
#                        crash matrix (tests/crash_recovery.rs), 1 seed /
#                        every 4th boundary; the full matrix (3 seeds,
#                        every boundary) runs when BAO_CRASH_EXHAUSTIVE=1
#                        is already exported (DESIGN.md §14)
#   7. figures         — opt-in via --figures (~6 min): regenerate every
#                        results/<name>.txt (`figures --list`) into a temp
#                        dir and diff it against the tracked file. Every
#                        number there is simulated, so any byte that
#                        differs is a behaviour change: commit the new
#                        text and the diff is the review
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
crash_smoke=0
figures=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) bench_smoke=1 ;;
        --crash-smoke) crash_smoke=1 ;;
        --figures) figures=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== fmt (cargo fmt --all --check) =="
cargo fmt --all --check

echo
echo "== clippy (no warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo
echo "== bao-lint =="
cargo run -q -p bao-lint

echo
echo "== hermetic (cargo metadata) =="
"$repo/scripts/check_hermetic.sh"

# Run a cargo command and fail if it printed a compiler warning. Cargo
# replays the warnings of cached units, so a warm build is checked too.
no_warnings() {
    local log
    log="$(mktemp)"
    "$@" 2>&1 | tee "$log"
    if grep -q '^warning' "$log"; then
        rm -f "$log"
        echo "compiler warnings from: $* — fix them, the gate allows none" >&2
        exit 1
    fi
    rm -f "$log"
}

echo
echo "== build (release, no warnings) =="
no_warnings cargo build --release

echo
echo "== test (no warnings in the test build) =="
no_warnings cargo test -q --no-run
cargo test -q

echo
echo "== test (release-only executor checks) =="
cargo test -q --release -p bao-exec

echo
echo "== build (benchmark/ against this tree) =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml

if [ "$bench_smoke" = 1 ]; then
    echo
    echo "== bench smoke (inference_bench --quick) =="
    cargo run -q --release -p bao-bench --bin inference_bench -- --quick
    echo
    echo "== bench smoke (benchmark/smoke.sh) =="
    "$repo/benchmark/smoke.sh"
fi

if [ "$crash_smoke" = 1 ]; then
    echo
    echo "== crash smoke (kill-at-boundary recovery matrix) =="
    cargo test -q -p bao-bench --test crash_recovery
fi

if [ "$figures" = 1 ]; then
    echo
    echo "== figures (regenerate results/*.txt, exact diff) =="
    regen="$(mktemp -d)"
    trap 'rm -rf "$regen"' EXIT
    moved=""
    for name in $(cargo run -q --release -p bao-bench --bin figures -- --list); do
        cargo run -q --release -p bao-bench --bin figures -- "$name" > "$regen/$name.txt"
        diff -u "results/$name.txt" "$regen/$name.txt" || moved="$moved $name"
    done
    if [ -n "$moved" ]; then
        echo "figures moved:$moved — if intended, commit the new output" >&2
        echo "  (cargo run --release -p bao-bench --bin figures -- <name> > results/<name>.txt)" >&2
        exit 1
    fi
fi

echo
echo "== product code lines per crate (scripts/loc.sh) =="
"$repo/scripts/loc.sh" | tee "$repo/results/loc.txt"

echo
echo "all checks passed"
