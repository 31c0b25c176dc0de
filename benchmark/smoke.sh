#!/usr/bin/env bash
# Smoke test of the benchmark: every workload at a tenth of its length
# (--quick: same code paths, retrain intervals divided with it), untraced
# and traced, in under a minute once built. Checks that
#   - every metric BENCHMARK.json declares is printed, with its unit, by
#     every workload (--declared),
#   - the combined document ends with "claim": null,
#   - a corrupted expectation makes the command exit non-zero,
#   - the unit tests pass.
# Run from anywhere; needs only cargo and the repo checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
cargo test --quiet --release --offline --manifest-path benchmark/Cargo.toml

mkdir -p benchmark/out
start=$(date +%s)
run --workload all --seed 42 --quick --trace --declared BENCHMARK.json > benchmark/out/smoke.json
took=$(( $(date +%s) - start ))
tail -n 2 benchmark/out/smoke.json | grep -q '"claim": null' || {
    echo "smoke: the document does not end with \"claim\": null" >&2
    exit 1
}

if run --workload exec_heavy --seed 42 --quick --corrupt-expectation > /dev/null 2>&1; then
    echo "smoke: a corrupted expectation did not fail the run" >&2
    exit 1
fi

echo "smoke: ok (${took} s for the quick traced set; document in benchmark/out/smoke.json)"
if [ "$took" -ge 60 ]; then
    echo "smoke: the quick set took a minute or more" >&2
    exit 1
fi
