#!/usr/bin/env bash
# Hermeticity gate: every package the workspace resolves to must be a
# local `path` crate. The static half asks cargo's own resolver:
# `cargo metadata --offline` reports each package and dependency with its
# `source`, `null` for a path crate and a registry or git URL otherwise.
# A remote `version`, `git` or `registry` dependency either appears with a
# non-null source or fails to resolve offline; both fail here. (`path`
# together with `version` resolves to the local crate and passes.)
#
# With --full it additionally proves the claim dynamically: the workspace
# must build and test `--offline` with an *empty* CARGO_HOME, so nothing
# can be satisfied from crates.io or a warm registry cache.
#
# Run from anywhere; operates on the repo containing this script.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

if ! meta="$(cargo metadata --offline --format-version 1)"; then
    echo "ERROR: the workspace does not resolve offline" >&2
    exit 1
fi
remote="$(grep -o '"source":"[^"]*"' <<<"$meta" | sort -u || true)"
if [ -n "$remote" ]; then
    echo "ERROR: non-local dependency sources:" >&2
    echo "$remote" >&2
    exit 1
fi
echo "resolver check: every package and dependency has a local source"

if [ "${1:-}" = "--full" ]; then
    tmp_home="$(mktemp -d)"
    trap 'rm -rf "$tmp_home"' EXIT
    export CARGO_HOME="$tmp_home"

    echo "building (release, offline, empty CARGO_HOME)..."
    cargo build --release --offline

    echo "testing (offline)..."
    cargo test -q --offline
fi

echo "hermetic check passed"
