#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--smoke] [--repeat K]
#
# Builds the release `julienne` binary from the repo's own workspace and
# the two benchmark binaries from `benchmark/`, then hands every argument
# to `bench-e2e` (see its --help for what each does). With --workload it
# prints one result object as the last line of stdout; without, it runs the
# whole suite. Exit status: 0 all answers correct, 1 a failed output check,
# 2 the benchmark itself could not run (including: nothing to build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both workspaces: the repo's `target/` unless the
# caller chose another. Made absolute because cargo resolves a relative
# CARGO_TARGET_DIR against each invocation's own working directory.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr; stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p julienne-cli 1>&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/bench-e2e" \
    --julienne "$target/release/julienne" \
    --layers "$target/release/bench-layers" \
    --out "$root/benchmark/out" \
    --commit "$commit" \
    --rustc "$(rustc --version)" \
    "$@"
