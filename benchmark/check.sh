#!/usr/bin/env bash
# Local gate for the benchmark package. CI's ci.yml does not know this
# package (it is its own workspace), so run this before touching it:
# formatting, lints, the workspace invariant linter (which walks
# benchmark/ too) and a quick smoke of all four workloads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Share the root workspace's ignored build directory unless told otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo run --offline --release --quiet -p nvc-check --bin nvc-lint -- --workspace
cargo run --offline --release --quiet --manifest-path "$manifest" -- --all --quick
