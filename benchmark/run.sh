#!/usr/bin/env bash
# Builds serve_bench from source (offline; the build is incremental, so only
# the first run in a checkout pays for it) and runs it with the given
# arguments from the repository root. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/serve_bench" "$@"
