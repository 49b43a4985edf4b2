#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   ledger/run.sh [--seed N] [--workload NAME] [--traced] [--out DIR]
#                 [--seconds S] [--trace 0|1] [--quick] [--repeat N]
#   ledger/run.sh agree A.json B.json
#
# Builds target/release/pit and the ledger from source, then runs the
# workloads against real pit processes and checks every answer. See
# ledger/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds. A relative CARGO_TARGET_DIR (the
# acceptance driver sets one) is relative to where the caller stands.
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pit-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release"

if [ "${1:-}" = "agree" ]; then
    shift
    exec "$bin/ledger" agree --bench "$root/BENCHMARK.json" "$@"
fi
exec "$bin/ledger" run --pit "$bin/pit" --out "$here/out" "$@"
