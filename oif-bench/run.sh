#!/usr/bin/env bash
# Builds the placement daemon and the benchmark from source, then runs
# the benchmark with the arguments given:
#
#   bash oif-bench/run.sh --workload place-floor --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Both builds are release builds into
# $CARGO_TARGET_DIR when it is set; a second run finds them fresh.
set -euo pipefail

cargo build --release --quiet --offline --bin phyloplaced
cargo build --release --quiet --offline --manifest-path oif-bench/Cargo.toml

daemon_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-oif-bench/target}
exec "$bench_target/release/oif-bench" --daemon "$daemon_target/release/phyloplaced" "$@"
