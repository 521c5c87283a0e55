#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark and the program
# under test (`bench` and the repository's `serve`, both targets of this
# package) with one cargo invocation, then run `bench` with the
# arguments given. The build comes before anything is measured, so the
# first run in a checkout pays for it whatever its workload is and a
# later run finds everything up to date.
set -eu
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --bins --target-dir "$target" >&2
exec "$target/release/bench" "$@"
