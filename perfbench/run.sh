#!/usr/bin/env bash
# Builds the benchmark from source (into $CARGO_TARGET_DIR, or
# perfbench/target) and runs one workload; arguments pass through:
#
#   bash perfbench/run.sh --workload batch_d8 --seed 1 --seconds 40 --trace 0
#
# Run from the repository root.
set -euo pipefail

# A fixed malloc configuration. With glibc's adaptive mmap threshold a
# large buffer is served by fresh pages or by reused heap depending on
# the allocation history: one model load then took 6 or 10 ms. Serving
# every large buffer from reused heap instead made classify throughput
# differ by up to 40% from one process to the next. A static threshold
# maps every large buffer fresh, every time.
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072

exec cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- "$@"
