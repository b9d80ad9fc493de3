#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds `sas-runner` (the per-cell child the fig6-smoke campaigns spawn)
# from the repository workspace and the benchmark package itself, both
# into $CARGO_TARGET_DIR (default .bench_build), then runs the benchmark as
# a fresh child, so its peak-RSS figures exclude the build processes.
# The last line of stdout is the JSON result; everything else goes to
# stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the root of a repository checkout" >&2
    exit 2
fi
cargo build -q --release --offline -p sas-runner --bin sas-runner >&2
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/sas-perfbench" \
    --runner-exe "$CARGO_TARGET_DIR/release/sas-runner" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
