#!/usr/bin/env bash
# Run every workload of the benchmark, end-to-end then traced, from the
# repository root. Usage: perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-30}"
status=0
for workload in lifecycle-durable serve-wire; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
