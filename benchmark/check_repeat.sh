#!/bin/sh
# Runs the benchmark twice on every workload with the same seed and prints,
# per end-to-end metric, how far the second run is from the first against
# the metric's bound. Exits non-zero when a pair misses its bound or a run
# fails a check. About four minutes.
#
#   benchmark/check_repeat.sh [seed]
set -eu
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
seed="${1:-1}"
out=benchmark/out
mkdir -p "$out"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench --workload all --seed "$seed" --trace 0 > "$out/repeat_a.jsonl"
bench --workload all --seed "$seed" --trace 0 > "$out/repeat_b.jsonl"
if grep -q '"correct": false' "$out/repeat_a.jsonl" "$out/repeat_b.jsonl"; then
    echo "a run failed a check (see the FAILED CHECK lines above)" >&2
    exit 1
fi
bench --compare "$out/repeat_a.jsonl" "$out/repeat_b.jsonl"
