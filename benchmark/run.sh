#!/usr/bin/env bash
# Build the benchmark, run the whole suite twice (the second pass
# traced), and compare the two passes against each other: same code, so
# every simulated metric and fingerprint must be bit-equal and every
# timing within its bound.
#
#   benchmark/run.sh            full sizes, ~6 min
#   benchmark/run.sh --smoke    n <= 60, a few seconds: does the package
#                               still compile and run against the public API?
#
# Results land in benchmark/out/ (ignored by git).
set -euo pipefail
cd "$(dirname "$0")"

smoke=()
reps=3
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=(--smoke --seconds 3)
    reps=2
fi

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/egoist-benchmark"
mkdir -p out

"$bin" run --seed 11 --reps "$reps" "${smoke[@]}" --out out/pass1.json
"$bin" run --seed 11 --reps "$reps" "${smoke[@]}" --traced --out out/pass2.json
"$bin" run --check out/pass1.json
"$bin" run --check out/pass2.json
"$bin" compare out/pass1.json out/pass2.json | tee out/compare.txt
if grep -q 'changed$' out/compare.txt; then
    echo "run.sh: same code, same seed, but a fingerprint changed" >&2
    exit 1
fi
echo "run.sh: two passes of the same code agree"
