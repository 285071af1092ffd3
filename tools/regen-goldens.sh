#!/bin/sh
# Regenerate the pinned-reps goldens under bench/golden/: the result
# store of each of the six sweep drivers (bench/golden/<fig>.json) and
# the stdout of every figure driver
# (bench/golden/stdout/<driver>.txt).
#
# Usage: tools/regen-goldens.sh [build-dir] [threads]
#        (defaults: build, 1; the committed goldens use 1)
#
# Every driver is deterministic bit-for-bit (seeded episodes, exact
# integer kernels on every ISA tier) and thread-invariant, so these
# goldens are regenerated identically on any host and at any thread
# count. The stores' only honest-noise field is per-episode wallMs,
# which neither sweep-diff nor sweep-stats --compare ever gates on. The
# stdout goldens drop the two preamble lines (the "Reproducing ..."
# banner and the [simd] line), because they name the thread count and
# the host's ISA tier. Rerun this script -- and commit the result --
# whenever a change intentionally moves results (new injection model,
# energy model change, matrix edit); the CI observability-gate job
# fails until the goldens match the code again.
#
# Reps are pinned small: the gate certifies bit-identity of the result
# pipeline, not statistical power.
set -e
cd "$(dirname "$0")/.."
build=${1:-build}
threads=${2:-1}
reps=2

mkdir -p bench/golden/stdout
for driver in "$build"/bench/bench_fig* "$build"/bench/bench_tab*; do
    name=$(basename "$driver")
    case $name in
        bench_fig13_* | bench_fig16_* | bench_fig17_* | bench_fig20_* | \
        bench_fig21_* | bench_tab05_*)
            golden=bench/golden/$(echo "$name" | cut -d_ -f2).json
            rm -f "$golden"
            set -- --out "$golden" ;;
        *)
            set -- ;;
    esac
    echo "== $driver --reps $reps --threads $threads $*"
    "$driver" --reps $reps --threads "$threads" "$@" > "$build/$name.stdout"
    grep -v '^Reproducing \|^\[simd\] ' "$build/$name.stdout" \
        > "bench/golden/stdout/$name.txt"
done
echo "== done; review with: git diff --stat bench/golden"
