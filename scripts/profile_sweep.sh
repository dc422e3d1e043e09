#!/usr/bin/env sh
# Profiles the corpus-sweep hot path, a cold `amdrelc explore` (a fresh
# cache file, so every cell is computed and written), and prints a flat
# hot-spot report.
#
#   scripts/profile_sweep.sh [build-dir] [explore flags...]
#
# Defaults: build-dir "build"; flags are perfbench's paper-serve sweep at
# seed 1, run in one process: the four built-in apps (ofdm, jpeg, fir,
# sobel) on its 16 jittered FPGA areas x CGCs 1-8, its 10 constraints,
# and greedy and annealing x weight and benefit orderings (20,480
# cells, no generated corpus needed). Uses `perf record` when
# available; falls back to a gprof build (-pg, its own build tree under
# <build-dir>-gprof) when perf is missing — containers and CI runners
# often lack perf_event access, and gprof needs no kernel support.
# Artifacts (perf.data / gmon.out, the cache file and the text report)
# land in <build-dir>/profile/.
set -eu

BUILD_DIR=${1:-build}
[ $# -gt 0 ] && shift
if [ $# -eq 0 ]; then
  set -- --corpus ofdm,jpeg,fir,sobel \
    --grid 582,719,868,980,1200,1500,1793,2227,2762,3193,3849,5000,6161,6962,8168,8642x1,2,3,4,5,6,7,8 \
    --constraints 19913,40709,60000,97830,258905,1032114,2887342,5772214,11000000,20066260 \
    --strategies greedy,annealing --orderings weight,benefit --threads 1
fi
SRC_DIR=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
OUT_DIR="$SRC_DIR/$BUILD_DIR/profile"
mkdir -p "$OUT_DIR"
CACHE="$OUT_DIR/profile_cache.jsonl"

if command -v perf >/dev/null 2>&1 &&
    perf record -o /dev/null -- true >/dev/null 2>&1; then
  echo "== perf record over a cold amdrelc explore =="
  cmake --build "$SRC_DIR/$BUILD_DIR" --target amdrelc -j
  rm -f "$CACHE" "$CACHE".*
  perf record -g -o "$OUT_DIR/perf.data" -- \
    "$SRC_DIR/$BUILD_DIR/tools/amdrelc" explore "$@" --cache "$CACHE" \
    > /dev/null
  perf report -i "$OUT_DIR/perf.data" --stdio --percent-limit 1 \
    > "$OUT_DIR/perf_report.txt"
  head -60 "$OUT_DIR/perf_report.txt"
  echo "full report: $OUT_DIR/perf_report.txt"
  exit 0
fi

echo "== perf unavailable; falling back to gprof (-pg instrumented build) =="
GPROF_DIR="$SRC_DIR/$BUILD_DIR-gprof"
cmake -B "$GPROF_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
cmake --build "$GPROF_DIR" --target amdrelc -j
rm -f "$CACHE" "$CACHE".*
(
  cd "$OUT_DIR"
  "$GPROF_DIR/tools/amdrelc" explore "$@" --cache "$CACHE" > /dev/null
)
gprof "$GPROF_DIR/tools/amdrelc" "$OUT_DIR/gmon.out" \
  > "$OUT_DIR/gprof_report.txt"
awk '/^ *time/{found=1} found' "$OUT_DIR/gprof_report.txt" | head -40
echo "full report: $OUT_DIR/gprof_report.txt"
