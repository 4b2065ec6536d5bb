#!/usr/bin/env bash
# Run one bench_matrix preset end to end: build the driver (always the
# incremental build, so the binary matches the source), run the preset, and
# post-process its CSV into the preset's tables (plus plots when matplotlib
# is installed).
#
# Usage: scripts/run_experiments.sh [--preset=NAME] [--smoke] [--out DIR]
#                                   [-- EXTRA_ARGS...]
#   --preset=NAME  bench_matrix preset (default: matrix); writes
#                  DIR/NAME.csv, DIR/NAME.json and DIR/NAME.summary.txt
#   --smoke        the preset at smoke size (seconds); CI's matrix-smoke job
#                  runs this
#   --out DIR      results directory (default: results/)
#   EXTRA_ARGS     forwarded to bench_matrix after `--` (axis overrides)
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=matrix
SMOKE=0
OUT=results
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --preset=*) PRESET="${1#--preset=}"; shift ;;
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    --) shift; EXTRA=("$@"); break ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

echo "== build bench_matrix =="
if [[ ! -f build/CMakeCache.txt ]]; then
  cmake --preset default
fi
cmake --build --preset default -j"$(nproc)" --target bench_matrix

mkdir -p "$OUT"
CSV="$OUT/$PRESET.csv"
JSON="$OUT/$PRESET.json"

ARGS=(--preset="$PRESET" --json="$JSON" --label="$PRESET")
if [[ "$SMOKE" == 1 ]]; then
  ARGS+=(--smoke)
fi

echo "== run bench_matrix ${ARGS[*]} ${EXTRA[*]+"${EXTRA[*]}"} =="
./build/bench/bench_matrix "${ARGS[@]}" "${EXTRA[@]+"${EXTRA[@]}"}" > "$CSV"

echo "== post-process =="
python3 scripts/plot_results.py "$CSV" --out "$OUT"

if [[ "$SMOKE" == 1 ]]; then
  echo "== post-process hardening: malformed CSV inputs =="
  # A crash-interrupted sweep leaves a truncated tail (or nothing at all);
  # the post-processor must skip such rows with a warning and still exit 0.
  MANGLED="$OUT/$PRESET.mangled.csv"
  head -c "$(($(wc -c < "$CSV") - 17))" "$CSV" > "$MANGLED"
  printf '%s,map,torn-impl,-,Lazy,not-a-number\n' "$PRESET" >> "$MANGLED"
  python3 scripts/plot_results.py "$MANGLED" --out "$OUT/mangled"
  : > "$OUT/empty.csv"
  python3 scripts/plot_results.py "$OUT/empty.csv" --out "$OUT/mangled"
  rm -rf "$MANGLED" "$OUT/empty.csv" "$OUT/mangled"
fi

echo "== done: $CSV =="
