#!/usr/bin/env bash
# run_trajectory.sh: build one perf-trajectory point (BENCH_<N>.json at the
# repo root) from the gated benches plus the config sweep, and diff it
# against the committed previous point.
#
# The committed BENCH_<N>.json files form the perf trajectory: one merged,
# schema-versioned snapshot per PR that moves a gated number. trajectory_diff
# joins two points by cell key and fails on any out-of-band regression, so
# PR N+1 cannot silently lose PR N's win.
#
# Usage:
#   bench/run_trajectory.sh [--build BUILDDIR] [--out FILE] [--point N]
#                           [--tier small|full] [--repeats R]
#                           [--trace-out DIR]
#       run the four gated benches (--json) plus bench_sweep, merge the five
#       sections into FILE (default: BENCH_9.json at the repo root,
#       schema_version 1); --trace-out forwards to bench_sweep so every
#       sweep cell also leaves a deterministic per-cell trace for
#       trace_diff attribution
#   bench/run_trajectory.sh --merge DIR [--out FILE] [--point N]
#       skip the runs and merge DIR/{pipeline_stages,hybrid_grid,
#       stream_overlap,prefetch_lookahead,sweep}.json (CI reuses bench-out/)
#   bench/run_trajectory.sh --diff BASELINE [--candidate FILE] [--report OUT]
#       run trajectory_diff BASELINE -> candidate (default candidate: the
#       default --out path); exits nonzero on out-of-band regressions
#   bench/run_trajectory.sh --update-baseline [--tier full] ...
#       full-tier sweep + merge straight onto the committed default --out,
#       then diff the fresh point against itself as a self-check. Commit the
#       result when a PR legitimately moves a gated number.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
point=9
out=""
merge_dir=""
tier="small"
repeats=3
trace_out=""
diff_baseline=""
diff_candidate=""
diff_report=""
update_baseline=0

while [ $# -gt 0 ]; do
  case "$1" in
    --build)     build_dir="$2"; shift 2 ;;
    --merge)     merge_dir="$2"; shift 2 ;;
    --out)       out="$2"; shift 2 ;;
    --point)     point="$2"; shift 2 ;;
    --tier)      tier="$2"; shift 2 ;;
    --repeats)   repeats="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    --diff)      diff_baseline="$2"; shift 2 ;;
    --candidate) diff_candidate="$2"; shift 2 ;;
    --report)    diff_report="$2"; shift 2 ;;
    --update-baseline) update_baseline=1; tier="full"; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
done
[ -n "$out" ] || out="$repo_root/BENCH_$point.json"

diff_tool="$build_dir/trajectory_diff"

# --- diff mode: no runs, just gate candidate against baseline --------------
if [ -n "$diff_baseline" ]; then
  [ -x "$diff_tool" ] || { echo "missing $diff_tool (build first)" >&2; exit 1; }
  [ -n "$diff_candidate" ] || diff_candidate="$out"
  args=(--baseline "$diff_baseline" --candidate "$diff_candidate")
  [ -n "$diff_report" ] && args+=(--report "$diff_report")
  exec "$diff_tool" "${args[@]}"
fi

benches=(pipeline_stages hybrid_grid stream_overlap prefetch_lookahead)

if [ -z "$merge_dir" ]; then
  merge_dir="$(mktemp -d)"
  trap 'rm -rf "$merge_dir"' EXIT
  for b in "${benches[@]}"; do
    bin="$build_dir/bench_$b"
    [ -x "$bin" ] || { echo "missing $bin (build the benches first)" >&2; exit 1; }
    echo "== bench_$b"
    # The gated benches exit nonzero when their own acceptance check fails
    # (bubble shrink / 1f1b strict win / overlap exposure); let that fail us.
    # The grid benches repeat each config so their rows record a dispersion
    # envelope; the overlap/prefetch pair are single-shot emitters.
    extra=()
    case "$b" in
      pipeline_stages|hybrid_grid) extra=(--repeats "$repeats") ;;
    esac
    "$bin" "${extra[@]}" --json "$merge_dir/$b.json" > "$merge_dir/$b.txt"
  done
  bin="$build_dir/bench_sweep"
  [ -x "$bin" ] || { echo "missing $bin (build the benches first)" >&2; exit 1; }
  echo "== bench_sweep ($tier tier, $repeats repeats)"
  sweep_extra=()
  [ -n "$trace_out" ] && sweep_extra+=(--trace-out "$trace_out")
  "$bin" --tier "$tier" --repeats "$repeats" --point "$point" \
         "${sweep_extra[@]}" --json "$merge_dir/sweep.json" > "$merge_dir/sweep.txt"
fi

sections=("${benches[@]}" sweep)

# Fail loudly, naming EVERY missing/empty input, before touching $out — a
# partial merge would commit a trajectory point that silently dropped a
# gated bench.
missing=()
for b in "${sections[@]}"; do
  [ -s "$merge_dir/$b.json" ] || missing+=("$merge_dir/$b.json")
done
if [ "${#missing[@]}" -gt 0 ]; then
  for f in "${missing[@]}"; do
    echo "missing bench output: $f" >&2
  done
  echo "refusing to merge ${#missing[@]} missing input(s); $out left untouched" >&2
  exit 1
fi

# Merge: one top-level key per section, bodies embedded verbatim (each bench
# emits a self-contained JSON object), indented one level for readability.
# Write to a temp file and move into place so a mid-merge failure can never
# leave a truncated $out behind. Every point is schema_version 1.
{
  printf '{\n'
  printf '  "trajectory_point": %d,\n' "$point"
  printf '  "schema_version": 1,\n'
  first=1
  for b in "${sections[@]}"; do
    [ $first -eq 1 ] || printf ',\n'
    first=0
    # $(...) strips the file's trailing newline, so the comma lands cleanly.
    body="$(sed '2,$s/^/  /' "$merge_dir/$b.json")"
    printf '  "%s": %s' "$b" "$body"
  done
  printf '\n}\n'
} > "$out.tmp"

# Validate the merged point structurally before moving it into place.
if [ -x "$diff_tool" ]; then
  "$diff_tool" --schema-check trajectory "$out.tmp"
else
  echo "warning: $diff_tool not built; skipping schema check" >&2
fi
mv "$out.tmp" "$out"
echo "wrote $out"

# Baseline refresh self-check: the fresh point must diff clean against
# itself (catches a point that fails its own join/classify pass).
if [ "$update_baseline" -eq 1 ] && [ -x "$diff_tool" ]; then
  "$diff_tool" --baseline "$out" --candidate "$out" --quiet
  echo "baseline $out self-diff OK"
fi
