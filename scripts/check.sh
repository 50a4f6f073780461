#!/bin/sh
# Tier-1 gate plus a parallel-path smoke test: build, run the test
# suite, then run one sweep-heavy experiment with --jobs 2 and require
# its report to be byte-identical to the inline (--jobs 1) run, so the
# domain-pool path is exercised on every change. Usage: make check
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

smoke=theorem32
echo "smoke: experiment $smoke with --jobs 1 vs --jobs 2"
dune exec bin/main.exe -- experiment "$smoke" --jobs 1 \
  --metrics-json "$tmpdir/smoke1.json" > "$tmpdir/j1.txt"
dune exec bin/main.exe -- experiment "$smoke" --jobs 2 \
  --metrics-json "$tmpdir/smoke2.json" > "$tmpdir/j2.txt"
if ! cmp -s "$tmpdir/j1.txt" "$tmpdir/j2.txt"; then
  echo "FAIL: $smoke output differs between --jobs 1 and --jobs 2" >&2
  diff "$tmpdir/j1.txt" "$tmpdir/j2.txt" >&2 || true
  exit 1
fi
echo "smoke: parallel run bit-identical to inline run"

# Incremental OPT_R perf gate: the E5 reference family must keep at
# least half its segments out of branch-and-bound, and the node total
# must not regress past the seed's from-scratch sweep (102557 nodes,
# recorded when the incremental solver landed).
echo "optr: incremental solver counters on the E5 reference family"
dune exec bench/main.exe -- --skip-exps --skip-micro --json "$tmpdir/bench.json" \
  > /dev/null
e5_baseline_nodes=102557
e5=$(grep '"OPT_R/E5' "$tmpdir/bench.json")
field() { printf '%s\n' "$e5" | sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p"; }
segments=$(field segments)
bb_searches=$(field bb_searches)
bb_nodes=$(field bb_nodes)
if [ -z "$segments" ] || [ -z "$bb_searches" ] || [ -z "$bb_nodes" ]; then
  echo "FAIL: could not parse OPT_R/E5 counters from bench --json" >&2
  exit 1
fi
if [ "$bb_nodes" -gt "$e5_baseline_nodes" ]; then
  echo "FAIL: E5 bb_nodes=$bb_nodes exceeds seed baseline $e5_baseline_nodes" >&2
  exit 1
fi
if [ $((2 * (segments - bb_searches))) -lt "$segments" ]; then
  echo "FAIL: fewer than half of E5 segments resolved without search" \
    "(segments=$segments bb_searches=$bb_searches)" >&2
  exit 1
fi
echo "optr: E5 bb_nodes=$bb_nodes <= $e5_baseline_nodes," \
  "$((segments - bb_searches))/$segments segments without search"

# Observability gate: one E5 run with --trace and --metrics-json must
# produce non-empty valid JSON in both files, and the deterministic
# "metrics" section must be identical between --jobs 1 and --jobs 2.
echo "obs: experiment E5 with --metrics-json and --trace"
json_ok() {
  [ -s "$1" ] || return 1
  if command -v jq > /dev/null 2>&1; then jq -e . "$1" > /dev/null
  else python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$1"
  fi
}
metrics_section() {
  if command -v jq > /dev/null 2>&1; then jq -S .metrics "$1" > "$2"
  else
    python3 -c 'import json,sys
json.dump(json.load(open(sys.argv[1]))["metrics"], open(sys.argv[2], "w"),
          sort_keys=True, indent=1)' "$1" "$2"
  fi
}
dune exec bin/main.exe -- experiment E5 --jobs 2 \
  --metrics-json "$tmpdir/m2.json" --trace "$tmpdir/t2.json" > /dev/null
dune exec bin/main.exe -- experiment E5 --jobs 1 \
  --metrics-json "$tmpdir/m1.json" > /dev/null
for f in m1.json m2.json t2.json; do
  if ! json_ok "$tmpdir/$f"; then
    echo "FAIL: $f is empty or not valid JSON" >&2
    exit 1
  fi
done
for pair in "m1 m2" "smoke1 smoke2"; do
  set -- $pair
  metrics_section "$tmpdir/$1.json" "$tmpdir/$1.det"
  metrics_section "$tmpdir/$2.json" "$tmpdir/$2.det"
  if ! cmp -s "$tmpdir/$1.det" "$tmpdir/$2.det"; then
    echo "FAIL: deterministic metrics differ between --jobs 1 and --jobs 2 ($1 vs $2)" >&2
    diff "$tmpdir/$1.det" "$tmpdir/$2.det" >&2 || true
    exit 1
  fi
done
echo "obs: trace + metrics JSON valid, metrics jobs-invariant"

# Fuzz gate: 500 fuzzed instances through every policy under the
# invariant validator, the naive reference engine and the OPT_R
# cross-check, at --jobs 2. Zero violations required, and the report
# must be byte-identical to the inline run (the fuzz path is the
# broadest consumer of the determinism contract).
echo "fuzz: 500 cases across all policies with --jobs 2"
dune exec bin/main.exe -- fuzz --n 500 --seed 1 --jobs 2 > "$tmpdir/fuzz2.txt" || {
  echo "FAIL: fuzz found violations:" >&2
  cat "$tmpdir/fuzz2.txt" >&2
  exit 1
}
dune exec bin/main.exe -- fuzz --n 500 --seed 1 --jobs 1 > "$tmpdir/fuzz1.txt"
if ! cmp -s "$tmpdir/fuzz1.txt" "$tmpdir/fuzz2.txt"; then
  echo "FAIL: fuzz report differs between --jobs 1 and --jobs 2" >&2
  diff "$tmpdir/fuzz1.txt" "$tmpdir/fuzz2.txt" >&2 || true
  exit 1
fi
echo "fuzz: 0 violations, report jobs-invariant"

# Injected-fault gate: with DBP_CHECK_INJECT=cost the validator must
# catch the planted off-by-one, exit non-zero, and the shrinker must
# write minimal repro instances that parse back.
echo "fuzz: injected fault must be caught and shrunk"
if DBP_CHECK_INJECT=cost dune exec bin/main.exe -- fuzz --n 9 --seed 1 --jobs 2 \
  --out "$tmpdir/repro" > "$tmpdir/fuzzinj.txt"; then
  echo "FAIL: injected fault went undetected (exit 0)" >&2
  exit 1
fi
grep -q "cost-integral" "$tmpdir/fuzzinj.txt" || {
  echo "FAIL: injected fault not attributed to the cost-integral oracle" >&2
  exit 1
}
grep -q "io round-trip replays" "$tmpdir/fuzzinj.txt" || {
  echo "FAIL: no shrunk repro replayed the violation" >&2
  exit 1
}
repros=$(ls "$tmpdir/repro"/repro_case*.csv 2> /dev/null | wc -l)
if [ "$repros" -lt 1 ]; then
  echo "FAIL: shrinker wrote no repro files" >&2
  exit 1
fi
echo "fuzz: injected fault caught, $repros shrunk repro(s) written"

# Streaming gate: a million-item cloud trace must stream through FF
# with bounded live state — the retained-items high-water gauge may not
# exceed the peak-concurrent-items gauge (no released-item log, closed
# bins retired) — and on a smaller trace every policy's streamed run
# must be bit-identical to the materializing Engine.run.
echo "stream: 1M-item cloud trace through FF with bounded retention"
dune exec bin/main.exe -- stream --workload cloud --days 60 --rate 20 \
  --seed 1 --policy FF --metrics-json "$tmpdir/stream.json" > "$tmpdir/stream.txt"
sed -n '2,3p' "$tmpdir/stream.txt"
items=$(sed -n 's/^items=\([0-9][0-9]*\) .*/\1/p' "$tmpdir/stream.txt")
gauge() {
  if command -v jq > /dev/null 2>&1; then jq -e ".metrics[\"$2\"]" "$1"
  else python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["metrics"][sys.argv[2]])' "$1" "$2"
  fi
}
live=$(gauge "$tmpdir/stream.json" engine.live_items)
retained=$(gauge "$tmpdir/stream.json" engine.retained_items)
if [ -z "$items" ] || [ -z "$live" ] || [ -z "$retained" ]; then
  echo "FAIL: could not parse stream output / metrics gauges" >&2
  exit 1
fi
if [ "$items" -lt 1000000 ]; then
  echo "FAIL: streamed only $items items (< 1000000)" >&2
  exit 1
fi
if [ "$retained" -gt $((live + 8)) ]; then
  echo "FAIL: retained-items high-water $retained exceeds peak live $live" >&2
  exit 1
fi
echo "stream: $items items, retained high-water $retained <= peak live $live"

# Throughput gate: the pinned 1M-item FF trace must stream at >=
# 1.6M items/s — the batched-pipeline floor (chunked emitters, 4-ary
# fit index, calendar departure queue), up from the 1045000 floor the
# representation overhaul set and the 418k items/s before that. Best
# of 3 runs, so one unlucky scheduler quantum can't fail the gate;
# single runs measure 1.5-2.3M items/s on this shared box (quiet runs
# sit at 1.9-2.3M), so the floor keeps ~15% headroom under the worst
# observed best-of-3. The first (retention-gate) run above counts as
# run one.
echo "stream: throughput floor on the pinned 1M-item FF trace (best of 3)"
throughput_floor=1600000
best=$(sed -n 's/^throughput=\([0-9][0-9]*\) .*/\1/p' "$tmpdir/stream.txt")
if [ -z "$best" ]; then
  echo "FAIL: could not parse throughput= from stream output" >&2
  exit 1
fi
for run in 2 3; do
  if [ "$best" -ge "$throughput_floor" ]; then break; fi
  dune exec bin/main.exe -- stream --workload cloud --days 60 --rate 20 \
    --seed 1 --policy FF > "$tmpdir/stream$run.txt"
  t=$(sed -n 's/^throughput=\([0-9][0-9]*\) .*/\1/p' "$tmpdir/stream$run.txt")
  if [ -n "$t" ] && [ "$t" -gt "$best" ]; then best=$t; fi
done
if [ "$best" -lt "$throughput_floor" ]; then
  echo "FAIL: best throughput $best items/s below floor $throughput_floor" >&2
  exit 1
fi
echo "stream: $best items/s >= $throughput_floor"

# Best-Fit rides its own gate: BF pays a successor lookup per
# placement (the fit index's sorted-key mode) instead of FF's pure
# descent, so a regression there is invisible to the FF gate. ~100k
# items keeps the three runs cheap; single runs measure 0.77-1.08M
# items/s, so the 800k floor still sits ~2.5x above the scanning BF
# (~0.3M) while tolerating a noisy box.
echo "stream: BF throughput floor on the 100k-item cloud trace (best of 3)"
bf_floor=800000
bf_best=0
for run in 1 2 3; do
  if [ "$bf_best" -ge "$bf_floor" ]; then break; fi
  dune exec bin/main.exe -- stream --workload cloud --days 6 --rate 20 \
    --seed 1 --policy BF > "$tmpdir/bf$run.txt"
  t=$(sed -n 's/^throughput=\([0-9][0-9]*\) .*/\1/p' "$tmpdir/bf$run.txt")
  if [ -n "$t" ] && [ "$t" -gt "$bf_best" ]; then bf_best=$t; fi
done
if [ "$bf_best" -lt "$bf_floor" ]; then
  echo "FAIL: best BF throughput $bf_best items/s below floor $bf_floor" >&2
  exit 1
fi
echo "stream: BF $bf_best items/s >= $bf_floor"

echo "stream: per-policy bit-identity vs Engine.run"
for p in HA CDFF FF BF WF NF CD RT SpanGreedy; do
  dune exec bin/main.exe -- stream --workload cloud --days 2 --rate 3 \
    --seed 2 --policy "$p" --verify > "$tmpdir/sv.txt" 2>&1 || {
    echo "FAIL: streamed $p run differs from Engine.run" >&2
    cat "$tmpdir/sv.txt" >&2
    exit 1
  }
done
echo "stream: all 9 policies bit-identical to Engine.run"

# Vector (d-dimensional) smoke: a d=2 cloud trace streamed through
# every policy must verify bit-identical against the materializing
# Engine.run, for each resource shape. The per-dimension packing
# validator itself runs inside the 500-case fuzz gate above (families
# general2d, cloud2d, aligned3d) and in the test suite; this exercises
# the CLI surface and the chunked emitters' vector draw schedule end to
# end.
echo "stream: d=2 cloud-trace vector smoke (--dims 2, all shapes, all 9 policies)"
for shape in independent correlated:0.8 adversarial; do
  for p in HA CDFF FF BF WF NF CD RT SpanGreedy; do
    dune exec bin/main.exe -- stream --workload cloud --days 2 --rate 3 \
      --seed 2 --dims 2 --shape "$shape" --policy "$p" --verify \
      > "$tmpdir/vec.txt" 2>&1 || {
      echo "FAIL: d=2 $p stream ($shape) differs from Engine.run" >&2
      cat "$tmpdir/vec.txt" >&2
      exit 1
    }
  done
done
echo "stream: d=2 verified bit-identical for all 9 policies and three shapes"

# Vector throughput gate: First-Fit at d=2 answers each arrival with one
# multi-column query of the fit index (every dimension's residual is a
# column, the item's sizes are the thresholds), so a regression there
# is invisible to the scalar gates above. Best of 3 runs on the
# 100k-item trace. Six best-of-3 sets measured 0.75-1.25M items/s on
# this shared box (single runs 0.67-1.25M, against ~0.18-0.23M for the
# dimension-0 scan it replaced), so the 640k floor sits ~15% under the
# worst best-of-3.
echo "stream: d=2 FF throughput floor on the 100k-item cloud trace (best of 3)"
vec_floor=640000
vec_best=0
for run in 1 2 3; do
  if [ "$vec_best" -ge "$vec_floor" ]; then break; fi
  dune exec bin/main.exe -- stream --workload cloud --days 6 --rate 20 \
    --seed 1 --dims 2 --shape correlated:0.8 --policy FF > "$tmpdir/vff$run.txt"
  t=$(sed -n 's/^throughput=\([0-9][0-9]*\) .*/\1/p' "$tmpdir/vff$run.txt")
  if [ -n "$t" ] && [ "$t" -gt "$vec_best" ]; then vec_best=$t; fi
done
if [ "$vec_best" -lt "$vec_floor" ]; then
  echo "FAIL: best d=2 FF throughput $vec_best items/s below floor $vec_floor" >&2
  exit 1
fi
echo "stream: d=2 FF $vec_best items/s >= $vec_floor"

# Recourse gate. Four properties of the bounded-recourse wrapper:
# (1) --recourse 0 is bit-identical to not passing the flag at all (the
#     wrapper returns the factory unchanged, so the zero-budget path
#     cannot perturb any observable);
# (2) the cost-vs-migration frontier sweep is jobs-invariant and every
#     curve on the pinned seeds is monotone non-increasing in k;
# (3) a recourse-wrapped policy streams bit-identically to Engine.run;
# (4) DBP_CHECK_INJECT=moves (a policy moving items while declaring a
#     zero budget) is caught by the migration oracle and shrunk.
# The throughput floors above run without recourse and are unaffected.
echo "recourse: k=0 bit-identity on dbp run"
dune exec bin/main.exe -- run -a FF -w general --mu 64 --seed 3 \
  > "$tmpdir/r_plain.txt"
dune exec bin/main.exe -- run -a FF -w general --mu 64 --seed 3 \
  --recourse 0 > "$tmpdir/r_k0.txt"
if ! cmp -s "$tmpdir/r_plain.txt" "$tmpdir/r_k0.txt"; then
  echo "FAIL: --recourse 0 output differs from the unwrapped run" >&2
  diff "$tmpdir/r_plain.txt" "$tmpdir/r_k0.txt" >&2 || true
  exit 1
fi
echo "recourse: frontier sweep jobs-invariant and monotone (pinned seeds)"
dune exec bin/main.exe -- sweep -w general -a FF,BF --mus 64 \
  --seeds 1,2,3 --recourse 0,1,2,4 --jobs 1 > "$tmpdir/front1.txt"
dune exec bin/main.exe -- sweep -w general -a FF,BF --mus 64 \
  --seeds 1,2,3 --recourse 0,1,2,4 --jobs 2 > "$tmpdir/front2.txt"
if ! cmp -s "$tmpdir/front1.txt" "$tmpdir/front2.txt"; then
  echo "FAIL: frontier sweep differs between --jobs 1 and --jobs 2" >&2
  diff "$tmpdir/front1.txt" "$tmpdir/front2.txt" >&2 || true
  exit 1
fi
if grep -q "NON-MONOTONE" "$tmpdir/front1.txt"; then
  echo "FAIL: frontier curve not monotone on the pinned seeds" >&2
  cat "$tmpdir/front1.txt" >&2
  exit 1
fi
grep -q "frontier FF:monotone BF:monotone" "$tmpdir/front1.txt" || {
  echo "FAIL: frontier monotonicity line missing from sweep output" >&2
  exit 1
}
echo "recourse: streamed BF+r2 bit-identical to Engine.run"
dune exec bin/main.exe -- stream --workload cloud --days 2 --rate 3 \
  --seed 2 --policy BF --recourse 2 --verify > "$tmpdir/rsv.txt" 2>&1 || {
  echo "FAIL: streamed BF+r2 run differs from Engine.run" >&2
  cat "$tmpdir/rsv.txt" >&2
  exit 1
}
echo "recourse: injected over-budget moves must be caught and shrunk"
if DBP_CHECK_INJECT=moves dune exec bin/main.exe -- fuzz --n 9 --seed 1 \
  --jobs 2 > "$tmpdir/rinj.txt"; then
  echo "FAIL: over-budget moves went undetected (exit 0)" >&2
  exit 1
fi
grep -q "migration" "$tmpdir/rinj.txt" || {
  echo "FAIL: injected over-moves not attributed to the migration oracle" >&2
  exit 1
}
grep -q "io round-trip replays" "$tmpdir/rinj.txt" || {
  echo "FAIL: no shrunk repro replayed the migration violation" >&2
  exit 1
}
echo "recourse: k=0 identity, monotone frontier, stream identity, oracle armed"

# Serve gate. The placement daemon must (1) answer a driven cloud trace
# with final cost/bins/max bit-identical to the in-process Engine.run
# of the same items (dbp drive --verify exits 1 otherwise), and
# (2) survive a kill-restart: drive half the trace into one daemon
# process, snapshot, quit, spawn a fresh process restored from the
# snapshot, drive the rest, and verify the combined run is still
# bit-identical to the uninterrupted offline replay. The same
# invariance is asserted for a sharded daemon against its own
# uninterrupted run (no offline analogue at shards > 1).
echo "serve: driven FF daemon bit-identical to Engine.run"
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy FF --verify > "$tmpdir/drive.txt" 2>&1 || {
  echo "FAIL: driven daemon differs from Engine.run" >&2
  cat "$tmpdir/drive.txt" >&2
  exit 1
}
echo "serve: snapshot at arrival 900, restart in a fresh process, finish"
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy FF --stop-after 900 --snapshot "$tmpdir/serve_snap.json" \
  > /dev/null 2>&1
json_ok "$tmpdir/serve_snap.json" || {
  echo "FAIL: daemon snapshot is empty or not valid JSON" >&2
  exit 1
}
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy FF --skip 900 --restore "$tmpdir/serve_snap.json" --verify \
  > "$tmpdir/drive2.txt" 2>&1 || {
  echo "FAIL: restored daemon's completed run differs from Engine.run" >&2
  cat "$tmpdir/drive2.txt" >&2
  exit 1
}
echo "serve: sharded daemon resume identical to its uninterrupted run"
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy BF --shards 4 > "$tmpdir/shard_full.txt" 2>&1
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy BF --shards 4 --stop-after 700 \
  --snapshot "$tmpdir/shard_snap.json" > /dev/null 2>&1
dune exec bin/main.exe -- drive --workload cloud --days 1 --rate 2 --seed 3 \
  --policy BF --shards 4 --skip 700 --restore "$tmpdir/shard_snap.json" \
  > "$tmpdir/shard_resumed.txt" 2>&1
full_stats=$(sed -n 's/.*daemon \(ok .*\)/\1/p' "$tmpdir/shard_full.txt")
resumed_stats=$(sed -n 's/.*daemon \(ok .*\)/\1/p' "$tmpdir/shard_resumed.txt")
if [ -z "$full_stats" ] || [ "$full_stats" != "$resumed_stats" ]; then
  echo "FAIL: sharded resume stats differ from the uninterrupted daemon" >&2
  echo "  full:    $full_stats" >&2
  echo "  resumed: $resumed_stats" >&2
  exit 1
fi
echo "serve: drive verified, kill-restart-replay verified, shards sticky"

echo "check OK"
