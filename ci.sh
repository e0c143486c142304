#!/bin/sh
# CI entry point: build, run the tier-1 test suite, then smoke the
# pipeline with the differential oracle — 100 synthetic programs at a
# fixed seed, compiled at O0-O3 under both pipelines with the
# pass-boundary sanitizer on, executed on the VM and diffed against the
# source interpreter — then exercise the persistent artifact cache
# (cold/warm byte-identity, disk hits, clear) and run the
# benchmark-regression gate against the committed BENCH_baseline.json.
#
# Deterministic up to timing: lines bracketed [like this] carry wall
# times and lines starting with '#' carry volatile measurements; the CI
# determinism leg strips those (plus /tmp paths) and diffs the rest of
# two runs byte-for-byte.
set -eu
cd "$(dirname "$0")"

scratch="$(mktemp -d /tmp/debugtuner-ci.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT INT TERM

# Byte-diff two outputs. On mismatch, fail with the head of the unified
# diff (scratch paths normalized, so two runs report identically) and
# the exact commands that reproduce the two sides — a CI failure must
# be actionable from the log alone.
ci_diff() {
  # $1/$2: files to compare; $3: one-line repro hint
  if ! diff -u "$1" "$2" > "$scratch/ci-diff.out" 2>&1; then
    echo "ci: byte-diff FAILED: $(basename "$1") vs $(basename "$2")" >&2
    sed "s#$scratch#SCRATCH#g" "$scratch/ci-diff.out" | head -40 >&2
    echo "ci: reproduce with: $3" >&2
    exit 1
  fi
}

echo "== dune build =="
dune build

echo "== CLI help (every subcommand's --help=plain, nothing on stderr) =="
# cmdliner reports a malformed doc string (say, a bare '$') on stderr and
# still exits 0, so each help page is checked for a silent stderr.
cli=_build/default/bin/debugtuner_cli.exe
for cmd in "" $("$cli" --help=plain \
  | awk '/^COMMANDS/ { on = 1; next } /^[A-Z]/ { on = 0 } on && /^       [a-z]/ { print $1 }'); do
  "$cli" $cmd --help=plain > /dev/null 2> "$scratch/help.err"
  if [ -s "$scratch/help.err" ]; then
    echo "CLI help: 'debugtuner $cmd --help=plain' wrote to stderr:" >&2
    head -5 "$scratch/help.err" >&2
    exit 1
  fi
done

echo "== dune runtest =="
dune runtest

echo "== differential fuzz smoke (100 programs, seed 1) =="
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  | tee "$scratch/check-fast.out"

echo "== vm conformance smoke (reference core, byte-identical stdout) =="
# DEBUGTUNER_VM=reference swaps every execution onto the pre-decode
# reference interpreter; the whole fuzz matrix — verdicts, costs,
# sanitizer counters — must match the fast core's stdout byte for byte.
DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- \
  check --fuzz 100 --seed 1 > "$scratch/check-reference.out"
ci_diff "$scratch/check-fast.out" "$scratch/check-reference.out" \
  "DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1"

echo "== vm conformance: corpus experiments (reference core, byte-identical stdout) =="
# The check matrix above never runs the coverage fuzzer. A corpus job
# does: each program is fuzzed, minimized and pruned before its tables
# are measured, so coverage counts reach its stdout.
dune exec bin/debugtuner_cli.exe -- \
  experiments --corpus 24 --seed 1 --no-cache > "$scratch/corpus-fast.out"
DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- \
  experiments --corpus 24 --seed 1 --no-cache > "$scratch/corpus-reference.out"
ci_diff "$scratch/corpus-fast.out" "$scratch/corpus-reference.out" \
  "DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- experiments --corpus 24 --seed 1 --no-cache"

echo "== examples (fast and reference core, byte-identical stdout) =="
# The example programs walk the public API: compile, VM runs, debug
# traces, fuzzing, minimization, pruning, AutoFDO and the disassembler.
# Each must run to completion and print the same bytes on both cores
# (any DEBUGTUNER_VM value but "reference" selects the fast core).
for ex in quickstart rank_passes autofdo_demo fuzz_corpus debug_session inspect_binary; do
  for core in fast reference; do
    DEBUGTUNER_VM=$core "_build/default/examples/$ex.exe" \
      > "$scratch/example-$ex-$core.out" 2> "$scratch/example-$ex-$core.err" || {
      tail -5 "$scratch/example-$ex-$core.err" >&2
      echo "examples: $ex failed on the $core core" >&2
      exit 1
    }
  done
  ci_diff "$scratch/example-$ex-fast.out" "$scratch/example-$ex-reference.out" \
    "DEBUGTUNER_VM=reference dune exec examples/$ex.exe"
done

# The repository benchmark checks its own outputs: sampled (program,
# config) pairs through Diff_oracle against the Minic.Interp reference,
# byte identity across repetitions of the same inputs and, for search,
# no hit on a store entry it must not see. Its last stdout line is the
# result; it must report the run correct with no failed operation, and
# its output digest must equal the one pinned here for seed 1.
perfbench_smoke() {
  workload=$1
  expected=$2
  echo "== benchmark output checks (perfbench $workload, seed 1) =="
  if ! python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    > "$scratch/perfbench-$workload.out" 2> "$scratch/perfbench-$workload.err"; then
    tail -5 "$scratch/perfbench-$workload.err" >&2
    echo "perfbench $workload smoke: run failed: $(tail -n 1 "$scratch/perfbench-$workload.out")" >&2
    exit 1
  fi
  case "$(tail -n 1 "$scratch/perfbench-$workload.out")" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *)
      echo "perfbench $workload smoke: $(tail -n 1 "$scratch/perfbench-$workload.out")" >&2
      exit 1
      ;;
  esac
  # A change that moves any output fails here even when it is
  # deterministic, which the determinism leg cannot see.
  actual="$(sed -n 's/^digest //p' "$scratch/perfbench-$workload.out")"
  if [ "$actual" != "$expected" ]; then
    echo "perfbench $workload smoke: digest $actual, expected $expected" >&2
    exit 1
  fi
  echo "digest $actual"
}
perfbench_smoke corpus-cold e39beae1271fb4146f451801dc4aecf6
# search is the only benchmarked path through the prefix planner's
# restore-and-resume, which runs the inter-pass cleanup on restored
# snapshots.
perfbench_smoke search fe167bfdcab2ba2aa6dfe54deea018fe

echo "== observability smoke (profile zlib at O2, validate trace) =="
# `profile --trace` self-validates the written document (well-formed
# spans, >= 1 span per executed pass) and exits non-zero on failure.
# Its stdout is a wall-time table (inherently run-dependent), so it
# goes to the scratch dir, keeping this script's output diffable.
dune exec bin/debugtuner_cli.exe -- profile -p zlib -O2 --pipeline gcc \
  --trace "$scratch/trace.json" > "$scratch/profile.out"

echo "== cache smoke (check twice on one fresh cache dir) =="
# A cold run populates the store; the warm run must serve every oracle
# verdict from disk with byte-identical stdout. Then `cache clear`
# must leave the directory with no entries.
mkdir "$scratch/cache"
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  --cache-dir "$scratch/cache" --json "$scratch/check-cold.json" \
  > "$scratch/check-cold.out"
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  --cache-dir "$scratch/cache" --json "$scratch/check-warm.json" \
  > "$scratch/check-warm.out"
ci_diff "$scratch/check-cold.out" "$scratch/check-warm.out" \
  "dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 --cache-dir DIR (twice)"
cat "$scratch/check-cold.out"
# Every verdict the cold run wrote comes back from disk: the warm run's
# oracle hits equal the cold run's writes, and it misses none.
oracle_row() {
  sed -n "s#.*\"name\": \"store/oracle/$2\", \"value\": \([0-9][0-9]*\).*#\1#p" "$1"
}
cold_writes="$(oracle_row "$scratch/check-cold.json" writes)"
warm_hits="$(oracle_row "$scratch/check-warm.json" hits)"
warm_misses="$(oracle_row "$scratch/check-warm.json" misses)"
if [ -z "$cold_writes" ] || [ "$warm_hits" != "$cold_writes" ] || [ -n "$warm_misses" ]; then
  echo "cache smoke: warm run served ${warm_hits:-0} of ${cold_writes:-0} oracle verdicts from disk and missed ${warm_misses:-0}" >&2
  exit 1
fi
dune exec bin/debugtuner_cli.exe -- cache clear --cache-dir "$scratch/cache" \
  | sed "s#$scratch#SCRATCH#g"
remaining="$(find "$scratch/cache/objects" -type f 2>/dev/null | wc -l)"
[ "$remaining" -eq 0 ] || {
  echo "cache smoke: $remaining entr(ies) survived cache clear" >&2
  exit 1
}

echo "== daemon smoke (serve + --connect, byte-identical to direct CLI) =="
# Start a daemon on a scratch socket (plus a TCP listener on an
# ephemeral port), drive rank/check/profile/trace requests through --connect
# clients, and byte-diff rank/check stdout against direct (in-process)
# CLI runs. profile output is a wall-time table, so only its exit
# status is asserted. The daemon runs with --no-cache so both paths
# compute from the same cold state, and with --jobs 2 so every request
# it serves fans its sweeps out over the engine's worker pool, checked
# against the direct --jobs 1 runs. It must exit 0 on SIGTERM after
# draining in-flight work and removing its socket.
cli=_build/default/bin/debugtuner_cli.exe
sock="$scratch/daemon.sock"
"$cli" serve --socket "$sock" --listen localhost:0 --no-cache --jobs 2 \
  > "$scratch/daemon.log" 2>&1 &
daemon=$!
tries=0
until [ -S "$sock" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "daemon smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done
"$cli" rank -k 5 --connect "$sock" > "$scratch/rank-daemon.out"
"$cli" rank -k 5 > "$scratch/rank-direct.out"
ci_diff "$scratch/rank-direct.out" "$scratch/rank-daemon.out" \
  "debugtuner_cli rank -k 5 [--connect SOCK]"
"$cli" check --fuzz 20 --seed 1 --connect "$sock" > "$scratch/check-daemon.out"
"$cli" check --fuzz 20 --seed 1 > "$scratch/check-direct.out"
ci_diff "$scratch/check-direct.out" "$scratch/check-daemon.out" \
  "debugtuner_cli check --fuzz 20 --seed 1 [--connect SOCK]"
"$cli" search --budget 8 --no-cache --connect "$sock" \
  -o "$scratch/front-daemon.json" > "$scratch/search-daemon.out"
"$cli" search --budget 8 --no-cache \
  -o "$scratch/front-direct.json" > "$scratch/search-direct.out"
ci_diff "$scratch/front-direct.json" "$scratch/front-daemon.json" \
  "debugtuner_cli search --budget 8 --no-cache -o F [--connect SOCK]"
"$cli" profile -p zlib -O2 --pipeline gcc --connect "$sock" > /dev/null
# The exported debug trace (paper Section III-C) read back across
# transports: the daemon's document equals the direct one, and
# `trace --against` reads it back with no line lost or gained.
"$cli" trace -p zlib -l O2 -o "$scratch/trace-direct.json" > /dev/null
"$cli" trace -p zlib -l O2 -o "$scratch/trace-daemon.json" --connect "$sock" > /dev/null
ci_diff "$scratch/trace-direct.json" "$scratch/trace-daemon.json" \
  "debugtuner_cli trace -p zlib -l O2 -o F [--connect SOCK]"
"$cli" trace -p zlib -l O2 --against "$scratch/trace-direct.json" \
  > "$scratch/trace-against.out"
grep -qx '  lines lost: \[\]' "$scratch/trace-against.out" \
  && grep -qx '  lines gained: \[\]' "$scratch/trace-against.out" || {
  echo "trace smoke: --against did not read the document back unchanged" >&2
  exit 1
}

echo "== daemon TCP concurrency leg (4 parallel --connect clients) =="
# The daemon reported its ephemeral TCP port at startup; four clients
# hammer it at once over TCP — the daemon executes their requests one
# at a time in no promised order, and every response must still be
# byte-identical to a direct in-process run of the same command.
port="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$scratch/daemon.log")"
[ -n "$port" ] || { echo "daemon smoke: no TCP port in daemon log" >&2; exit 1; }
"$cli" rank -k 5 --connect "localhost:$port" > "$scratch/rank-tcp.out" &
tcp1=$!
"$cli" check --fuzz 20 --seed 1 --connect "localhost:$port" > "$scratch/check-tcp.out" &
tcp2=$!
"$cli" measure -p zlib -l O2 --connect "localhost:$port" > "$scratch/measure-zlib-tcp.out" &
tcp3=$!
"$cli" measure -p bzip2 -l O1 --connect "localhost:$port" > "$scratch/measure-bzip2-tcp.out" &
tcp4=$!
for pid in "$tcp1" "$tcp2" "$tcp3" "$tcp4"; do
  wait "$pid" || { echo "daemon smoke: a concurrent TCP client failed" >&2; exit 1; }
done
"$cli" measure -p zlib -l O2 > "$scratch/measure-zlib-direct.out"
"$cli" measure -p bzip2 -l O1 > "$scratch/measure-bzip2-direct.out"
ci_diff "$scratch/rank-direct.out" "$scratch/rank-tcp.out" \
  "debugtuner_cli rank -k 5 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/check-direct.out" "$scratch/check-tcp.out" \
  "debugtuner_cli check --fuzz 20 --seed 1 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/measure-zlib-direct.out" "$scratch/measure-zlib-tcp.out" \
  "debugtuner_cli measure -p zlib -l O2 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/measure-bzip2-direct.out" "$scratch/measure-bzip2-tcp.out" \
  "debugtuner_cli measure -p bzip2 -l O1 [--connect HOST:PORT] (4 parallel clients)"

echo "== daemon drain (SIGTERM with a request in flight) =="
# SIGTERM lands while a check request is still executing; the daemon
# must finish and answer it (client exits 0 with the direct run's
# bytes) before removing the socket and reporting a clean stop.
"$cli" check --fuzz 30 --seed 2 --connect "$sock" > "$scratch/check-drain.out" &
drain=$!
sleep 1
kill -TERM "$daemon"
wait "$daemon" || { echo "daemon smoke: daemon exited non-zero" >&2; exit 1; }
wait "$drain" || { echo "daemon smoke: in-flight request was dropped on shutdown" >&2; exit 1; }
"$cli" check --fuzz 30 --seed 2 > "$scratch/check-drain-direct.out"
ci_diff "$scratch/check-drain-direct.out" "$scratch/check-drain.out" \
  "debugtuner_cli check --fuzz 30 --seed 2 [--connect SOCK, SIGTERM mid-flight]"
[ ! -S "$sock" ] || { echo "daemon smoke: socket survived shutdown" >&2; exit 1; }
grep -q "daemon stopped" "$scratch/daemon.log" || {
  echo "daemon smoke: no clean shutdown message" >&2
  exit 1
}

echo "== shard smoke (2-shard corpus run + merge, byte-identical to single process) =="
# Two single-shard runs coordinate only through the shared cache dir,
# each writes a JSON partial, and `merge` must reproduce the
# single-process tables byte for byte. A bad shard spec must die with
# a one-line error, and a merge missing a shard must be refused.
mkdir "$scratch/shard-cache" "$scratch/partials"
shard_args="experiments --seed 3 --corpus 12 --config gcc-O2 --config clang-O1"
"$cli" $shard_args --cache-dir "$scratch/shard-cache" > "$scratch/corpus-single.out"
"$cli" $shard_args --shard 1/2 --cache-dir "$scratch/shard-cache" \
  --partial-dir "$scratch/partials" > /dev/null
"$cli" $shard_args --shard 2/2 --cache-dir "$scratch/shard-cache" \
  --partial-dir "$scratch/partials" > /dev/null
"$cli" merge --partial-dir "$scratch/partials" > "$scratch/corpus-merged.out"
ci_diff "$scratch/corpus-single.out" "$scratch/corpus-merged.out" \
  "debugtuner_cli experiments --seed 3 --corpus 12 ... [--shard I/2] + merge"
cat "$scratch/corpus-single.out"
if "$cli" $shard_args --shard 3/2 > /dev/null 2> "$scratch/shard-err.out"; then
  echo "shard smoke: --shard 3/2 was accepted" >&2
  exit 1
fi
grep -q "invalid shard spec" "$scratch/shard-err.out" || {
  echo "shard smoke: bad spec did not produce the one-line error" >&2
  exit 1
}
if "$cli" merge "$scratch/partials/shard-1-of-2.json" > /dev/null 2>&1; then
  echo "shard smoke: merge accepted an incomplete shard set" >&2
  exit 1
fi

echo "== search smoke (seeded frontier, resumable from the cache) =="
# The same (strategy, budget, seed) must print a byte-identical
# frontier JSON whether the evaluations run cold or come back from the
# persistent store, and the warm run must actually resume (report its
# evaluations as served from the store).
mkdir "$scratch/search-cache"
"$cli" search --budget 8 --seed 1 --cache-dir "$scratch/search-cache" \
  -o "$scratch/front-cold.json" > "$scratch/search-cold.out"
"$cli" search --budget 8 --seed 1 --cache-dir "$scratch/search-cache" \
  -o "$scratch/front-warm.json" > "$scratch/search-warm.out"
ci_diff "$scratch/front-cold.json" "$scratch/front-warm.json" \
  "debugtuner_cli search --budget 8 --seed 1 --cache-dir DIR -o F (twice)"
grep -q "(8 served from the store)" "$scratch/search-warm.out" || {
  echo "search smoke: warm search did not resume from the store" >&2
  exit 1
}

echo "== benchmark regression gate (table1+ranking+serve+vm+shard+search cold+warm vs BENCH_baseline.json) =="
# Cold and warm runs share one fresh cache dir; the warm run must be
# several times faster with a high disk hit rate, the cold run must not
# regress past the committed baseline, the cold ranking sweep must
# engage the pass-prefix planner, the vm scenario must show the
# direct-threaded core beating the reference interpreter, and the
# shard scenario's 2-process critical path must be well under the
# single-process run, and the searched Pareto front must weakly
# dominate every greedy dy point, and the serve scenario's warm
# request p50 must be far below its cold one-shot (see
# bench/compare.ml for the bounds, which are constants there).
mkdir "$scratch/bench-cache"
dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir "$scratch/bench-cache" \
  --json "$scratch/bench-cold.json" > "$scratch/bench-cold.out"
dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir "$scratch/bench-cache" \
  --json "$scratch/bench-warm.json" > "$scratch/bench-warm.out"
# Warm tables must be byte-identical to cold ones (only the bracketed
# timing lines may differ).
grep -v '^\[' "$scratch/bench-cold.out" > "$scratch/bench-cold.flat"
grep -v '^\[' "$scratch/bench-warm.out" > "$scratch/bench-warm.flat"
ci_diff "$scratch/bench-cold.flat" "$scratch/bench-warm.flat" \
  "dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir DIR (twice)"
dune exec bench/compare.exe -- BENCH_baseline.json \
  "$scratch/bench-cold.json" "$scratch/bench-warm.json"

echo "== stale store (a code change invalidates a warm store) =="
# Every store entry is stamped with the build: an MD5 of the code under
# lib/ (stamp/gen.ml). A copy of this tree whose clang scheduler drops
# displaced lines (one sed) must read the store the gate above filled
# as stale: its warm table1 reports store/compile/stale rows and prints
# exactly its own --no-cache tables, which differ from this build's.
edited="$scratch/edited"
mkdir "$edited"
tar -cf - --exclude=./_build --exclude=./_cache --exclude=./.git \
  --exclude=./.perfbench-run . | tar -xf - -C "$edited"
sed 's/sched_keep_lines = true;/sched_keep_lines = false;/' \
  lib/core/toolchain.ml > "$edited/lib/core/toolchain.ml"
if cmp -s lib/core/toolchain.ml "$edited/lib/core/toolchain.ml"; then
  echo "stale store: the sed left lib/core/toolchain.ml unchanged" >&2
  exit 1
fi
(cd "$edited" && dune build ./bench/main.exe)
(cd "$edited" && ./_build/default/bench/main.exe --only table1 \
  --cache-dir "$scratch/bench-cache" --json "$scratch/edited-warm.json") \
  > "$scratch/edited-warm.out"
(cd "$edited" && ./_build/default/bench/main.exe --only table1 --no-cache) \
  > "$scratch/edited-cold.out"
dune exec bench/main.exe -- --only table1 --no-cache > "$scratch/table1-cold.out"
for run in edited-warm edited-cold table1-cold; do
  grep -v '^\[' "$scratch/$run.out" > "$scratch/$run.flat"
done
ci_diff "$scratch/edited-cold.flat" "$scratch/edited-warm.flat" \
  "edited tree: bench/main.exe --only table1 --no-cache vs --cache-dir DIR (DIR filled by this tree)"
stale="$(sed -n 's#.*"name": "store/compile/stale", "value": \([0-9][0-9]*\).*#\1#p' \
  "$scratch/edited-warm.json")"
[ -n "$stale" ] && [ "$stale" -gt 0 ] || {
  echo "stale store: the edited tree's warm table1 reported no store/compile/stale rows" >&2
  exit 1
}
if cmp -s "$scratch/table1-cold.flat" "$scratch/edited-cold.flat"; then
  echo "stale store: the edit left table1 unchanged" >&2
  exit 1
fi

echo "== ci green =="
