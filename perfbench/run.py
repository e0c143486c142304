#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload corpus-cold|search|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the measuring program
(perfbench/perfbench.exe) and the CLI with dune, runs the workload, checks
the outputs, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer rows of BENCHMARK.json with --trace 1. Exits 1
after printing the result when an output check failed, and non-zero
without printing one when the build or the run cannot complete. A traced
run leaves its spans in .perfbench-run/spans-<workload>.jsonl.
BENCHMARK.json lists corpus-cold and search; serve-mixed runs the same
way but is not listed (README.md, "serve-mixed").
See perfbench/README.md for the workloads, the metrics and the findings.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "debugtuner_cli.exe")

# Workload sizes (README.md, "Workloads").
CORPUS_N = 24  # programs per corpus-cold job, each at the 7 standard configs
SEARCH_BUDGET = 12  # candidates per search job, on top of the rank sweep
BATCH_MIN_REPS = 3
SERVE_SETUPS = 2  # serve-mixed set-ups per run; setup_s is their median
ORACLE_PAIRS = 6  # sampled (program, config) pairs checked per run

CHILDREN = []


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.kill()
        p.wait()
    CHILDREN.clear()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def child_env(tmp):
    return dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found on PATH")


def build(tmp):
    cmd = dune_command() + [
        "build", "--root", ".", "./perfbench/perfbench.exe",
        "./bin/debugtuner_cli.exe",
    ]
    p = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         env=child_env(tmp))
    CHILDREN.append(p)
    if p.wait(timeout=850) != 0:
        raise BenchError("build failed")
    CHILDREN.remove(p)


def run_exe(args, cwd, tmp, timeout=150):
    """Run one perfbench process; return its RESULT object."""
    p = subprocess.Popen([EXE] + args, cwd=cwd, stdout=subprocess.PIPE,
                         env=child_env(tmp), text=True)
    CHILDREN.append(p)
    out, _ = p.communicate(timeout=timeout)
    CHILDREN.remove(p)
    if p.returncode != 0:
        raise BenchError("perfbench %s exited %d" % (args[0], p.returncode))
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("perfbench %s printed no result" % args[0])
    return json.loads(lines[-1][len("RESULT "):])


def cpu_steal():
    """(steal, total) CPU time over all CPUs so far, from /proc/stat, or
    None where the kernel does not report it. On a virtual machine,
    steal is time the host gave to other guests: a run with a large
    share measured a contended host, whatever the program did."""
    try:
        with open("/proc/stat") as f:
            t = [int(x) for x in f.readline().split()[1:9]]
        return t[7], sum(t)
    except (OSError, ValueError, IndexError):
        return None


def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --------------------------------------------------------------------
# Batch workloads: corpus-cold and search

def batch_input(workload, seed, rep):
    """The --seed of repetition [rep] (0 is the untimed warm-up). A
    search repeats the run's search. A corpus-cold repetition measures a
    corpus of its own, from a stretch of the generator's seed space no
    other repetition or run seed reaches, so a run's median covers a few
    hundred programs rather than one corpus; the warm-up measures the
    first timed repetition's corpus."""
    if workload == "search":
        return seed
    return ((seed % (1 << 30)) << 20) + max(rep, 1) * CORPUS_N


def batch_rep(workload, seed, rundir, rep, check, extra=()):
    """One cold repetition: a fresh process, its engine at one worker. A
    search gets a store directory it creates; corpus-cold runs without a
    store."""
    size = CORPUS_N if workload == "corpus-cold" else SEARCH_BUDGET
    inp = batch_input(workload, seed, rep)
    store = []
    if workload == "search":
        store = ["--store", os.path.join(rundir, "store-%d" % rep)]
    t0 = time.time()
    r = run_exe(["batch", "--workload", workload, "--seed", str(inp),
                 "--size", str(size), "--check", str(check)]
                + store + list(extra), rundir, rundir)
    r["setup_s"] = r["ready"] - t0
    r["input"] = inp
    return r


def batch_failures(r):
    """Reasons one repetition's outputs are wrong."""
    why = []
    if not r["ok"]:
        why.append("request failed: " + r["error"])
    if r["store_hits"]:
        why.append("%d store hits in a cold run" % r["store_hits"])
    if r["check_failed"]:
        why.append("%d oracle mismatches" % r["check_failed"])
    return why


def batch(workload, seed, seconds, rundir):
    # A first, untimed repetition warms the page cache for the binaries
    # (as any user's second invocation has it) and carries the oracle
    # check; it is checked like the others but kept out of the metrics.
    # The first timed repetition repeats its inputs in a fresh process
    # and must render them byte for byte the same.
    warm = batch_rep(workload, seed, rundir, 0, ORACLE_PAIRS)
    reps, start = [], time.time()
    while len(reps) < BATCH_MIN_REPS or time.time() - start < seconds:
        reps.append(batch_rep(workload, seed, rundir, len(reps) + 1, 0))
    wrong = [w for r in [warm] + reps for w in batch_failures(r)]
    digests = {}
    for r in [warm] + reps:
        digests.setdefault(r["input"], set()).add(r["digest"])
    if any(len(d) > 1 for d in digests.values()):
        wrong.append("repetitions of the same inputs rendered different "
                     "outputs")
    for w in wrong:
        log(w)
    print("digest %s" % warm["digest"])
    if workload == "search":
        print("# decoded-program store hits on the run's own writes: %s"
              % [r["decode_self_hits"] for r in [warm] + reps])
    # job latency by the percentile rule of stat.ml (Stat.tail)
    lat = run_exe(["tail"] + [repr(1000 * r["wall_s"]) for r in reps],
                  rundir, rundir)
    print("# %d jobs; p99_ms is the %s" % (len(reps), lat["label"]))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"]
                                         for r in reps),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in reps),
        "p50_ms": lat["median"],
        "p99_ms": lat["tail"],
        "max_rps": 1000 / lat["median"],
    }
    attempted = 1 + len(reps) + warm["check_attempted"]
    failed = (sum(1 for r in [warm] + reps if not r["ok"] or r["store_hits"])
              + warm["check_failed"])
    return not wrong, attempted, failed, metrics


def replay(workload, seed, d):
    """The layer replay: a fresh process, so every binary is decoded
    cold, as in the untraced job (over an empty store of its own where
    the job has a store). It leaves its spans in d for the traced
    process."""
    run_exe(["replay", "--workload", workload, "--seed", str(seed),
             "--size", str(CORPUS_N)], d, d)


def keep_spans(workload, d):
    """Move a traced run's spans out of the run directory, which is
    removed at exit, to a path that survives it."""
    dest = os.path.join(ROOT, ".perfbench-run", "spans-%s.jsonl" % workload)
    os.replace(os.path.join(d, "spans.jsonl"), dest)
    print("# spans: %s" % os.path.relpath(dest, ROOT))


def batch_traced(workload, seed, rundir):
    """Untraced and traced repetitions of the same inputs, at one worker
    as every batch job, so span self times add up against the untraced
    wall. The untraced one also gives the search frontier the layer
    replay covers."""
    base = batch_rep(workload, seed, rundir, 0, 0)
    replay(workload, base["input"], rundir)
    r = batch_rep(workload, seed, rundir, 1, ORACLE_PAIRS,
                  ["--trace", "1", "--untraced-wall", repr(base["wall_s"])])
    keep_spans(workload, rundir)
    wrong = batch_failures(base) + batch_failures(r)
    if base["digest"] != r["digest"]:
        wrong.append("traced and untraced runs rendered different outputs")
    for w in wrong:
        log(w)
    return not wrong, 2 + r["check_attempted"], len(wrong), r["layers"]


# --------------------------------------------------------------------
# serve-mixed

def start_daemon(d, tmp):
    p = subprocess.Popen(
        [CLI, "serve", "--socket", "d.sock", "--cache-dir", "store"],
        cwd=d, stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(tmp))
    CHILDREN.append(p)
    deadline = time.time() + 30
    line = b""
    while b"serving on" not in line:
        left = deadline - time.time()
        if left <= 0 or not select.select([p.stdout], [], [], left)[0]:
            raise BenchError("daemon did not start")
        line = p.stdout.readline()
        if not line:
            raise BenchError("daemon exited at start")
    return p


def stop_daemon(p):
    p.send_signal(signal.SIGTERM)
    try:
        p.wait(timeout=30)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
    CHILDREN.remove(p)


def serve_once(seed, seconds, d, final, traced):
    """Set up (populate, restart the daemon, first requests); when
    [final], go on to the measured phases. Returns (setup_s, the
    serve-run result)."""
    os.makedirs(d)
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    t0 = time.time()
    run_exe(["serve-setup", "--store", "store"] + common, d, d)
    t_copy = time.time()
    if final:
        for twin in ["twin"] + (["twin2"] if traced else []):
            shutil.copytree(os.path.join(d, "store"), os.path.join(d, twin))
    copy_s = time.time() - t_copy
    daemon = start_daemon(d, d)
    try:
        r = run_exe(["serve-run", "--setup-only", "0" if final else "1",
                     "--trace", "1" if traced else "0",
                     "--daemon-pid", str(daemon.pid)]
                    + common, d, d)
    finally:
        stop_daemon(daemon)
    return r["ready"] - t0 - copy_s, r


def serve(seed, seconds, rundir, traced):
    setups = []
    for i in range(1 if traced else SERVE_SETUPS):
        final = i == (0 if traced else SERVE_SETUPS - 1)
        setup_s, r = serve_once(seed, seconds,
                                os.path.join(rundir, "serve-%d" % i),
                                final, traced)
        setups.append(setup_s)
    d = os.path.join(rundir, "serve-%d" % (len(setups) - 1))
    extra = []
    if traced:
        replay("serve-mixed", seed, d)
        extra = ["--trace", "1", "--late-ms", repr(r["late_ms"]),
                 "--backlog-max", str(r["backlog_max"])]
    c = run_exe(["serve-check", "--seed", str(seed),
                 "--seconds", str(seconds), "--check", str(ORACLE_PAIRS)]
                + extra, d, d, timeout=170)
    if traced:
        keep_spans("serve-mixed", d)
    wrong = []
    if r["setup_failed"]:
        wrong.append("%d set-up requests failed" % r["setup_failed"])
    if r["failed"]:
        wrong.append("%d requests failed" % r["failed"])
    if c["mismatches"]:
        wrong.append("%d responses differ from the twin replay"
                     % c["mismatches"])
    if c["check_failed"]:
        wrong.append("%d oracle mismatches" % c["check_failed"])
    for w in wrong:
        log(w)
    print("digest %s" % c["digest"])
    print("# fixed phase %d requests, tail %s; ramp %s"
          % (r["fixed_n"], r["tail"], json.dumps(r["ramp"])))
    attempted = r["attempted"] + c["check_attempted"]
    failed = r["failed"] + c["mismatches"] + c["check_failed"]
    if traced:
        return not wrong, attempted, failed, c["layers"]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": r["items_per_s"],
        "peak_rss_mb": r["daemon_rss_kb"] / 1024,
        "p50_ms": r["p50_ms"],
        "p99_ms": r["p99_ms"],
        "max_rps": r["max_rps"],
    }
    return not wrong, attempted, failed, metrics


# --------------------------------------------------------------------

def report_layers(workload, m):
    """Human-readable ratios, each with its base."""
    def ratio(name, a, b):
        print("# %s = %.4g / %.4g = %s" % (name, a, b,
              "n/a" if b == 0 else "%.4f" % (a / b)))
    print("# %s traced run" % workload)
    ratio("tracing overhead (traced wall / untraced wall)",
          m["trace.traced_wall_s"], m["trace.untraced_wall_s"])
    print("# unattributed share of the untraced wall = %.4f"
          % m["trace.unattributed_share"])
    skipped = m["engine.prefix.passes_skipped"]
    ratio("prefix skip rate (passes_skipped / (passes_skipped + passes.runs))",
          skipped, skipped + m["passes.runs"])
    for cache in ["compile", "measure", "bench_cost"]:
        h, mi = m["engine.%s.hits" % cache], m["engine.%s.misses" % cache]
        ratio("engine %s hit rate (hits / (hits + misses))" % cache, h, h + mi)
    ratio("measure dedup rate (dedups / (dedups + misses))",
          m["engine.measure.dedups"],
          m["engine.measure.dedups"] + m["engine.measure.misses"])
    ratio("store hit rate (hits / (hits + misses))", m["store.hits"],
          m["store.hits"] + m["store.misses"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["corpus-cold", "search", "serve-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    rundir = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
    os.makedirs(rundir)
    try:
        build(rundir)
        e2e_units, layer_units = units()
        steal0 = cpu_steal()
        if a.workload == "serve-mixed":
            correct, attempted, failed, m = serve(a.seed, a.seconds, rundir,
                                                  a.trace == 1)
        elif a.trace:
            correct, attempted, failed, m = batch_traced(a.workload, a.seed,
                                                         rundir)
        else:
            correct, attempted, failed, m = batch(a.workload, a.seed,
                                                  a.seconds, rundir)
        steal1 = cpu_steal()
        if steal0 and steal1 and steal1[1] > steal0[1]:
            print("# host steal during the run: %.1f%% of CPU time"
                  % (100 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])))
        if a.trace:
            report_layers(a.workload, m)
        wanted = layer_units if a.trace else e2e_units
        if a.trace:
            # rows of the unlisted serve-mixed (api per class, generator)
            for k in sorted(set(m) - set(wanted)):
                if m[k]:
                    print("# %s = %.6g" % (k, m[k]))
        missing = sorted(set(wanted) - set(m))
        if missing:
            raise BenchError("no value for " + ", ".join(missing))
        # a failed request has no finite latency; it already counts as
        # failed and makes the run incorrect
        m = {k: (-1.0 if v is None else v) for k, v in m.items()}
        result = {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": m[k], "unit": u}
                        for k, u in wanted.items()},
        }
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error: %s" % e)
        return 1
    finally:
        stop_children()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
