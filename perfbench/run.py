#!/usr/bin/env python3
"""Repository benchmark for the latency-gossip runtime.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rr-braid-churn --seed 1013 --seconds 20 --trace 0

Builds perfbench/bench.exe from source with dune (profile ``perfbench``,
build directory ``.bench_build``), then spends about ``--seconds`` seconds
measuring one workload, on one domain, in ``bench.exe`` processes.

``--trace 0`` reports the end-to-end metrics: the median per-build set-up
time over repeated builds in one process, then, in a second process, the
median simulation wall time over repeated build-and-run calls for the rest
of the window, the peak RSS after its first call, and the exact counts.
``--trace 1`` alternates untraced, traced and (for a workload with
``shard_domains`` in ledger.json) sharded processes on the same inputs and
reports the per-layer ledger (see ledger.json for what each metric should
move, and on which workload).

Every simulation call's outputs are checked: all nodes completed before
the round cap, ``payload_words = msg_words x deliveries``, the counts
repeat exactly across calls and processes (traced, untraced and sharded),
and at a workload's default seed the rounds, deliveries and informed-set
digest match the values recorded in ledger.json.  A failed check lowers
``completed_frac`` and makes the command exit 1.  The last line of stdout
is the result object; the line before it records the host.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "_build", "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join(BUILD_DIR, "spans")
LEDGER = os.path.join(HERE, "ledger.json")

# A single process may not exceed this, so one invocation ends within three minutes.
PROCESS_TIMEOUT_S = 150
# Share of --seconds given to the repeated set-up builds.
SETUP_SHARE = 0.1
# Counts every repetition of one workload and seed must reproduce exactly.
EXACT = ("rounds", "deliveries", "initiations", "dropped", "payload_words", "informed_digest")


class CheckFailed(Exception):
    pass


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project with lib/ at %s; run from the root of a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "perfbench", "--build-dir",
           os.path.join(BUILD_DIR, "_build"), "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def bench(*args):
    """Run one bench.exe process and return its JSON line."""
    proc = subprocess.run([EXE, *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CheckFailed("bench.exe %s exited %d: %s" % (" ".join(map(str, args)), proc.returncode,
                                                         proc.stderr.strip()[-400:]))
    return json.loads(lines[-1])


def source_digest():
    """Digest of the program sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("lib", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


class Runs:
    """Outcome of the processes of one invocation, with its checks."""

    def __init__(self, args, ledger):
        entry = ledger["workloads"][args.workload]
        recorded = args.scale == "full" and args.seed == entry["default_seed"]
        self.recorded = entry["recorded"] if recorded else None
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, produce):
        """Run one process through [produce] and check its output, which
        covers [reps] simulation calls of which [reps_ok] reproduced the
        first exactly (one call when the process does not say).  Returns the
        output, also when a check failed, or None when the process gave none."""
        try:
            out = produce()
        except (CheckFailed, OSError, subprocess.TimeoutExpired, ValueError) as e:
            self.attempted += 1
            self.fail(str(e))
            return None
        reps = out.get("reps", 1)
        self.attempted += reps
        if self.first is None:
            self.first = out
        # Problems with the first call fail every call of the process.
        problems = [] if out["ok"] else ["output checks failed: %s" % out["checks"]]
        problems += ["%s differs between runs: %s vs %s" % (k, out[k], self.first[k])
                     for k in EXACT + ("eid",) if out.get(k) != self.first.get(k)]
        if self.recorded is not None:
            problems += ["%s = %s at the default seed, recorded %s" % (k, out[k], v)
                         for k, v in self.recorded.items() if out[k] != v]
        failed = reps if problems else reps - out.get("reps_ok", reps)
        if failed:
            self.fail("; ".join(problems) or "%d of %d calls in one process did not reproduce the first"
                      % (failed, reps), failed)
        return out

    def fail(self, msg, count=1):
        self.failed += count
        self.errors.append(msg)


def repeat(deadline, min_count, step):
    """Call [step] at least [min_count] times, then while the next call is
    expected to end before [deadline]."""
    durations = []
    while True:
        if len(durations) >= min_count:
            if time.monotonic() + statistics.median(durations) > deadline:
                return
        t0 = time.monotonic()
        step()
        durations.append(time.monotonic() - t0)


def percentile_tail(values):
    """Highest-rank sample with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(args, ledger, deadline):
    runs = Runs(args, ledger)
    setup_s = None
    try:
        setup = bench("setup", args.workload, args.seed, args.scale, max(1.0, SETUP_SHARE * args.seconds))
        setup_s = statistics.median(setup["samples"])
    except (CheckFailed, OSError, subprocess.TimeoutExpired, ValueError) as e:
        runs.attempted += 1
        runs.fail("setup: %s" % e)
    # One process repeats the build and the call for the rest of the window.
    first = runs.check(lambda: bench("run", args.workload, args.seed, args.scale,
                                     max(0.0, deadline - time.monotonic())))
    if first is None or setup_s is None:
        return runs, None, {}
    run_s = statistics.median(first["samples"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "deliveries_per_s": (first["deliveries"] / run_s, "1/s"),
        "peak_rss_mb": (first["peak_rss_kb"] / 1024.0, "MB"),
        "rounds": (first["rounds"], "count"),
        "deliveries": (first["deliveries"], "count"),
        "completed_frac": (max(0, runs.attempted - runs.failed) / runs.attempted, "ratio"),
    }
    return runs, first, metrics


def per_layer(args, ledger, deadline):
    runs = Runs(args, ledger)
    shard_domains = ledger["workloads"][args.workload].get("shard_domains")
    plain, traced, sharded = [], [], []
    os.makedirs(SPANS_DIR, exist_ok=True)
    # Each traced process rewrites the file; the last one stays for inspection.
    spans = os.path.join(SPANS_DIR, "%s-%d.jsonl" % (args.workload, args.seed))

    def step():
        out = runs.check(lambda: bench("run", args.workload, args.seed, args.scale, 0))
        if out is not None:
            plain.append(out)
        if shard_domains:
            out = runs.check(lambda: bench("shard", args.workload, args.seed, args.scale, shard_domains))
            if out is not None:
                sharded.append(out)

        def traced_run():
            out = bench("trace", args.workload, args.seed, args.scale, spans)
            bench("check-jsonl", spans)
            return out

        out = runs.check(traced_run)
        if out is not None:
            traced.append(out)

    repeat(deadline, 1, step)
    if not plain or not traced or (shard_domains and not sharded):
        return runs, None, {}
    first = plain[0]
    layers = [t["layers"] for t in traced]
    # Minor allocation is exact on one domain.
    if len({p["minor_words"] for p in plain}) != 1:
        runs.fail("minor words differ between runs: %s" % sorted({p["minor_words"] for p in plain}))

    def med(key):
        return statistics.median(l[key] for l in layers)

    def exact(key):
        vals = {l[key] for l in layers}
        if len(vals) != 1:
            runs.fail("%s differs between traced runs: %s" % (key, sorted(vals)))
        return layers[0][key]

    def shard_exact(key):
        vals = {s[key] for s in sharded}
        if len(vals) > 1:
            runs.fail("%s differs between sharded runs: %s" % (key, sorted(vals)))
        return sharded[0][key] if sharded else 0

    plain_run_s = statistics.median(p["run_s"] for p in plain)
    shard_run_s = statistics.median(s["run_s"] for s in sharded) if sharded else 0.0
    rounds_ms = [percentile_tail(t["round_ms"]) if t["round_ms"] else (0.0, 0.0) for t in traced]
    eid = first.get("eid", {})
    m = {
        "csr.generate_s": (med("csr.generate_s"), "s"),
        "csr.latency_s": (med("csr.latency_s"), "s"),
        "csr.to_graph_s": (med("csr.to_graph_s"), "s"),
        "csr.bytes_per_edge": (exact("csr.bytes_per_edge"), "B"),
        "spanner.build_s": (med("spanner.build_s"), "s"),
        "spanner.pack_s": (med("spanner.pack_s"), "s"),
        "spanner.edges": (exact("spanner.edges"), "count"),
        "spanner.max_out_degree": (exact("spanner.max_out_degree"), "count"),
        "scenario.compile_s": (med("scenario.compile_s"), "s"),
        "kernel.create_s": (med("kernel.create_s"), "s"),
        "kernel.words_on_wire": (exact("kernel.words_on_wire"), "words"),
        "kernel.msg_words": (first["msg_words"], "words"),
        "wheel.round_ms.p50": (statistics.median(statistics.median(t["round_ms"]) if t["round_ms"] else 0.0
                                                 for t in traced), "ms"),
        "wheel.round_ms.tail": (statistics.median(v for v, _ in rounds_ms), "ms"),
        "wheel.round_ms.tail_pct": (rounds_ms[0][1], "%"),
        "wheel.round_ms.samples": (len(traced[0]["round_ms"]), "count"),
        "wheel.minor_words_per_round": (round(first["minor_words"] / first["rounds"]), "words"),
        "wheel.major_collections": (first["major_collections"], "count"),
        "wheel.initiations": (first["initiations"], "count"),
        "wheel.dropped": (first["dropped"], "count"),
        "wheel.payload_words": (first["payload_words"], "words"),
        "wheel.delivered_frac": (first["deliveries"] / (2.0 * first["initiations"]), "ratio"),
        "wheel.inflight_max": (exact("wheel.inflight_max"), "count"),
        "shard.remote_initiations": (shard_exact("remote_initiations"), "count"),
        "shard.remote_responses": (shard_exact("remote_responses"), "count"),
        "shard.remote_frac": (shard_exact("remote_initiations") / first["initiations"], "ratio"),
        "shard.run_s": (shard_run_s, "s"),
        "shard.speedup": (plain_run_s / shard_run_s if shard_run_s else 0.0, "ratio"),
        "eid.attempts": (eid.get("attempts", 0), "count"),
        "eid.k_final": (eid.get("k_final", 0), "count"),
        "eid.discovery_rounds": (eid.get("discovery_rounds", 0), "count"),
        "eid.schedule_rounds": (eid.get("schedule_rounds", 0), "count"),
        "eid.rr_rounds": (eid.get("rr_rounds", 0), "count"),
        "eid.check_rounds": (eid.get("check_rounds", 0), "count"),
        "eid.discovery.deliveries": (exact("eid.discovery.deliveries"), "count"),
        "eid.dtg.deliveries": (exact("eid.dtg.deliveries"), "count"),
        "eid.rr.deliveries": (exact("eid.rr.deliveries"), "count"),
        "eid.check.deliveries": (exact("eid.check.deliveries"), "count"),
        "obs.trace_overhead": (statistics.median(t["run_s"] for t in traced) / plain_run_s - 1.0, "ratio"),
    }
    return runs, first, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy shrinks every workload for the self-test")
    args = ap.parse_args()
    try:
        with open(LEDGER) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (LEDGER, e))
    if args.workload not in ledger["workloads"]:
        fail("unknown workload %r; known: %s" % (args.workload, ", ".join(ledger["workloads"])))
    build()
    deadline = time.monotonic() + args.seconds
    measure = per_layer if args.trace else end_to_end
    runs, first, metrics = measure(args, ledger, deadline)
    for e in runs.errors:
        print("perfbench: check failed: " + e, file=sys.stderr)
    host = {
        "recommended_domains": first["recommended_domains"] if first else None,
        "ocaml": first["ocaml"] if first else None,
        "commit": commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
    }
    print(json.dumps({"host": host}))
    correct = runs.failed == 0 and bool(metrics)
    attempted = max(runs.attempted, 1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(runs.failed, attempted) if metrics else attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
