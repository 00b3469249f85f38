#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at toy size, in seconds.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that BENCHMARK.json and ledger.json declare the same workloads and
per-layer metrics, that each workload prints every declared metric name
exactly once with its declared unit (end-to-end untraced, per-layer traced),
that every name matches [A-Za-z0-9_.-]+, that the spans JSONL of the traced
run parses with Gossip_util.Json and forms one trace, and that run.py exits
non-zero without a result in a directory holding only the benchmark.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "_build", "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join(BUILD_DIR, "spans")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 7

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL " + msg, flush=True)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError("duplicate keys %s" % sorted(dup))
    return dict(pairs)


def result_of(workload, trace, declared):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
                           str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    tag = "%s trace=%d" % (workload, trace)
    check(proc.returncode == 0, "%s exited %d: %s" % (tag, proc.returncode, proc.stderr[-400:]))
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)
    except (ValueError, IndexError) as e:
        check(False, "%s: last line is not a result: %s" % (tag, e))
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s: result keys %s" % (tag, sorted(result)))
    check(result.get("correct") is True and result.get("failed") == 0, "%s: not correct" % tag)
    metrics = result.get("metrics", {})
    check(set(metrics) == set(declared), "%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
          % (tag, sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))))
    for name, m in metrics.items():
        check(NAME.match(name) is not None, "%s: bad metric name %r" % (tag, name))
        check(set(m) == {"value", "unit"}, "%s: %s has keys %s" % (tag, name, sorted(m)))
        check(isinstance(m.get("value"), (int, float)) and not isinstance(m.get("value"), bool),
              "%s: %s value %r is not a number" % (tag, name, m.get("value")))
        if name in declared:
            check(m.get("unit") == declared[name], "%s: %s unit %r, declared %r" % (tag, name, m.get("unit"),
                                                                                    declared[name]))


def check_spans(workload):
    path = os.path.join(SPANS_DIR, "%s-%d.jsonl" % (workload, SEED))
    check(os.path.isfile(path), "%s: no spans file" % workload)
    if os.path.isfile(path):
        proc = subprocess.run([EXE, "check-jsonl", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        check(proc.returncode == 0, "%s: Gossip_util.Json rejects %s: %s" % (workload, path, proc.stderr[-400:]))
        with open(path) as fh:
            events = [json.loads(line) for line in fh]
        spans = [e for e in events if e.get("ev") == "span"]
        ids = {s["id"] for s in spans}
        check(len({s["trace_id"] for s in spans}) == 1, "%s: spans do not share one trace id" % workload)
        check(all(s["parent"] == 0 or s["parent"] in ids for s in spans), "%s: dangling parent" % workload)
        check(all(s["end_s"] >= s["start_s"] and s["self_s"] >= 0 for s in spans), "%s: bad span times" % workload)
        names = {s["name"] for s in spans}
        check({"setup", "simulate", "csr.generate"} <= names, "%s: missing spans in %s" % (workload, sorted(names)))
        check((workload == "ueid-ws") != ("wheel.round" in names), "%s: per-round spans" % workload)


def check_bare():
    """run.py must fail, without a result, where only the benchmark's files are."""
    bare = os.path.join(BUILD_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ueid-ws", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    check(proc.returncode != 0, "bare directory: run.py exited 0")
    check('"correct"' not in proc.stdout, "bare directory: run.py printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    check(workloads == list(ledger["workloads"]), "workloads differ between BENCHMARK.json and ledger.json")
    check([m["name"] for m in bench["per_layer"]] == list(ledger["per_layer"]),
          "per-layer metrics differ between BENCHMARK.json and ledger.json")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in workloads:
        if os.path.isfile(os.path.join(SPANS_DIR, "%s-%d.jsonl" % (w, SEED))):
            os.remove(os.path.join(SPANS_DIR, "%s-%d.jsonl" % (w, SEED)))
        result_of(w, 0, end_to_end)
        result_of(w, 1, per_layer)
        check_spans(w)
        print("ok %s" % w, flush=True)
    check_bare()
    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
