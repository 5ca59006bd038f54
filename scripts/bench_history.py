#!/usr/bin/env python3
"""BENCH_HISTORY.jsonl: the append-only trajectory of the repo benchmark.

One line per measured commit: the commit, the date, the host stamp (allowed
CPUs, CPU model, interference ratio), the benchmark revision, and every
end-to-end metric of every workload BENCHMARK.json names. The numbers come
from `ppcbench --workload W --out FILE`, the form that carries the host
stamp; nothing is timed here.

    python3 scripts/bench_history.py append <built ppcbench binary>
    python3 scripts/bench_history.py check <git ref>
    python3 scripts/bench_history.py diff <commit> <commit>

`append` runs each workload once at the benchmark's own run length and adds
one line. `check` fails unless the file at <git ref> is a prefix of the file
in the working tree: lines are added, never edited or removed. `diff` prints
every workload x metric of two lines side by side with their ratio; a
<commit> is a line's `commit` field as written (`abc1234+dirty` is the work
measured on top of abc1234) or any git ref naming a clean line, and the last
such line is used. It refuses two lines whose `host.cpu_model` differs: their
numbers are not comparable. Run all three from the repository root, and
`append` on the reference host only (the lines are compared with each other).
"""
import datetime
import json
import os
import subprocess
import sys
import tempfile

HISTORY = "BENCH_HISTORY.jsonl"
SEED = 1


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def append(binary):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    commit = git("rev-parse", "--short", "HEAD").strip()
    if git("status", "--porcelain", "--untracked-files=no").strip():
        commit += "+dirty"

    workloads = {}
    stamps = []
    for w in (w["name"] for w in bench["workloads"]):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.json")
            cmd = [binary, "--workload", w, "--seed", str(SEED), "--seconds", str(seconds),
                   "--trace", "0", "--out", out]
            print(" ".join(cmd), file=sys.stderr)
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
            with open(out) as f:
                doc = json.load(f)
        result = doc["result"]
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w}: incorrect result, nothing appended")
        stamps.append(doc["host"])
        workloads[w] = {m: result["metrics"][m]["value"] for m in metrics}
        workloads[w]["attempted"] = result["attempted"]

    line = {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "benchmark_revision": bench.get("revision", 1),
        "seed": SEED,
        "seconds": seconds,
        "host": {
            "cpus_allowed": stamps[0]["cpus_allowed"],
            "cpu_model": stamps[0]["cpu_model"],
            # The worst of the seven runs: one disturbed workload is
            # reason enough to distrust the line.
            "interference_ratio": max(
                (h["interference_before"] + h["interference_after"]) / 2 for h in stamps),
            "oversubscribed": any(h["oversubscribed"] for h in stamps),
        },
        "workloads": workloads,
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(line) + "\n")
    print(f"appended {commit} to {HISTORY}", file=sys.stderr)


def check(ref):
    old = subprocess.run(["git", "show", f"{ref}:{HISTORY}"], capture_output=True, text=True)
    if old.returncode != 0:
        print(f"{HISTORY} does not exist at {ref}: nothing to compare")
        return
    with open(HISTORY) as f:
        new = f.read()
    if not new.startswith(old.stdout):
        sys.exit(f"{HISTORY} is append-only: a line present at {ref} was edited or removed")
    added = new[len(old.stdout):].count("\n")
    print(f"{HISTORY}: {added} line(s) appended since {ref}, none changed")


def find(lines, commit):
    """The last line recorded as `commit`, else the last clean line of the
    commit git resolves it to."""
    exact = [l for l in lines if l["commit"] == commit]
    if exact:
        return exact[-1]
    full = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{commit}^{{commit}}"],
                          capture_output=True, text=True).stdout.strip()
    clean = [l for l in lines if full and "+" not in l["commit"] and full.startswith(l["commit"])]
    if clean:
        return clean[-1]
    known = ", ".join(l["commit"] for l in lines)
    sys.exit(f"{HISTORY} has no line for {commit} (lines: {known})")


def diff(a, b):
    with open(HISTORY) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    old, new = find(lines, a), find(lines, b)
    hosts = old["host"]["cpu_model"], new["host"]["cpu_model"]
    if hosts[0] != hosts[1]:
        sys.exit(f"refusing to compare across hosts: {a} ran on {hosts[0]!r}, {b} on {hosts[1]!r}")
    print(f"host {hosts[0]!r}")
    for name, line in ((a, old), (b, new)):
        print(f"{name}: {line['date']}, seed {line['seed']}, {line['seconds']} s, "
              f"interference {line['host']['interference_ratio']:.3f}")
    print(f"{'workload':<16}{'metric':<16}{a:>16}{b:>16}{'ratio':>9}")
    for w, metrics in old["workloads"].items():
        for m, x in metrics.items():
            y = new["workloads"].get(w, {}).get(m)
            if y is None:
                continue
            ratio = f"{y / x:.3f}" if x else "-"
            print(f"{w:<16}{m:<16}{x:>16.5g}{y:>16.5g}{ratio:>9}")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "append":
        append(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "check":
        check(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        diff(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
