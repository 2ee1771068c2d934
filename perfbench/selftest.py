#!/usr/bin/env python3
"""Fast self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size through run.py, in
both modes, and checks that (1) the run is correct, (2) the result line has
exactly the keys correct/attempted/failed/metrics, (3) every end-to-end
(--trace 0) or per-layer (--trace 1) metric named in BENCHMARK.json is
printed with its unit and nothing else is, and (4) the correctness gate
fails a run whose served result was corrupted before the gate.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd.append("--corrupt")
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError("exit %d: %s" % (res.returncode, " ".join(cmd)))
    return json.loads(res.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL", what, flush=True)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   tag + ": result keys " + str(sorted(r)))
            expect(r["correct"] is True and r["failed"] == 0
                   and r["attempted"] >= 1,
                   tag + ": not correct (%d of %d failed)"
                   % (r["failed"], r["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(r["metrics"]) == set(want),
                   tag + ": metric names differ: %s"
                   % sorted(set(r["metrics"]) ^ set(want)))
            for name, unit in want.items():
                got = r["metrics"].get(name, {})
                expect(got.get("unit") == unit and
                       isinstance(got.get("value"), (int, float)),
                       tag + ": %s printed as %r" % (name, got))
            print("ok  ", tag, flush=True)
        r = run(w, 0, corrupt=True)
        expect(r["correct"] is False and r["failed"] >= 1,
               w + ": corrupted result passed the gate")
        print("ok  ", w, "gate rejects a corrupted result", flush=True)

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
