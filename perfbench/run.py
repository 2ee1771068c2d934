#!/usr/bin/env python3
"""The repo benchmark: one command that builds the program from source, runs
one workload, checks its outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload sweep|superlattice|dcmesh \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
(0 for a layer the workload does not exercise), with the units
BENCHMARK.json gives.
The line before it is the host context (CPU canary, load average, CPU
steal, SIMD target, thread counts, quiet-host gate). Build output and
diagnostics go to standard error.

Extra options: --tiny (self-test sizes), --corrupt (self-test: corrupt one
result before the correctness gate), --record-reference (rewrite
perfbench/reference.json from the current program). See perfbench/NOTES.md.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mlmd_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("sweep", "superlattice", "dcmesh")
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes
# Physics outputs must match the recorded reference within
# |x - ref| <= TOL * (1 + |ref|).
TOL = 1e-6
# Quiet-host gate: before each measured process, wait until a probe that
# keeps every CPU busy for PROBE_S sees less than QUIET_STEAL of its time
# stolen by the hypervisor, for at most QUIET_BUDGET_S per command.
PROBE_S = 0.4
QUIET_STEAL = 0.05
QUIET_BUDGET_S = 6.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def cpu_jiffies():
    """(total, steal) jiffies of all CPUs; zeros where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return sum(v), v[7]
    except (OSError, IndexError, ValueError):
        return 0, 0


def spin(t_end):
    while time.monotonic() < t_end:
        pass


def steal_probe():
    """Share of CPU time stolen while every CPU spins for PROBE_S."""
    t_end = time.monotonic() + PROBE_S
    procs = [multiprocessing.Process(target=spin, args=(t_end,))
             for _ in range(os.cpu_count() or 1)]
    total0, steal0 = cpu_jiffies()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    total1, steal1 = cpu_jiffies()
    return (steal1 - steal0) / max(total1 - total0, 1)


class QuietGate:
    """Waits for a quiet host before each measured process. Another guest
    taking CPU time (steal) slows this program's fine-grained parallel
    regions several-fold; the gate keeps a burst of it from setting a
    run's numbers. Waited time and probe results go to the context."""

    def __init__(self):
        self.budget = QUIET_BUDGET_S
        self.waited = 0.0
        self.probes = []

    def wait(self):
        t0 = time.monotonic()
        while True:
            steal = steal_probe()
            self.probes.append(round(steal, 4))
            if steal < QUIET_STEAL or time.monotonic() - t0 >= self.budget:
                break
            time.sleep(1.0)
        spent = time.monotonic() - t0
        self.budget = max(0.0, self.budget - spent)
        self.waited += spent


def run_binary(args, env=None):
    """Run the driver once; return (context, physics, result) or raise."""
    work = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    cmd = [BINARY] + args + ["--work-dir=" + work]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         env=env, text=True, timeout=170)
    shutil.rmtree(work, ignore_errors=True)
    if res.returncode != 0:
        raise RuntimeError("driver exited with %d: %s"
                           % (res.returncode, " ".join(cmd)))
    lines = [json.loads(l) for l in res.stdout.splitlines()
             if l.startswith("{")]
    if len(lines) < 3:
        raise RuntimeError("driver printed no result")
    return lines[-3]["context"], lines[-2]["physics"], lines[-1]


def check_physics(physics, reference):
    """One check per reported configuration; returns (attempted, failed)."""
    failed = 0
    for entry in physics:
        ref = reference.get(entry["key"])
        if ref is None:
            log("perfbench: no reference for", entry["key"])
            failed += 1
            continue
        for field, want in ref.items():
            got = entry.get(field)
            if got is None or abs(got - want) > TOL * (1 + abs(want)):
                log("perfbench: %s %s = %r, reference %r"
                    % (entry["key"], field, got, want))
                failed += 1
                break
    return len(physics), failed


def select(metrics, group, trace):
    """The metrics BENCHMARK.json names in `group`, with its units. A layer
    the workload does not exercise reads 0 (--trace 1); a missing
    end-to-end metric or a unit mismatch is an error."""
    out = {}
    for m in group:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError("metric %s not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            raise RuntimeError("metric %s measured in %s, BENCHMARK.json "
                               "says %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def record_reference():
    reference = {}
    for workload in WORKLOADS:
        for extra in ([], ["--tiny"]):
            _, physics, _ = run_binary(
                ["--workload=" + workload, "--seed=1", "--seconds=1",
                 "--trace=0", "--record"] + extra)
            for entry in physics:
                reference[entry.pop("key")] = entry
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: wrote", REFERENCE, "(%d configurations)" % len(reference))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    a = p.parse_args()
    if not a.record_reference and a.workload is None:
        p.error("--workload is required")

    if not build():
        return 3
    if a.record_reference:
        record_reference()
        return 0

    with open(REFERENCE) as f:
        reference = json.load(f)
    with open(SPEC) as f:
        spec = json.load(f)
    args = ["--workload=" + a.workload, "--seed=%d" % a.seed,
            "--seconds=%g" % a.seconds, "--trace=%d" % a.trace]
    if a.tiny:
        args.append("--tiny")
    gate = QuietGate()
    gate.wait()
    context, physics, result = run_binary(
        args + (["--corrupt"] if a.corrupt else []))
    attempted, failed = check_physics(physics, reference)
    result["attempted"] += attempted
    result["failed"] += failed
    metrics = result["metrics"]

    if a.trace == 0:
        # setup_s: the median over fresh processes, this run's included.
        setups = [metrics["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            gate.wait()
            _, _, s = run_binary(args + ["--setup-only"])
            setups.append(s["metrics"]["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        context["setup_s_samples"] = setups
    elif a.workload == "dcmesh":
        # The plain single-threaded baseline: one pool thread, one OpenMP
        # thread, in a process of its own (OpenMP reads its thread count
        # at start-up).
        env = dict(os.environ, OMP_NUM_THREADS="1", MLMD_NUM_THREADS="1")
        gate.wait()
        _, _, s = run_binary(args + ["--serial-probe"], env=env)
        metrics["par.serial_md_step_s"] = s["metrics"]["par.serial_md_step_s"]
        result["attempted"] += s["attempted"]
        result["failed"] += s["failed"]

    metrics = select(metrics,
                     spec["per_layer" if a.trace else "end_to_end"], a.trace)
    result["correct"] = bool(result["correct"]) and result["failed"] == 0
    context["quiet_wait_s"] = round(gate.waited, 3)
    context["steal_probes"] = gate.probes
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench:", e)
        sys.exit(1)
