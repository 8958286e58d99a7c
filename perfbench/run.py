#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark executable and the
service daemon from source with dune, runs one workload, checks its
outputs, and prints one JSON result object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Exits non-zero, without a result line, when the build or the
run fails.  See perfbench/RATIONALE.md for what each workload and metric
is for.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("sweep-n100", "bigtrial-n2000", "service", "carto-path8")
RUN_DIR = ".perfbench-run"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVE = os.path.join("_build", "default", "bin", "ncg_serve.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
           "./bin/ncg_serve.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (dune exit %d)" % proc.returncode)


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def reap_group(proc):
    """Kill the workload and whatever it left in its process group (a
    daemon or worker after a failure) and wait until the group is gone."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(400):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.025)


def run_bench(args, out_dir):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--serve-exe", SERVE]
    # own process group, so a timeout takes the daemon and workers too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        reap_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=160)
    except subprocess.TimeoutExpired:
        reap_group(proc)
        proc.communicate()
        die("workload timed out")
    reap_group(proc)
    if proc.returncode != 0:
        sys.stderr.write(out)
        die("workload exited with code %d" % proc.returncode)
    return out.rstrip("\n").split("\n")


def check_counters(lines, args):
    """The counter block must repeat exactly for the same build and seed."""
    block = [l for l in lines if l.startswith("COUNTERS ")]
    if len(block) != 1:
        return "missing counter block"
    store = os.path.join(RUN_DIR, "counters")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%d.json" % (
        digest([EXE, SERVE]), args.workload, args.seed))
    counters = block[0][len("COUNTERS "):]
    if os.path.exists(path):
        with open(path) as f:
            before = f.read()
        if before != counters:
            return "counter block differs from an earlier run of this " \
                   "build and seed: was %s" % before
    else:
        with open(path + ".tmp", "w") as f:
            f.write(counters)
        os.replace(path + ".tmp", path)
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    allowed = {m["name"]: m["unit"]
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    out_dir = os.path.join(RUN_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    lines = run_bench(args, out_dir)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("no result line")
    # the result line holds exactly the declared metrics, or it is no
    # result at all
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != allowed:
        die("result metrics %s do not match BENCHMARK.json %s"
            % (sorted(got.items()), sorted(allowed.items())))
    problems = []
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s has no finite value" % name)
    problem = check_counters(lines, args)
    if problem:
        problems.append(problem)
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print("CHECK FAILED: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
