#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload ingest|read_mostly|serve \
        --seed N --seconds S --trace 0|1 [--ops N] [--corrupt-model]

Run from the root of a checkout. Builds the benchmark (perfbench/) and
the lsm_server binary from source with dune, runs one measured run, and
prints the run's report followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones; a run that misses any of them fails. Everything the run
writes stays inside the checkout (_build/ and .perfbench/).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVER = os.path.join("_build", "default", "bin", "lsm_server.exe")
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found")


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "lsm_server.ml")):
        if not os.path.exists(need):
            fail("not a checkout of the repository (missing %s)" % need)
    # the compiler's temporary files too stay inside the checkout
    tmp = os.path.abspath(os.path.join(".perfbench", "buildtmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = find_dune() + ["build", "--root", ".", EXE, SERVER]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def declared(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    gated = [w["name"] for w in spec["workloads"]]
    return gated, [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--server-exe", SERVER]
    if args.ops:
        argv += ["--ops", str(args.ops)]
    if args.corrupt_model:
        argv.append("--corrupt-model")
    limit = max(10.0, RUN_LIMIT_S - (time.monotonic() - START)) if args.built else RUN_LIMIT_S
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    finally:
        # the run's own server children are gone once its group is
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(os.path.join(".perfbench", "tmp"), ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("run exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("no result line")
    # a workload BENCHMARK.json gates must measure every declared metric;
    # one it does not (serve) reports the declared metrics it has
    gated, names = declared(args.trace)
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            if args.workload not in gated:
                continue
            sys.stderr.write(out)
            fail("metric %s missing" % name)
        metrics[name] = m
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["ingest", "read_mostly", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ops", type=int, default=0, help="fixed op count (engine workloads)")
    p.add_argument("--corrupt-model", action="store_true",
                   help="falsify one model entry; the run must report a failure")
    args = p.parse_args()
    os.chdir(ROOT)
    if not os.path.exists("BENCHMARK.json"):
        fail("BENCHMARK.json not found")
    first = not os.path.exists(EXE)
    build()
    args.built = not first
    run(args)


if __name__ == "__main__":
    main()
