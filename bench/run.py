"""Benchmark runner for slrc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout.  Each workload runs in its own
process (bench/workloads.py) with its BLAS/OpenMP threads pinned to 1;
set-up is repeated in SETUP_SAMPLES further processes and setup_s is
the median.  Times are scaled to reference machine speed (calibrate.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
with the end-to-end metrics of BENCHMARK.json when --trace 0 and its
per-layer metrics when --trace 1.  With --workload all, every workload
runs in turn, a table is printed, and the last line maps each workload
to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(workload, seed, seconds, trace, setup_only=False):
    """Run one workload process to its end; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timed_spawn(*args, **kwargs):
    """spawn, with the set-up time scaled to reference machine speed by
    calibration runs before and after the process."""
    before = calibrate.loop_ns(calibrate.SETUP_ITERATIONS)
    res = spawn(*args, **kwargs)
    after = calibrate.loop_ns(calibrate.SETUP_ITERATIONS)
    res["setup_s"] = calibrate.scale(res["setup_s"], (before + after) / 2)
    return res


def run_workload(spec, workload, seed, seconds, trace):
    setups = [timed_spawn(workload, seed, seconds, trace, setup_only=True)
              ["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = timed_spawn(workload, seed, seconds, trace)
    setups.append(res["setup_s"])
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload} did not report {missing}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slrc", "__init__.py")):
        print(f"error: no slrc sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(spec, args.workload, args.seed,
                                          seconds, args.trace)))
            return 0
        results = {}
        for name in names:
            res = run_workload(spec, name, args.seed, seconds, args.trace)
            results[name] = res
            print(f"{name}: attempted {res['attempted']}, failed "
                  f"{res['failed']}, correct {res['correct']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:<30} {v['value']:>16.6g} {v['unit']}")
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
