"""Steadiness check: run one workload several times and compare the
run-to-run spread of each end-to-end metric with its bound.

    python3 bench/steady.py --workload tstar [--runs 5] [--first-seed 1]
                            [--seconds S]

Each run uses its own seed (first-seed, first-seed + 1, ...).  For each
metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median and
that spread as a share of the metric's bound in BENCHMARK.json, plus
the share of failed operations in each run.  Exits 1 when a run fails
or a spread other than setup_s's exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct {res['correct']}, attempted "
              f"{res['attempted']}, failed {res['failed']}, " + ", ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    ok = all(r["correct"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}{'/bound':>8}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        share = spread / m["bound"]
        if m["name"] != "setup_s" and share > 1:
            ok = False
        print(f"{m['name']:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{m['bound']:>7.2f}{share:>8.2f}")
    print(json.dumps({"workload": args.workload, "ok": ok, "runs": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
