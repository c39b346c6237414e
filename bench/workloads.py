"""One benchmark workload in its own process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-ns T [--setup-only]

Imports slrc from the checkout's src/, sets the workload up, then runs
whole rounds of its operations until S seconds have passed.  With
--trace 1 the first half of the time runs untraced and the second half
traced, so the tracing overhead is measured in the same process.
Outputs are checked with the independent oracle after the timed part.
The last line of standard output is one JSON object; set-up time is
counted from T, the runner's CLOCK_MONOTONIC reading just before it
started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import slrc  # noqa: E402
from slrc import (cli, construct, designs, linear, matrixio, mds,  # noqa: E402
                  simulate, verify)
from slrc.field import GF  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

if not os.path.abspath(slrc.__file__).startswith(os.path.join(ROOT, "src")):
    raise ImportError(f"slrc imported from {slrc.__file__}, not {ROOT}/src")


def build(r, delta, t_i, q, design):
    """Construct a code from scratch through the library."""
    fld = GF(q)
    des = (designs.complete_graph_design(r) if design == "complete-graph"
           else designs.affine_design(r, t_i))
    params = construct.ConstructionParams(
        r=r, delta=delta, t_i=t_i, field=fld, design=des,
        mds=mds.build_mds_parity(r, delta, fld))
    return construct.build_parity_check(params)


def run_cli(argv):
    """slrc.cli.main in-process; returns (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def oracle_for(code):
    return oracle.CodeOracle(oracle.field_for_spec(code.field.spec_dict()),
                             np.asarray(code.H))


def expected_n(k, b, r, delta):
    return k + (b + math.ceil(math.ceil(k / r) / r)) * (delta - 1)


class Workload:
    """A workload runs whole rounds of operations (`round_ops`) and
    checks their outputs afterwards (`check`)."""
    verdict_per_round = True     # a verdict is a whole round, or one op
    min_rounds = 1
    untraced_skip = ()           # op labels the traced run's baseline omits

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir

    def trials(self, ops):
        """Operations, as `attempted` counts them, in a list of ops."""
        return len(ops)


class Sweep(Workload):
    """The acceptance criterion-09 grid, points with n <= 40."""
    # (r, delta, t_i, design, q); q is the smallest prime power >= r+delta-2
    GRID = [
        (2, 2, 2, "complete-graph", 2), (2, 2, 2, "affine", 2),
        (2, 3, 2, "complete-graph", 3), (2, 3, 2, "affine", 3),
        (2, 3, 3, "affine", 3),
        (3, 2, 2, "complete-graph", 3), (3, 2, 2, "affine", 3),
        (3, 3, 2, "complete-graph", 4), (3, 3, 2, "affine", 4),
        (3, 3, 3, "affine", 4),
        (4, 2, 2, "complete-graph", 4), (4, 2, 2, "affine", 4),
        (4, 3, 2, "complete-graph", 5), (4, 3, 2, "affine", 5),
    ]
    # The traced run's untraced baseline leaves out the n=34 point (about
    # 50 s), so that both phases fit in one run; its spans are few.
    untraced_skip = {"point r=4 delta=3 t_i=2 affine q=5"}

    def round_ops(self, index):
        return [(f"point r={p[0]} delta={p[1]} t_i={p[2]} {p[3]} q={p[4]}",
                 lambda p=p: self.point(*p)) for p in self.GRID]

    @staticmethod
    def point(r, delta, t_i, design, q):
        code = build(r, delta, t_i, q, design)
        return {
            "point": (r, delta, t_i, design, q),
            "code": code,
            "seq": verify.check_sequential(code, r, t_i * (delta - 1)),
            "loc": verify.check_information_locality(code),
            "struct": verify.check_code_structure(code),
            "rank": verify.rank_report(code),
        }

    def check(self, rounds):
        errors = []
        for ops in rounds:
            for label, out in ops:
                errors += [f"{label} seed {argv[8]}: {e}" for e in self.check_point(out)]
        return errors

    @staticmethod
    def check_point(out):
        r, delta, t_i, _, q = out["point"]
        code = out["code"]
        lc = code.as_linear_code()
        co = oracle_for(code)
        errors = []
        t_claim = t_i * (delta - 1)
        if not (out["seq"].holds and out["seq"].checked_t == t_claim):
            errors.append(f"sequential recovery fails at t = {t_claim}")
        if not out["loc"].conditions_1_4:
            errors.append("locality conditions 1-4 fail")
        if not out["struct"].all_hold:
            errors.append("structure battery fails")
        p = code.params
        if code.n != expected_n(p.k, p.b, r, delta):
            errors.append(f"n = {code.n} differs from the layout formula")
        if out["rank"]["rank"] != co.rank or lc.dimension != code.n - co.rank:
            errors.append(f"rank {out['rank']['rank']} != oracle {co.rank}")
        G = lc.generator
        if (G.shape[0] != code.n - co.rank or not co.annihilates(G)
                or oracle.rank(co.fld, G) != G.shape[0]):
            errors.append("generator is not a basis of the code")
        words = linear.dual_low_weight(lc, r + 1)
        vecs = np.array([w.vector for w in words], dtype=np.int64)
        weights = np.count_nonzero(vecs, axis=1)
        if not words or weights.min() < 1 or weights.max() > r + 1:
            errors.append("dual word weight outside [1, r+1]")
        elif not co.in_row_space(vecs).all():
            errors.append("dual word outside the row space of H")
        return errors


class Reference(Workload):
    """The reference [16, 6] GF(4) code through the CLI, as a reader of
    the paper runs it; each iteration starts from a fresh directory."""
    T_STAR = 4

    def round_ops(self, index):
        d = os.path.join(self.workdir, f"iter{index}")
        os.makedirs(d)
        f = os.path.join(d, "code.json")
        commands = [
            ["construct", "--r", "3", "--delta", "3", "--ti", "2", "--q", "4",
             "--out", f],
            ["demo-paper"],
            ["verify", "--in", f, "--max-t", "9"],
            ["verify", "--in", f, "--t", "7"],
            ["bounds", "--r", "3", "--ti", "2", "--delta", "3", "--in", f],
        ]
        labels = ["construct", "demo-paper", "verify --max-t", "verify --t",
                  "bounds"]
        return [(label, lambda c=c, d=d: run_cli(c) + (d,))
                for label, c in zip(labels, commands)]

    def check(self, rounds):
        first = rounds[0]
        errors = self.check_iteration(first)
        want = [(rc, text.replace(d, "DIR")) for _, (rc, text, d) in first]
        for ops in rounds[1:]:
            got = [(rc, text.replace(d, "DIR")) for _, (rc, text, d) in ops]
            if got != want:
                errors.append("an iteration's output differs from the first")
        return errors

    def check_iteration(self, ops):
        out = {label: (rc, text) for label, (rc, text, _) in ops}
        d = ops[0][1][2]
        errors = []
        for label, (rc, _) in out.items():
            if rc != (1 if label == "verify --t" else 0):
                errors.append(f"{label} exited {rc}")
        built = json.loads(out["construct"][1])
        if (built["n"], built["k"], built["rate"]) != (16, 6, "3/8"):
            errors.append(f"construct reports {built}")
        with open(os.path.join(d, "code.json")) as fh:
            doc = json.load(fh)
        with open(os.path.join(ROOT, "src", "slrc", "data",
                               "reference_h.json")) as fh:
            golden = np.array(json.load(fh)["matrix"], dtype=np.int64)
        H = np.array(doc["entries"], dtype=np.int64).reshape(
            doc["rows"], doc["cols"])
        if H.shape != golden.shape or (H != golden).any():
            errors.append("constructed H differs from the golden matrix")
        co = oracle.CodeOracle(oracle.field_for_spec(doc["field"]), H)
        k = doc["params"]["k"]
        if co.rank != 10 or co.n - co.rank != k or 8 * k != 3 * co.n:
            errors.append(f"oracle rank {co.rank}, k {k}, n {co.n}")
        demo = out["demo-paper"][1].splitlines()
        if (sum("matches golden matrix" in s for s in demo) != 4
                or "measured t* = 4 (cap 9)" not in demo
                or "claimed tolerance 7: does not hold" not in demo):
            errors.append("demo-paper output lacks a finding")
        t_star = self.T_STAR
        oracle_t, oracle_failing = co.max_t(3, 9)
        if oracle_t != t_star:
            errors.append(f"oracle t* = {oracle_t}")
        for label in ("verify --max-t", "verify --t"):
            text = out[label][1]
            rep = json.loads(text[text.index("{"):])
            seq = rep["checks"][0]["witness"]
            if label == "verify --max-t" and seq["t_star"] != t_star:
                errors.append(f"{label} reports t* = {seq['t_star']}")
            failing = tuple(i - 1 for i in seq["failing_pattern"])
            if len(failing) != t_star + 1 or not co.peel(failing, 3):
                errors.append(f"{label}: witness {failing} is recoverable")
            if failing != oracle_failing:
                errors.append(f"{label}: witness {failing} is not the first "
                              f"unrecoverable pattern {oracle_failing}")
            names = {c["name"]: c["pass"] for c in rep["checks"]}
            if not (names["information_locality_1_4"]
                    and names["structure_battery"]):
                errors.append(f"{label}: locality or structure fails")
        bounds = out["bounds"][1].split()
        if bounds[bounds.index("exact_rate") + 1] != "3/8":
            errors.append("bounds reports another exact rate")
        return errors


class TStar(Workload):
    """max_sequential_t to exhaustion, cap above t*, on two affine codes."""
    CODES = [(2, 3, 3, 3), (3, 3, 3, 4)]       # (r, delta, t_i, q)
    CAP = 9
    SAMPLE = 200
    min_rounds = 3         # rounds take about 6 s

    def round_ops(self, index):
        return [(f"affine r={c[0]} delta={c[1]} t_i={c[2]} q={c[3]}",
                 lambda c=c: self.search(*c)) for c in self.CODES]

    def search(self, r, delta, t_i, q):
        code = build(r, delta, t_i, q, "affine")
        return code, verify.max_sequential_t(code, r, self.CAP)

    def check(self, rounds):
        errors = []
        rng = random.Random(self.seed)
        for label, (code, rep) in rounds[0]:
            p = code.params
            co = oracle_for(code)
            failing = rep.failing_pattern
            if not rep.complete or rep.t_star < p.t_i * (p.delta - 1):
                errors.append(f"{label}: t* = {rep.t_star} below t_claim")
                continue
            if (failing is None or len(failing) != rep.t_star + 1
                    or not co.peel(failing, p.r)):
                errors.append(f"{label}: witness {failing} is recoverable")
            for _ in range(self.SAMPLE):
                size = rng.randint(1, rep.t_star)
                pattern = tuple(sorted(rng.sample(range(code.n), size)))
                if co.peel(pattern, p.r):
                    errors.append(f"{label}: {pattern} does not peel")
                    break
        want = [(lab, rep.t_star, rep.failing_pattern)
                for lab, (_, rep) in rounds[0]]
        for ops in rounds[1:]:
            if [(lab, rep.t_star, rep.failing_pattern)
                    for lab, (_, rep) in ops] != want:
                errors.append("a round's verdict differs from the first")
        return errors


class Repair(Workload):
    """Seeded `slrc simulate` campaigns in-process: the reference code at
    t = t* = 4 and the affine n=25 code at t = 5 > t* = 3."""
    # (file name, r, delta, t_i, q, design, campaign t)
    CODES = [("reference", 3, 3, 2, 4, "complete-graph", 4),
             ("affine25", 4, 2, 2, 4, "affine", 5)]
    TRIALS = 6000
    verdict_per_round = False      # a verdict is one campaign

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        for name, r, delta, t_i, q, design, _ in self.CODES:
            matrixio.save_matrix(build(r, delta, t_i, q, design),
                                 self.path(name))

    def path(self, name):
        return os.path.join(self.workdir, f"{name}.json")

    def round_ops(self, index):
        ops = []
        for name, r, _, _, _, _, t in self.CODES:
            seed = self.rng.randrange(1 << 31)
            argv = ["simulate", "--in", self.path(name), "--t", str(t),
                    "--trials", str(self.TRIALS), "--seed", str(seed)]
            ops.append((f"{name} t={t}",
                        lambda argv=argv, r=r: run_cli(argv) + (r, argv)))
        return ops

    def trials(self, ops):
        return self.TRIALS * len(ops)

    def check(self, rounds):
        errors = []
        oracles = {}
        for ops in rounds:
            for label, (rc, text, r, argv) in ops:
                path = argv[2]
                if path not in oracles:
                    fld, H, roles, params = matrixio.load_matrix(path)
                    code = construct.constructed_from_matrix(fld, H, params,
                                                             roles)
                    co = oracle_for(code)
                    oracles[path] = (code, co, co.max_t(r, 9)[0])
                if rc != 0:
                    errors.append(f"{label} seed {argv[8]}: exit {rc}")
                    continue
                errors += [f"{label} seed {argv[8]}: {e}" for e in
                           self.check_campaign(*oracles[path], r, argv, text)]
        return errors

    @staticmethod
    def check_campaign(code, co, t_star, r, argv, text):
        """Replay the campaign with the same seed, recording every trial,
        and check each trial against the oracle."""
        t, trials, seed = (int(argv[i]) for i in (4, 6, 8))
        records = []
        plan, execute = simulate.plan_repair, simulate.execute_repair
        encode = construct.ConstructedCode.encode

        def rec_encode(self, message):
            word = encode(self, message)
            records.append({"word": word})
            return word

        def rec_plan(*args, **kwargs):
            schedule = plan(*args, **kwargs)
            records[-1]["schedule"] = schedule
            return schedule

        def rec_execute(*args):
            restored = execute(*args)
            records[-1]["restored"] = restored
            return restored

        construct.ConstructedCode.encode = rec_encode
        simulate.plan_repair, simulate.execute_repair = rec_plan, rec_execute
        try:
            replay = simulate.trial_campaign(code, r, t, trials, seed)
        finally:
            construct.ConstructedCode.encode = encode
            simulate.plan_repair, simulate.execute_repair = plan, execute

        errors = []
        if json.loads(json.dumps(replay)) != json.loads(text):
            errors.append("replay summary differs from the CLI's")
        if len(records) != trials:
            return errors + [f"{len(records)} trials recorded"]
        if not co.annihilates([rec["word"] for rec in records]):
            errors.append("a trial's codeword is not in the code")
        for rec in records:
            s = rec["schedule"]
            erased = set(s.erased)
            if not s.complete:
                if len(erased) <= t_star:
                    errors.append(f"{s.erased}: stuck within t* = {t_star}")
                elif not s.residual or co.peel(s.erased, r) != s.residual:
                    errors.append(f"{s.erased}: residual {s.residual} is "
                                  f"not the oracle's")
                continue
            if rec.get("restored") != tuple(rec["word"]):
                errors.append(f"{s.erased}: restored word differs")
            available = set(range(code.n)) - erased
            for step in s.steps:
                if (len(step.helpers) > r or not set(step.helpers) <= available
                        or step.repaired in available):
                    errors.append(f"{s.erased}: bad step {step}")
                available.add(step.repaired)
            if available != set(range(code.n)):
                errors.append(f"{s.erased}: left unrepaired")
        return errors[:5]


WORKLOADS = {"sweep": Sweep, "reference": Reference, "tstar": TStar,
             "repair": Repair}


def peak_rss_mb():
    """High-water resident set of this process (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(wl, seconds, first_index, min_rounds, sampler, skip=()):
    """Whole rounds until `seconds` have passed and at least `min_rounds`
    have run, leaving out the ops labelled in `skip`.  Returns per round
    the ops' (label, start, end, seconds net of calibration samples,
    output, error)."""
    rounds = []
    start = time.perf_counter()
    while True:
        ops = []
        for label, fn in wl.round_ops(first_index + len(rounds)):
            if label in skip:
                continue
            busy = sampler.busy
            t0 = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception:        # recorded as a failed operation
                out, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            ops.append((label, t0, t1, t1 - t0 - (sampler.busy - busy),
                        out, err))
        rounds.append(ops)
        if len(rounds) >= min_rounds and t1 - start >= seconds:
            return rounds


def scaled(rounds, sampler):
    """Rounds as (round time, [(label, time, output, error)]) with every
    time at reference machine speed."""
    out = []
    for ops in rounds:
        ops = [(label, calibrate.scale(net, sampler.speed(t0, t1)), o, e)
               for label, t0, t1, net, o, e in ops]
        out.append((sum(op[1] for op in ops), ops))
    return out


def summarize(wl, rounds):
    """End-to-end timings, as medians over rounds and verdicts."""
    if wl.verdict_per_round:
        verdicts = [sum(op[1] for op in r) for _, r in rounds]
    else:
        verdicts = [op[1] for _, r in rounds for op in r]
    run_s = statistics.median(wall for wall, _ in rounds)
    return {
        "run_s": run_s,
        "verdict_s_p50": statistics.median(verdicts),
        "trials_per_s": wl.trials(rounds[0][1]) / run_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(wl, args, out_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def trace_overhead(plain, traced):
    """Untraced time of one round's ops that both phases ran, and how
    much longer the traced phase took on them (medians per op label)."""
    def per_label(rounds):
        times = {}
        for _, ops in rounds:
            for label, t, _, _ in ops:
                times.setdefault(label, []).append(t)
        return {k: statistics.median(v) for k, v in times.items()}
    a, b = per_label(plain), per_label(traced)
    common = a.keys() & b.keys()
    base = sum(a[k] for k in common)
    return base, sum(b[k] for k in common) - base


def measure(wl, args, out_dir):
    metrics = {}
    with calibrate.SpeedSampler() as sampler:
        if args.trace:
            half = args.seconds / 2
            plain = run_rounds(wl, half, 0, 1, sampler, wl.untraced_skip)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(wl, half, len(plain), 1, sampler)
            finally:
                tracer.uninstall()
        else:
            rounds = run_rounds(wl, args.seconds, 0, wl.min_rounds, sampler)
            metrics["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        t0 = traced[0][0][1]
        plain, traced = scaled(plain, sampler), scaled(traced, sampler)
        rounds = plain + traced
        loop = statistics.median(
            v for t, v in zip(sampler.times, sampler.speeds) if t >= t0)
        metrics.update(tracer.layer_metrics(
            len(traced), calibrate.REFERENCE_NS / loop))
        metrics["machine.loop_ns"] = loop
        base, overhead = trace_overhead(plain, traced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100 * overhead / base
        tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        rounds = scaled(rounds, sampler)
        metrics.update(summarize(wl, rounds))

    attempted = sum(wl.trials(r) for _, r in rounds)
    failed = [op for _, r in rounds for op in r if op[3]]
    for label, _, _, err in failed[:3]:
        print(f"FAILED {label}\n{err}", file=sys.stderr)
    whole = [[(label, out) for label, _, out, _ in r] for _, r in rounds
             if not any(err for *_, err in r)]
    errors = wl.check(whole) if whole else []
    for e in errors[:20]:
        print(f"CHECK {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted,
            "failed": wl.trials(failed), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
