"""Command-line interface.

Subcommands: construct, verify, simulate, bounds, export, demo-paper.
Exit codes: 0 success, 1 verification failure, 2 bad input (parameters,
field, design or matrix file), 3 I/O error, 4 a search, a generator,
the recovery sets or a printed rate over its budget,
141 (128 + SIGPIPE, what a shell reports for a writer that SIGPIPE ends)
when the reader of standard output closes it early, as `| head -1` does;
that case prints no error line.  Human-facing coordinates are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import reference
from .bounds import rate_report
from .construct import (ConstructedCode, ConstructionParams,
                        build_parity_check)
from .designs import affine_design, complete_graph_design, load_design, Design
from .errors import (ConstructionError, DesignError, FieldError,
                     InfeasibleError, ParameterError, SlrcError)
from .field import GF
from .linear import LinearCode
from .matrixio import (load_matrix, load_matrix_csv, params_block, read_json,
                       save_matrix, save_matrix_csv)
from .mds import build_mds_parity
from .simulate import campaign
from .verify import (check_code_structure, check_information_locality,
                     check_sequential, max_sequential_t, rank_report)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141
# first match wins; any other SlrcError is a failed verification.  A local
# MDS matrix that failed its own check (ConstructionError) is bad input.
_EXIT_CODES = [((ParameterError, FieldError, DesignError, ConstructionError),
                EXIT_PARAM),
               (InfeasibleError, EXIT_BUDGET), (OSError, EXIT_IO),
               (SlrcError, EXIT_VERIFY_FAIL)]


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_design_arg(spec, r, t_i):
    if spec == "complete-graph":
        return complete_graph_design(r)
    if spec == "affine":
        return affine_design(r, t_i)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if path.endswith(".csv"):
            return load_design(load_matrix_csv(path))
        return Design.from_dict(read_json(path))
    raise ParameterError(f"unknown design spec {spec!r}")


def cmd_construct(args):
    fld = GF(args.q)
    # the MDS matrix first: its q >= r + delta - 2, with q <= 1024, bounds
    # r before any design is built
    mds = build_mds_parity(args.r, args.delta, fld)
    design = _load_design_arg(args.design, args.r, args.ti)
    params = ConstructionParams(r=args.r, delta=args.delta, t_i=args.ti,
                                field=fld, design=design, mds=mds)
    code = build_parity_check(params)
    if args.out:
        save_matrix(code, args.out)
    _print_json({"n": params.n, "k": params.k, "rate": str(params.rate),
                 "b": params.b, "s": params.s, "mu": params.mu,
                 "out": args.out})
    return EXIT_OK


def _load_code(path, r):
    """(code, shape or None, r): a ConstructedCode of the file's
    CodeShape, else a LinearCode, and the given r, else the shape's;
    raises ParameterError when there is neither."""
    fld, H, _, shape = load_matrix(path)
    if shape is None:
        code = LinearCode(fld, H)
    else:
        code = ConstructedCode(shape, H)
        r = shape.r if r is None else r
    if r is None:
        raise ParameterError("--r is required for files without a params "
                             "block")
    return code, shape, r


def cmd_verify(args):
    code, shape, r = _load_code(args.infile, args.r)
    t = args.t if args.t is not None else (shape.t_claim if shape else 1)
    checks = []
    ok = True
    if args.max_t is not None:
        rep = max_sequential_t(code, r, args.max_t)
        checks.append({"name": f"max_sequential_t(cap={args.max_t})",
                       "pass": True, "witness": rep.to_dict()})
        print(f"t* = {rep.t_star}" + ("" if rep.complete else " (incomplete)"))
    else:
        rep = check_sequential(code, r, t)
        ok &= rep.holds
        checks.append({"name": f"check_sequential(t={t})",
                       "pass": rep.holds, "witness": rep.to_dict()})
    if shape is not None:
        loc = check_information_locality(code)
        ok &= loc.conditions_1_4
        checks.append({"name": "information_locality_1_4",
                       "pass": loc.conditions_1_4,
                       "witness": loc.failures or None})
        struct = check_code_structure(code)
        ok &= struct.all_hold
        checks.append({"name": "structure_battery",
                       "pass": struct.all_hold,
                       "witness": struct.statements})
        checks.append({"name": "rank", "pass": True,
                       "witness": rank_report(code)})
    report = {"params": None if shape is None else params_block(shape),
              "checks": checks, "pass": ok}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _print_json(report)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_simulate(args):
    code, _, r = _load_code(args.infile, args.r)
    trace = None
    if args.trace:
        def trace(step):
            helpers = "{" + ",".join(str(h + 1) for h in step.helpers) + "}"
            print(f"repair c{step.repaired + 1} <- {helpers} "
                  f"coeffs={list(step.coeffs)}")
    stats = campaign(code, r, args.t, args.trials, args.seed, trace=trace)
    _print_json(stats)
    return EXIT_OK


def cmd_bounds(args):
    shape = None
    if args.infile:
        shape = load_matrix(args.infile).params
        if shape is None:
            raise ParameterError("matrix file has no params block")
    d = rate_report(args.r, args.ti, args.delta, shape)
    notes = d.pop("notes")
    width = max(map(len, d))
    for key, value in d.items():
        print(f"{key:<{width}}  {value}")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK


def cmd_export(args):
    if args.csv is None and args.json_out is None:
        args.parser.error("one of --csv and --json is required")
    matrix = load_matrix(args.infile)
    if args.csv:
        save_matrix_csv(matrix, args.csv)
    if args.json_out:
        save_matrix(matrix, args.json_out)
    return EXIT_OK


def cmd_demo_paper(args):
    code = reference.reference_code()
    diffs = reference.rebuild_and_diff(code)
    failed = False
    for name, diff in diffs.items():
        if diff is None:
            print(f"{name}: matches golden matrix")
        else:
            failed = True
            i, j, got, want = diff
            print(f"{name}: MISMATCH at row {i}, col {j}: "
                  f"got {got}, expected {want}")
    if failed:
        return EXIT_VERIFY_FAIL

    rk = rank_report(code)
    print(f"rank {rk['rank']}, dimension {rk['dimension']}"
          + ("" if rk["rank_matches_statement"] else
             f" (construction note claims rank {rk['stated_rank']}; "
             f"measured value disagrees)"))
    loc = check_information_locality(code)
    print(f"locality conditions 1-4: {'pass' if loc.conditions_1_4 else 'FAIL'}")
    p = code.params
    struct = check_code_structure(code)
    print(f"structure battery: {'pass' if struct.all_hold else 'FAIL'}")
    # one stopping-set search: recovery at t_claim <= 9 is t* >= t_claim
    rep = max_sequential_t(code, p.r, cap=9)
    seq = rep.t_star >= p.t_claim
    print(f"sequential recovery at t = {p.t_claim}: "
          f"{'pass' if seq else 'FAIL'}")
    print(f"measured t* = {rep.t_star} (cap 9)")
    print(f"claimed tolerance {p.t_abstract}: "
          f"{'holds' if rep.t_star >= p.t_abstract else 'does not hold'}")
    ok = loc.conditions_1_4 and struct.all_hold and seq
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="slrc",
        description="Construct and exhaustively verify q-ary sequential "
                    "locally recoverable codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a parity-check matrix")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--ti", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--design", default="complete-graph",
                   help="complete-graph | affine | file:PATH (.json or .csv)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, default=None)
    tolerance = p.add_mutually_exclusive_group()
    tolerance.add_argument("--t", type=int, default=None)
    tolerance.add_argument("--max-t", dest="max_t", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="seeded erasure-repair trials")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="rate bounds table")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ti", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("export", help="convert a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", dest="json_out", default=None)
    p.set_defaults(func=cmd_export, parser=p)

    p = sub.add_parser("demo-paper",
                       help="rebuild the reference instance and verify it")
    p.set_defaults(func=cmd_demo_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()          # so that a closed pipe raises here
        return code
    except BrokenPipeError:
        # the reader left; the rest of the output goes to devnull, so the
        # interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (SlrcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
