import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slrc
import strategies
from slrc import cli
from slrc.cli import EXIT_PIPE, main
from slrc.construct import build_parity_check, constructed_from_matrix
from slrc.designs import complete_graph_design
from slrc.errors import ParameterError
from slrc.field import GF
from slrc.linear import DUAL_BYTE_BUDGET
from slrc.matrixio import (SHAPE_KEYS, MatrixFile, dict_to_matrix,
                           load_matrix, load_matrix_csv, matrix_to_dict,
                           save_matrix, save_matrix_csv)
from slrc.reference import golden, reference_code
from test_peel import _counted_tables


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_file_round_trip(tmp_path):
    code = reference_code()
    path = tmp_path / "h.json"
    save_matrix(code, path)
    matrix = load_matrix(path)
    assert isinstance(matrix, MatrixFile)
    fld, H, roles, params = matrix
    assert fld == code.field
    assert (H == code.H).all()
    assert roles == list(code.params.roles)
    assert params == strategies.shape_of(code)
    assert params.k == 6 and params.mu == 8
    # byte-exact re-export
    save_matrix(code, tmp_path / "h2.json")
    assert (tmp_path / "h.json").read_bytes() == (tmp_path / "h2.json").read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(strategies.codes)
def test_export_import_is_bit_exact_on_drawn_codes(code):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, name) for name in "ab")
        save_matrix(code, first)
        fld, H, roles, params = load_matrix(first)
        again = constructed_from_matrix(fld, H, params)
        save_matrix(again, second)
        with open(first, "rb") as fh, open(second, "rb") as gh:
            assert fh.read() == gh.read()
    assert fld == code.field
    assert again.H.dtype == code.H.dtype and (again.H == code.H).all()
    shape = SHAPE_KEYS + ("s", "mu", "n", "t_claim", "t_abstract")
    assert ([getattr(again.params, key) for key in shape]
            == [getattr(code.params, key) for key in shape])
    assert roles == list(again.params.roles) == list(code.params.roles)


def test_csv_round_trip(tmp_path):
    code = reference_code()
    path = tmp_path / "h.csv"
    save_matrix_csv(code, path)
    assert (load_matrix_csv(path) == code.H).all()


def test_construct_reference(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc, stdout, _ = run(capsys, "construct", "--r", "3", "--delta", "3",
                        "--ti", "2", "--q", "4",
                        "--design", "complete-graph", "--out", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["n"] == 16 and doc["k"] == 6 and doc["rate"] == "3/8"
    _, H, _, _ = load_matrix(out)
    assert (H == golden("h")).all()


def test_construct_delta2(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc, stdout, _ = run(capsys, "construct", "--r", "3", "--delta", "2",
                        "--ti", "2", "--q", "4", "--out", str(out))
    assert rc == 0
    _, H, _, _ = load_matrix(out)
    assert H.shape == (5, 11)


def test_construct_bad_field(capsys):
    rc, _, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                     "--ti", "2", "--q", "2")
    assert rc == 2
    assert "r + delta - 2" in err
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "4",
                          "--ti", "2", "--q", "4")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "q = 4 < r + delta - 2 = 5" in err


def test_verify_t4(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(capsys, "construct", "--r", "3", "--delta", "3", "--ti", "2",
        "--q", "4", "--out", str(out))
    rc, stdout, _ = run(capsys, "verify", "--in", str(out), "--t", "4")
    assert rc == 0
    report = json.loads(stdout)
    assert report["pass"] is True


def test_verify_max_t(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(capsys, "construct", "--r", "3", "--delta", "3", "--ti", "2",
        "--q", "4", "--out", str(out))
    report_path = tmp_path / "report.json"
    rc, stdout, _ = run(capsys, "verify", "--in", str(out),
                        "--max-t", "9", "--report", str(report_path))
    assert rc == 0
    assert "t* = 4" in stdout
    assert report_path.exists()


def test_verify_sabotaged_fails(tmp_path, capsys):
    code = reference_code()
    doc = matrix_to_dict(code)
    col = 6
    for row in range(code.H.shape[0]):
        doc["entries"][row * 16 + col] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, stdout, _ = run(capsys, "verify", "--in", str(bad), "--t", "1")
    assert rc == 1
    report = json.loads(stdout)
    seq = next(c for c in report["checks"] if c["name"].startswith("check_seq"))
    assert seq["witness"]["failing_pattern"] == [col + 1]


def test_simulate_deterministic(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(capsys, "construct", "--r", "3", "--delta", "3", "--ti", "2",
        "--q", "4", "--out", str(out))
    rc1, out1, _ = run(capsys, "simulate", "--in", str(out), "--t", "4",
                       "--trials", "50", "--seed", "7")
    rc2, out2, _ = run(capsys, "simulate", "--in", str(out), "--t", "4",
                       "--trials", "50", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["success_rate"] == 1.0


def test_simulate_trace(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(capsys, "construct", "--r", "3", "--delta", "3", "--ti", "2",
        "--q", "4", "--out", str(out))
    rc, stdout, _ = run(capsys, "simulate", "--in", str(out), "--t", "2",
                        "--trials", "5", "--seed", "1", "--trace")
    assert rc == 0
    assert "repair c" in stdout


def test_bounds_table(capsys):
    rc, stdout, _ = run(capsys, "bounds", "--r", "3", "--ti", "2",
                        "--delta", "3")
    assert rc == 0
    assert "1/5" in stdout


BOUNDS_REFERENCE = """\
r                       3
t_i                     2
delta                   3
t                       4
exact_rate              3/8
closed_form_rate        1/5
availability_bound      243/455
2seq_bound              3/5
3seq_bound              9/16
resolvable_family_rate  9/19
note: closed-form rate 1/5 diverges from exact rate 3/8
note: resolvable-family rate stated for odd t >= 3; t = 4 is outside
"""


def test_bounds_from_file_table(tmp_path, capsys):
    out = tmp_path / "code.json"
    save_matrix(reference_code(), out)
    rc, stdout, _ = run(capsys, "bounds", "--r", "3", "--ti", "2",
                        "--delta", "3", "--in", str(out))
    assert rc == 0
    assert stdout == BOUNDS_REFERENCE


def test_bounds_from_file_without_params_exits_2(tmp_path, capsys):
    doc = matrix_to_dict(reference_code())
    del doc["params"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, "bounds", "--r", "3", "--ti", "2",
                          "--delta", "3", "--in", str(path))
    assert rc == 2 and stdout == ""
    assert err == "error: matrix file has no params block\n"


def test_export_json_is_save_matrix(tmp_path, capsys):
    out = tmp_path / "code.json"
    save_matrix(reference_code(), out)
    again = tmp_path / "again.json"
    rc, _, _ = run(capsys, "export", "--in", str(out), "--json", str(again))
    assert rc == 0
    assert again.read_bytes() == out.read_bytes()


def test_export_csv(tmp_path, capsys):
    out = tmp_path / "code.json"
    run(capsys, "construct", "--r", "3", "--delta", "3", "--ti", "2",
        "--q", "4", "--out", str(out))
    csv_path = tmp_path / "h.csv"
    rc, _, _ = run(capsys, "export", "--in", str(out), "--csv", str(csv_path))
    assert rc == 0
    assert (load_matrix_csv(csv_path) == golden("h")).all()


def test_demo_paper(capsys):
    rc, stdout, _ = run(capsys, "demo-paper")
    assert rc == 0
    assert "matches golden" in stdout
    assert "rank 10, dimension 6" in stdout
    assert "t* = 4" in stdout


def test_construct_design_from_file(tmp_path, capsys):
    # drive the construction from a CSV incidence matrix
    csv_path = tmp_path / "design.csv"
    np.savetxt(csv_path, golden("design"), fmt="%d", delimiter=",")
    out = tmp_path / "code.json"
    rc, stdout, _ = run(capsys, "construct", "--r", "3", "--delta", "3",
                        "--ti", "2", "--q", "4",
                        "--design", f"file:{csv_path}", "--out", str(out))
    assert rc == 0
    _, H, _, _ = load_matrix(out)
    assert (H == golden("h")).all()


@pytest.mark.parametrize("classes", ["as written", None, [[1], [99]], [[0]]],
                         ids=["as-written", "null", "line-99", "line-0"])
def test_construct_design_document_ignores_classes(tmp_path, capsys, classes):
    # a design is its lines: any classes key, even one naming no line,
    # is ignored
    doc = complete_graph_design(3).to_dict()
    if classes != "as written":
        doc["classes"] = classes
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "code.json"
    rc, _, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                     "--ti", "2", "--q", "4",
                     "--design", f"file:{path}", "--out", str(out))
    assert rc == 0 and err == ""
    _, H, _, _ = load_matrix(out)
    assert (H == golden("h")).all()


def _one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text,match", [
    ("{not json", "not a JSON document"),
    ("{}", "design document needs"),
    ('{"k": 6, "r": 3, "t_i": 2, "lines": [["a"]]}', "design document needs"),
    ('{"lines": [[true, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]], "k": 6, '
     '"r": 3, "t_i": 2}', "design document needs"),
    # no points: refused for its W* block count, which names no design
    ('{"k": 0, "r": 3, "t_i": 2, "lines": []}',
     "invalid design: k, r and t_i must be >= 1, got k=0, r=3, t_i=2"),
])
def test_construct_malformed_design_file_exits_2(tmp_path, capsys, text,
                                                 match):
    path = tmp_path / "design.json"
    path.write_text(text)
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                          "--ti", "2", "--q", "4", "--design", f"file:{path}")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and match in err


@pytest.mark.parametrize("text,match", [
    ("1,1,x\n", "not a CSV matrix of integers"),
    ("1,1,0\n1,0\n", "not a CSV matrix of integers"),
])
def test_construct_malformed_csv_design_exits_2(tmp_path, capsys, text,
                                                match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                          "--ti", "2", "--q", "4", "--design", f"file:{path}")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and match in err


def test_one_design_violation_reads_alike_from_csv_and_json(tmp_path, capsys):
    # the same three lines, the last with one point, as an incidence
    # matrix and as a design document
    (tmp_path / "bad.csv").write_text("1,1,0\n0,1,1\n0,0,1\n")
    (tmp_path / "bad.json").write_text(json.dumps(
        {"k": 3, "r": 2, "t_i": 1, "lines": [[1, 2], [2, 3], [3]]}))
    for name in ("bad.csv", "bad.json"):
        rc, stdout, err = run(capsys, "construct", "--r", "2", "--delta", "3",
                              "--ti", "1", "--q", "4",
                              "--design", f"file:{tmp_path / name}")
        assert (rc, stdout) == (2, "")
        assert err == "error: invalid design: line 3 has 1 points, expected 2\n"


def test_construct_unknown_design_spec_exits_2(capsys):
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                          "--ti", "2", "--q", "4", "--design", "nope")
    assert (rc, stdout) == (2, "")
    assert err == "error: unknown design spec 'nope'\n"


def test_demo_paper_reports_a_golden_mismatch(capsys, monkeypatch):
    # a golden H with entry (2, 5) changed: the rebuild no longer matches
    from slrc import reference
    golden_of = reference.golden

    def spoiled(name):
        matrix = golden_of(name)
        if name == "h":
            matrix[1, 4] = (matrix[1, 4] + 1) % 4
        return matrix

    want = int(golden_of("h")[1, 4])
    monkeypatch.setattr(reference, "golden", spoiled)
    rc, stdout, _ = run(capsys, "demo-paper")
    assert rc == 1
    assert stdout.splitlines() == [
        "design: matches golden matrix", "mds: matches golden matrix",
        "m_star: matches golden matrix",
        f"h: MISMATCH at row 2, col 5: got {want}, "
        f"expected {(want + 1) % 4}"]


def test_verify_file_without_entries_exits_2(tmp_path, capsys):
    doc = matrix_to_dict(reference_code())
    del doc["entries"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--in", str(bad), "--t", "1")
    assert rc == 2
    assert _one_line_error(err) and "entries" in err


def test_verify_reports_the_layouts_params_block(tmp_path, capsys):
    # a block with a key the format does not have and without s and mu
    # is reported as the layout gives it, all seven keys and no other
    doc = matrix_to_dict(reference_code())
    del doc["params"]["s"], doc["params"]["mu"]
    doc["params"]["note"] = "anything"
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    rc, stdout, _ = run(capsys, "verify", "--in", str(path), "--t", "4")
    assert rc == 0
    assert json.loads(stdout)["params"] == {
        "b": 4, "delta": 3, "k": 6, "mu": 8, "r": 3, "s": 2, "t_i": 2}


def test_matrix_file_without_rows_is_the_whole_space():
    # H with no rows checks nothing: every word is a codeword
    doc = {"field": GF(4).spec_dict(), "rows": 0, "cols": 3, "entries": []}
    fld, H, roles, params = dict_to_matrix(doc)
    assert H.shape == (0, 3) and fld == GF(4)
    assert roles is None and params is None


def test_export_without_an_output_is_a_usage_error(tmp_path, capsys):
    # it wrote nothing and exited 0
    path = tmp_path / "code.json"
    save_matrix(reference_code(), path)
    rc, stdout, err = _outcome(capsys, lambda: main(
        ["export", "--in", str(path)]))
    assert rc == 2 and stdout == ""
    assert err.startswith("usage: ")
    assert "error: one of --csv and --json is required" in err
    assert os.listdir(tmp_path) == ["code.json"]


def test_verify_params_wider_than_h_exits_2(tmp_path, capsys):
    doc = matrix_to_dict(reference_code())
    doc["params"]["k"] = 20
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--in", str(bad))
    assert rc == 2
    assert _one_line_error(err) and "16 columns" in err


# params that fit H's shape but give no layout: W* needs w_blocks r = 3
# columns beside mu = 1 line parity, and delta = 1 has no line parity.
# verify ended in an IndexError (exit 1) on both, and simulate ran
NO_LAYOUT_DOCS = {
    "wide_w_star": ({"field": GF(4).spec_dict(), "rows": 2, "cols": 5,
                     "entries": [1, 1, 1, 1, 0, 0, 0, 0, 1, 1],
                     "params": {"r": 3, "delta": 2, "t_i": 1, "k": 3, "b": 1,
                                "s": 1, "mu": 1}}, "W\\*"),
    "delta_1": ({"field": GF(4).spec_dict(), "rows": 0, "cols": 3,
                 "entries": [], "params": {"r": 3, "delta": 1, "t_i": 1,
                                           "k": 3, "b": 1}}, "delta"),
}


@pytest.mark.parametrize("name", NO_LAYOUT_DOCS)
@pytest.mark.parametrize("argv", [("verify",), ("verify", "--max-t", "3"),
                                  ("simulate", "--t", "2", "--trials", "5")])
def test_params_that_give_no_layout_exit_2(tmp_path, capsys, name, argv):
    doc, named = NO_LAYOUT_DOCS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, argv[0], "--in", str(path), *argv[1:])
    assert (rc, stdout) == (2, "")
    assert _one_line_error(err) and re.search(named, err), err


@pytest.mark.parametrize("t,trials", [(2, 0), (0, 5)])
def test_simulate_zero_trials_exits_2(tmp_path, capsys, t, trials):
    out = tmp_path / "code.json"
    save_matrix(reference_code(), out)
    rc, _, err = run(capsys, "simulate", "--in", str(out), "--t", str(t),
                     "--trials", str(trials))
    assert rc == 2
    assert _one_line_error(err) and "must be >= 1" in err


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "code.json"
    save_matrix(reference_code(), out)
    rc, stdout, err = run(capsys, "simulate", "--in", str(out), "--t", "2",
                          "--seed", "-1")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("spoil,match", [
    (lambda d: d.pop("field"), "lacks field"),
    (lambda d: d["field"].pop("prim_poly"), "lacks prim_poly"),
    (lambda d: d["entries"].pop(), "rows\\*cols"),
    # verify proved t* = 3 of this empty code, and simulate erased its
    # coordinate 0
    (lambda d: d.update(rows=0, cols=0, entries=[], params=None),
     "H needs at least one column, got cols = 0"),
    (lambda d: d.update(rows="10"), "rows\\*cols"),
    (lambda d: d["entries"].__setitem__(3, "x"), "integers"),
    (lambda d: d["entries"].__setitem__(3, 4), "outside the field"),
    (lambda d: d["params"].pop("b"), "params block lacks b"),
    # the ids of the two count cases keep their names
    pytest.param(lambda d: d["params"].update(r=0), "r must be >= 1, got 0",
                 id="<lambda>-positive integers"),
    (lambda d: d["params"].update(delta=4), "give n = 21"),
    (lambda d: d["field"].update(p="4"), "integers p, m and generator"),
    (lambda d: d["field"].update(prim_poly=5), "list of integers prim_poly"),
    (lambda d: d.update(coordinate_roles=["x"]), "coordinate_roles differ"),
    (lambda d: d["params"].update(s=99, mu=1), "params s = 99 differs"),
    (lambda d: d["params"].update(mu=1), "params mu = 1 differs"),
    (lambda d: d.update(rows=11, entries=d["entries"] + [0] * 16),
     "give n - k = 10 rows, but H has 11"),
    # JSON true is no integer, although Python's bool is an int
    pytest.param(lambda d: d["params"].update(t_i=True),
                 "t_i must be an integer, got True",
                 id="<lambda>-must be positive"),
    (lambda d: d["entries"].__setitem__(3, True), "entries must be a list"),
])
def test_dict_to_matrix_rejects_malformed_documents(spoil, match):
    doc = matrix_to_dict(reference_code())
    spoil(doc)
    with pytest.raises(ParameterError, match=match):
        dict_to_matrix(doc)



@pytest.mark.parametrize("roles", [
    5, ["x", "x", "x"], ["x"] * 16, "information", {"v": 1}, [True] * 16,
    ["information"] * 15, ["information"] * 17])
def test_roles_without_params_are_checked(tmp_path, capsys, roles):
    # without a params block any value loaded, verify exited 0 on it,
    # and export wrote "coordinate_roles": null in its place
    doc = matrix_to_dict(reference_code())
    doc.update(params=None, coordinate_roles=roles)
    with pytest.raises(ParameterError, match="coordinate_roles must be a "
                       "list of 16 names among information, line_parity, "
                       "global_parity"):
        dict_to_matrix(doc)
    path = tmp_path / "roles.json"
    path.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, "verify", "--in", str(path), "--r", "3",
                          "--t", "2")
    assert rc == 2 and stdout == "" and _one_line_error(err)


def test_roles_without_params_round_trip(tmp_path, capsys):
    roles = ["global_parity"] * 8 + ["information"] * 8
    for given in (roles, None):
        doc = matrix_to_dict(reference_code())
        doc.update(params=None, coordinate_roles=given)
        assert dict_to_matrix(doc).roles == given
        path, again = tmp_path / "bare.json", tmp_path / "again.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        rc, _, _ = run(capsys, "export", "--in", str(path), "--json",
                       str(again))
        assert rc == 0 and again.read_bytes() == path.read_bytes()

def test_verify_non_json_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "verify", "--in", str(bad), "--t", "1")
    assert rc == 2
    assert _one_line_error(err) and "not a JSON document" in err


def test_construct_non_prime_power_exits_2(capsys):
    rc, _, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                     "--ti", "2", "--q", "6")
    assert rc == 2
    assert _one_line_error(err) and "not a prime power" in err


@pytest.mark.parametrize("r,q", [("3", "5"), ("4", "7")])
def test_construct_delta4_point_builds_and_verifies(tmp_path, capsys, r, q):
    # Q = beta^(i*j) is not MDS at (r, delta, q) = (3, 4, 5) or (4, 4, 7),
    # and both points were refused; the doubly-extended Reed-Solomon
    # matrix is MDS at every q >= r + delta - 2
    out = tmp_path / "code.json"
    rc, stdout, err = run(capsys, "construct", "--r", r, "--delta", "4",
                          "--ti", "2", "--q", q, "--out", str(out))
    assert rc == 0 and err == ""
    rc, stdout, err = run(capsys, "verify", "--in", str(out))
    assert rc == 0 and err == ""
    assert json.loads(stdout)["pass"] is True
    rc, stdout, _ = run(capsys, "verify", "--in", str(out), "--max-t", "9")
    assert rc == 0 and stdout.startswith("t* = 6\n")


def test_construct_has_no_mds_option(capsys):
    rc, stdout, err = _outcome(capsys, lambda: main(
        ["construct", "--r", "3", "--delta", "3", "--ti", "2", "--q", "4",
         "--mds", "cauchy"]))
    assert rc == 2 and stdout == ""
    assert "unrecognized arguments: --mds cauchy" in err


def test_verify_field_spec_p6_exits_2(tmp_path, capsys):
    doc = matrix_to_dict(reference_code())
    doc["field"].update(p=6, m=1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--in", str(bad), "--t", "1")
    assert rc == 2
    assert _one_line_error(err) and "6 is not a prime power" in err


@pytest.mark.parametrize("flag,value", [("--t", "-1"), ("--t", "0"),
                                        ("--max-t", "0")])
def test_verify_tolerance_below_one_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "code.json"
    save_matrix(reference_code(), out)
    rc, stdout, err = run(capsys, "verify", "--in", str(out), flag, value)
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and f"must be >= 1, got {value}" in err


@pytest.mark.parametrize("command", [["verify", "--t", "1"],
                                     ["simulate", "--t", "1"]])
def test_file_without_params_needs_r(tmp_path, capsys, command):
    doc = matrix_to_dict(reference_code())
    del doc["params"], doc["coordinate_roles"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, command[0], "--in", str(bare),
                          *command[1:])
    assert rc == 2 and stdout == ""
    assert err == "error: --r is required for files without a params block\n"
    rc, _, _ = run(capsys, command[0], "--in", str(bare), "--r", "3",
                   *command[1:])
    assert rc == 0


def test_construct_field_above_1024_exits_2(capsys):
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                          "--ti", "2", "--q", "2048")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "exceeds supported maximum 1024" in err


def test_verify_field_spec_gf2048_exits_2(tmp_path, capsys):
    doc = matrix_to_dict(reference_code())
    doc["field"].update(p=2, m=11, prim_poly=[1, 0, 1] + [0] * 8 + [1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, "verify", "--in", str(bad), "--t", "1")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "exceeds supported maximum 1024" in err


@pytest.mark.parametrize("prim_poly,message", [
    ([], "monic of degree 1, got ()"),
    ([3, 1], "GF(5) must be (0, 1), got (3, 1)")])
def test_prime_field_spec_with_other_prim_poly_exits_2(tmp_path, capsys,
                                                      prim_poly, message):
    # arithmetic mod 5 ignores the polynomial, so a file that names
    # another one would load, verify and be re-exported with it
    path = tmp_path / "gf5.json"
    rc, _, _ = run(capsys, "construct", "--r", "3", "--delta", "3", "--ti",
                   "2", "--q", "5", "--out", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["field"]["prim_poly"] == [0, 1]
    doc["field"]["prim_poly"] = prim_poly
    path.write_text(json.dumps(doc))
    for argv in (["verify", "--t", "1"],
                 ["export", "--json", str(tmp_path / "out.json")]):
        rc, stdout, err = run(capsys, argv[0], "--in", str(path), *argv[1:])
        assert rc == 2 and stdout == ""
        assert _one_line_error(err) and message in err


def test_verify_over_budget_exits_4(tmp_path, capsys, monkeypatch):
    out = tmp_path / "n34.json"
    rc, stdout, _ = run(capsys, "construct", "--r", "4", "--delta", "3",
                        "--ti", "2", "--q", "5", "--design", "affine",
                        "--out", str(out))
    assert rc == 0 and json.loads(stdout)["n"] == 34
    # the search spends 35, 1, 16, 24 and 29 nodes on sizes 1-5, where it
    # finds a stopping set
    monkeypatch.setattr("slrc.verify.MAX_NODES", 60)
    rc, stdout, err = run(capsys, "verify", "--in", str(out), "--t", "9")
    assert rc == 4
    assert stdout == ""
    assert _one_line_error(err) and "exceeds the budget" in err


def test_simulate_refuses_recovery_sets_over_the_budget_at_once(tmp_path,
                                                               capsys):
    # r = 11 gives the reference code 2,258,820 recovery sets, about
    # 580 MB by `entry_bytes`: refused once the dual words are counted,
    # in about the 1.4 s of their search, before any array of the sets
    path = tmp_path / "ref.json"
    save_matrix(reference_code(), path)
    start = time.perf_counter()
    rc, stdout, err = run(capsys, "simulate", "--in", str(path), "--t", "4",
                          "--r", "11")
    assert time.perf_counter() - start < 15
    assert rc == 4 and stdout == ""
    assert _one_line_error(err)
    assert "2258820 recovery sets of size <= 11 exceed" in err


def test_simulate_traces_a_campaign_at_r8(tmp_path, capsys, monkeypatch):
    # r = 8 gives the reference code 237,330 recovery sets, whose records,
    # about 170 MB by `record_bytes`, would not fit the budget: `--trace`
    # makes a record for each traced step alone, and prints the lines of
    # the per-trial route
    path = tmp_path / "ref.json"
    save_matrix(reference_code(), path)
    argv = ["simulate", "--in", str(path), "--t", "4", "--r", "8",
            "--trials", "20", "--trace"]
    tracemalloc.start()
    try:
        rc, stdout, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and err == ""
    assert peak < DUAL_BYTE_BUDGET, peak
    traced = [line.startswith("repair c") for line in stdout.splitlines()]
    assert sum(traced) > 20
    assert json.loads("".join(line for line, step in zip(
        stdout.splitlines(), traced) if not step))["success_rate"] == 1.0
    monkeypatch.setattr("slrc.cli.campaign", slrc.simulate.trial_campaign)
    assert run(capsys, *argv) == (0, stdout, "")


def test_construct_checks_the_field_before_the_design(capsys, monkeypatch):
    # q = 4 < r + delta - 2 is refused before the complete-graph design,
    # whose line loop costs O(r^3), is built
    def no_design(r):
        raise AssertionError("a design was built before the field check")
    monkeypatch.setattr("slrc.cli.complete_graph_design", no_design)
    rc, stdout, err = run(capsys, "construct", "--r", "2000", "--delta", "3",
                          "--ti", "2", "--q", "4")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "field too small" in err


def test_construct_design_file_with_a_huge_k_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 10 ** 12, "r": 3, "t_i": 2,
                                "lines": [[1, 2, 3]]}))
    rc, stdout, err = run(capsys, "construct", "--r", "3", "--delta", "3",
                          "--ti", "2", "--q", "4", "--design", f"file:{path}")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "point 1 lies on 1 lines" in err


def test_over_budget_generator_is_refused_before_it_is_built(tmp_path,
                                                             capsys):
    # one GF(2) row over 6000 columns: the 5999 x 6000 generator and its
    # flipped copy would take 72 MB, over the 64 MB budget
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": GF(2).spec_dict(), "rows": 1,
                                "cols": 6000, "entries": [1] * 6000}))
    tracemalloc.start()
    try:
        rc, stdout, err = run(capsys, "verify", "--in", str(path), "--r", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4 and stdout == ""
    assert _one_line_error(err) and "5999 x 6000 generator" in err
    assert peak < 8 << 20


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of call(), argparse's own exits for
    help and usage errors included."""
    try:
        rc = call()
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cached_parser_matches_a_fresh_one(capsys):
    from slrc.cli import build_parser
    assert build_parser() is build_parser()

    def fresh(argv):
        args = build_parser.__wrapped__().parse_args(argv)
        return args.func(args)

    for argv in (["bounds", "--r", "3", "--ti", "2", "--delta", "3"],
                 ["construct", "--r", "3", "--delta", "3", "--ti", "2",
                  "--q", "4"],
                 ["bounds", "--r", "4", "--ti", "3", "--delta", "2"],
                 ["--help"], ["verify", "--help"], ["construct", "--r", "3"]):
        assert (_outcome(capsys, lambda: main(argv))
                == _outcome(capsys, lambda: fresh(argv)))


def test_closed_pipe_exits_141_without_an_error_line(tmp_path):
    # --trace writes far more than a pipe holds, so the CLI is still
    # writing when the reader closes the pipe after one line
    path = tmp_path / "ref.json"
    save_matrix(reference_code(), path)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(slrc.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slrc.cli", "simulate", "--in", str(path),
         "--t", "4", "--trials", "3000", "--seed", "7", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PIPE == 141
    assert first.startswith(b"repair c")
    assert err == b""


def _zeroed(col):
    """The reference code's file with 1-based column `col` set to zero."""
    def write(path, capsys):
        code = reference_code()
        doc = matrix_to_dict(code)
        for row in range(code.H.shape[0]):
            doc["entries"][row * code.n + col - 1] = 0
        path.write_text(json.dumps(doc))
    return write


def _constructed(*argv):
    def write(path, capsys):
        assert run(capsys, "construct", *argv, "--out", str(path))[0] == 0
    return write


# SHA-256 of the stdout of `slrc verify --in F --max-t 9` and of
# `slrc verify --in F`.  The K3 point's coordinate-1 recovery sets mix
# sizes 1 and 2, so its structure witness reads the by-size order of the
# recovery sets; zeroing column 7, 13 or 15 of the reference code fails
# structure statements 2 and 3, 2, or 4, and column 7 or 13 fails
# locality condition 4 too.
VERIFY_PINS = {
    "reference": (_constructed("--r", "3", "--delta", "3", "--ti", "2",
                               "--q", "4"), 0,
        "65ccae1c57080bde338908503e14ca14dc8dc5d4231cb055423080d6a2003ffc",
        "a8e8e8a695547301a21a5cedb03f8532340600388dcbb322c72e082b69a3b398"),
    "k3-r2-delta3-q3": (_constructed("--r", "2", "--delta", "3", "--ti", "2",
                                     "--q", "3", "--design",
                                     "complete-graph"), 0,
        "7f40027732bdb3e85c686cd9f8b0c23e04ab5bf181f5c55beab502d3a97b56ad",
        "cab35aa99a042b5f6463f34d2b0c8b9ea6148a1ddf41f5256d1cd689a59d6423"),
    "reference-zero-col7": (_zeroed(7), 1,
        "dac3c1477b2d5e9b21541c4b0b3b1692ca5856317e255ff1b944dd1fc70a74e2",
        "c3dca3eb403afbf406a1854ef97f0c96892d592d8d412f4154373ecf62d5f69b"),
    "reference-zero-col13": (_zeroed(13), 1,
        "36b5561ca39449ed02809f1e4861f036f0d1bba56029493b02e4f8fa7e96d383",
        "5805b716f6f909a30dcbe0fd99696ed840dd16d22ee9c0b8115daf1ae3a360fb"),
    "reference-zero-col15": (_zeroed(15), 1,
        "20a1b5055d9dca2adfb421c95ba1f62f660e1c78285d8bf458265ea2bebcd13e",
        "9e1c4490d813763d61be51ca52428a9b5d6ef3410629b53999b895ccf51df347"),
}


@pytest.mark.parametrize("case", VERIFY_PINS)
def test_verify_bytes_are_pinned(tmp_path, capsys, case):
    write, rc_want, max_t_sha, plain_sha = VERIFY_PINS[case]
    path = tmp_path / "code.json"
    write(path, capsys)
    rc, stdout, _ = run(capsys, "verify", "--in", str(path), "--max-t", "9")
    assert (rc, hashlib.sha256(stdout.encode()).hexdigest()) == (rc_want,
                                                                max_t_sha)
    rc, stdout, _ = run(capsys, "verify", "--in", str(path))
    assert (rc, hashlib.sha256(stdout.encode()).hexdigest()) == (rc_want,
                                                                plain_sha)


@pytest.mark.parametrize("col", [7, 13, 15])
def test_simulate_outside_layout_exits_2(tmp_path, capsys, col):
    # params that fit H's shape, but an H whose words its layout cannot
    # encode: bad input, refused before the first trial
    path = tmp_path / "code.json"
    _zeroed(col)(path, capsys)
    rc, stdout, err = run(capsys, "simulate", "--in", str(path), "--t", "3")
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and "layout" in err


def test_simulate_bent_h_with_leading_information_set_exits_0(tmp_path,
                                                              capsys):
    # a global-parity row reads message symbol 1: H is outside its
    # layout, but coordinates 1..k are still an information set, so
    # every message encodes and every trial within t* repairs
    code = reference_code()
    doc = matrix_to_dict(code)
    doc["entries"][code.params.mu * code.n] = 1
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, "simulate", "--in", str(path), "--t", "3",
                          "--trials", "200")
    assert (rc, err) == (0, "")
    assert json.loads(stdout)["success_rate"] == 1.0


@pytest.mark.parametrize("command", [
    ["verify", "--r", "0"], ["verify", "--r", "-1"],
    ["simulate", "--r", "0", "--t", "2"]])
def test_locality_below_one_exits_2(tmp_path, capsys, command):
    path = tmp_path / "code.json"
    save_matrix(reference_code(), path)
    rc, stdout, err = run(capsys, command[0], "--in", str(path),
                          *command[1:])
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and f"got {command[2]}" in err


@pytest.mark.parametrize("point,named", [
    (("2", "2", "2"), "r = 2, delta = 2 but the code has r = 3, delta = 3"),
    (("3", "1", "3"), "t_i = 1 but the code has t_i = 2")])
def test_bounds_point_other_than_the_files_exits_2(tmp_path, capsys, point,
                                                   named):
    path = tmp_path / "code.json"
    save_matrix(reference_code(), path)
    r, ti, delta = point
    rc, stdout, err = run(capsys, "bounds", "--r", r, "--ti", ti,
                          "--delta", delta, "--in", str(path))
    assert rc == 2 and stdout == ""
    assert _one_line_error(err) and named in err


@pytest.mark.parametrize("point", [("0", "2", "3"), ("3", "0", "3"),
                                   ("3", "2", "1")])
def test_bounds_outside_the_family_exits_2(capsys, point):
    # r = 0 divided by zero and t = 0 failed a bound's own check: both
    # exited 1, the code of a failed verification, with a traceback
    r, ti, delta = point
    rc, stdout, err = run(capsys, "bounds", "--r", r, "--ti", ti,
                          "--delta", delta)
    assert rc == 2 and stdout == ""
    assert _one_line_error(err)
    assert re.search(f"^error: (r must be >= 1, got {r}|t_i must be >= 1, "
                     f"got {ti}|delta must be >= 2, got {delta})$", err)


@pytest.mark.parametrize("ti,delta,t", [("4000", "3", 8000),
                                        ("100000", "3", 200000),
                                        ("50", "1024", 51150)])
def test_bounds_too_long_to_print_exits_4(capsys, ti, delta, t):
    # the availability bound's denominator passes Python's 4300-digit
    # int-to-str limit: this ended in a ValueError traceback with exit 1,
    # after 3.4 s at delta = 1024 and past 30 s at t_i = 100000
    start = time.perf_counter()
    rc, stdout, err = run(capsys, "bounds", "--r", "3", "--ti", ti,
                          "--delta", delta)
    assert time.perf_counter() - start < 5
    assert rc == 4 and stdout == ""
    assert _one_line_error(err)
    assert f"r = 3, t = {t} is too long to print" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str limit")
def test_bounds_past_a_lower_python_print_limit_exits_4(capsys):
    # with the limit at 640 digits this ended in a ValueError traceback
    # with exit 1; t = 200's 143-digit denominator still prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, stdout, err = run(capsys, "bounds", "--r", "3", "--ti", "1000",
                              "--delta", "3")
        assert rc == 4 and stdout == "" and _one_line_error(err)
        assert "more than 640 digits" in err
        assert run(capsys, "bounds", "--r", "3", "--ti", "100",
                   "--delta", "3")[0] == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_at_the_longest_printable_bound(capsys):
    # t = 6009 is the largest t at r = 3 whose bound prints: its
    # denominator has 4300 digits, t = 6010's has more
    rc, stdout, _ = run(capsys, "bounds", "--r", "3", "--ti", "6009",
                        "--delta", "2")
    assert rc == 0
    bound = dict(line.split() for line in stdout.splitlines()
                 if not line.startswith("note"))["availability_bound"]
    assert len(bound.split("/")[1]) == 4300
    rc, _, err = run(capsys, "bounds", "--r", "3", "--ti", "6010",
                     "--delta", "2")
    assert rc == 4 and _one_line_error(err)


def test_verify_t_and_max_t_together_is_a_usage_error(tmp_path, capsys):
    # one would silently win: the failing t = 7 claim went unchecked
    path = tmp_path / "code.json"
    save_matrix(reference_code(), path)
    rc, stdout, err = _outcome(capsys, lambda: main(
        ["verify", "--in", str(path), "--t", "7", "--max-t", "9"]))
    assert rc == 2 and stdout == ""
    assert "not allowed with argument --t" in err


@pytest.mark.parametrize("argv, sha", [
    (("verify", "--max-t", "9"), VERIFY_PINS["reference"][2]),
    (("demo-paper",),
     "053bc9586133418f01974e1c6f18235e7b68290ad52fff25b92f5ef8fc1f5e84"),
    (("verify",), VERIFY_PINS["reference"][3]),
])
def test_one_recovery_set_table_per_command(tmp_path, capsys, monkeypatch,
                                            argv, sha):
    # one recovery-set table and one of its helper bitmasks, and no
    # RepairStep record: a record is made for repair alone
    path = tmp_path / "ref.json"
    save_matrix(reference_code(), path)

    def refuse(*args):
        raise AssertionError(f"slrc {argv[0]} built a RepairStep record")
    monkeypatch.setattr(slrc.linear, "RepairStep", refuse)
    builds = _counted_tables(monkeypatch)
    if argv[0] == "verify":
        argv = ("verify", "--in", str(path)) + argv[1:]
    rc, stdout, _ = run(capsys, *argv)
    assert builds() == (1, 1)
    assert (rc, hashlib.sha256(stdout.encode()).hexdigest()) == (0, sha)


# valid matrix documents over GF(4) and GF(3) for the fuzz test below
FUZZ_BASES = (
    matrix_to_dict(reference_code()),
    matrix_to_dict(strategies.build(2, 2, 2, 3, "complete-graph",
                                    "vandermonde")))
REQUIRED = (("field",), ("rows",), ("cols",), ("entries",),
            *(("field", key) for key in ("p", "m", "prim_poly", "generator")),
            *(("params", key) for key in SHAPE_KEYS))
NULLABLE = (("coordinate_roles",), ("params",))
OPTIONAL = NULLABLE + (("params", "s"), ("params", "mu"))
BIG = 2 ** 70


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _no_layouts(k, rows):
    """Each (r, delta, b) whose sizes give an H of n - k = rows rows and
    k + rows columns, but whose W* is wider than its mu line parities."""
    out = []
    for r, delta in itertools.product(range(1, k + rows + 1),
                                      range(2, rows + 2)):
        w_blocks = -(-(-(-k // r)) // r)        # ceil(ceil(k/r)/r)
        b = rows // (delta - 1) - w_blocks
        if (rows % (delta - 1) == 0 and b >= 1
                and w_blocks * r > b * (delta - 1)):
            out.append((r, delta, b))
    return out


@st.composite
def spoiled_documents(draw):
    """The JSON text of a valid matrix document spoiled in one way."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    kind = draw(st.sampled_from(["drop", "type", "count", "entry", "params",
                                 "layout", "field", "truncate"]))
    if kind == "drop":              # a required key is missing
        parent, key = _parent(doc, draw(st.sampled_from(REQUIRED)))
        del parent[key]
    elif kind == "type":            # a value of the wrong JSON type
        path = draw(st.sampled_from(REQUIRED + OPTIONAL))
        parent, key = _parent(doc, path)
        parent[key] = draw(st.sampled_from([
            v for v in ("3", 3.5, [3], {"v": 3}, None, True)
            if type(v) is not type(parent[key])
            and (v is not None or path not in NULLABLE)]))
    elif kind == "count":           # len(entries) != rows * cols
        d = draw(st.integers(1, 40))
        how = draw(st.sampled_from(["fewer", "more", "rows", "cols"]))
        if how == "fewer":
            del doc["entries"][-d:]
        elif how == "more":
            doc["entries"] += [0] * d
        else:
            doc[how] += draw(st.sampled_from([-d, d]))
    elif kind == "entry":           # an entry outside 0..q-1
        q = doc["field"]["p"] ** doc["field"]["m"]
        i = draw(st.integers(0, len(doc["entries"]) - 1))
        doc["entries"][i] = draw(st.one_of(st.integers(q, BIG),
                                           st.integers(-BIG, -1),
                                           st.just(10 ** 400)))
    elif kind == "params":          # params that contradict the document
        p = doc["params"]
        how = draw(st.sampled_from(["derived", "width", "height",
                                    "positive", "roles"]))
        if how == "derived":        # s or mu is not the layout's
            key = draw(st.sampled_from(["s", "mu"]))
            p[key] += draw(st.integers(-BIG, BIG).filter(bool))
        elif how == "width":        # n grows with each of k, b and delta
            key = draw(st.sampled_from(["k", "b", "delta"]))
            p[key] = draw(st.one_of(st.integers(1, BIG),
                                    st.just(10 ** 400)).filter(
                lambda v: v != p[key]))
        elif how == "height":       # H has a row more or less than n - k
            if draw(st.booleans()):
                del doc["entries"][-doc["cols"]:]
                doc["rows"] -= 1
            else:
                doc["entries"] += [0] * doc["cols"]
                doc["rows"] += 1
        elif how == "positive":
            p[draw(st.sampled_from(SHAPE_KEYS))] = draw(
                st.integers(-BIG, 0))
        else:
            roles = doc["coordinate_roles"]
            i = draw(st.integers(0, len(roles) - 1))
            roles[i] = draw(st.sampled_from(
                [r for r in ("information", "line_parity", "global_parity")
                 if r != roles[i]]))
    elif kind == "layout":          # params that fit H's shape, no layout
        k, rows = doc["cols"] - doc["rows"], doc["rows"]
        r, delta, b = draw(st.sampled_from(_no_layouts(k, rows)))
        mu = b * (delta - 1)
        doc["params"].update(r=r, delta=delta, b=b, s=-(-k // r), mu=mu)
        doc["coordinate_roles"] = (["information"] * k + ["line_parity"] * mu
                                   + ["global_parity"] * (rows - mu))
    elif kind == "field":           # a field-spec number out of range
        spec = doc["field"]
        q = spec["p"] ** spec["m"]
        key = draw(st.sampled_from(["p", "m", "generator"]))
        spec[key] = draw({
            # (-2) ** 2 is 4: a negative p can name a field size
            "p": st.one_of(st.integers(-40, 1), st.integers(-BIG, 1),
                           st.integers(1025, BIG)),
            "m": st.one_of(st.integers(-BIG, 0), st.integers(11, BIG)),
            "generator": st.one_of(st.integers(-BIG, 0),
                                   st.integers(q, BIG))}[key])
    text = json.dumps(doc)
    if kind == "truncate":          # a proper prefix of the text
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spoiled_documents())
def test_spoiled_matrix_documents_exit_2_with_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (["verify", "--in", path],
                     ["simulate", "--in", path, "--t", "2", "--trials", "5"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
            assert (rc, "Traceback" in out.getvalue() + err.getvalue()) == (
                2, False), err.getvalue()
            assert _one_line_error(err.getvalue()), err.getvalue()


def test_verify_block_punctured_to_the_zero_code_exits_1(tmp_path, capsys):
    # H rows 1 and 2 set to e_1 and e_2 force c_1 = c_2 = 0, so row block
    # 1 punctures to the zero code: a failed condition 2, not a traceback
    code = reference_code()
    doc = matrix_to_dict(code)
    for row in (0, 1):
        doc["entries"][row * code.n:(row + 1) * code.n] = [
            int(col == row) for col in range(code.n)]
    path = tmp_path / "zero_block.json"
    path.write_text(json.dumps(doc))
    rc, stdout, err = run(capsys, "verify", "--in", str(path))
    assert (rc, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
    assert checks["information_locality_1_4"]["witness"] == [
        "coordinate 1: condition 2 fails", "coordinate 1: condition 4 fails",
        "coordinate 2: condition 2 fails", "coordinate 2: condition 4 fails",
        "coordinate 3: condition count fails"]


def test_export_writes_a_file_whose_generator_is_over_budget(tmp_path,
                                                            capsys):
    # the one-row 6000-column GF(2) file that verify refuses for its
    # 5999 x 6000 generator: export writes H, so it builds no generator
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": GF(2).spec_dict(), "rows": 1,
                                "cols": 6000, "entries": [1] * 6000}))
    first, again, csv_path = (tmp_path / name
                              for name in ("a.json", "b.json", "w.csv"))
    rc, stdout, err = run(capsys, "export", "--in", str(path),
                          "--json", str(first), "--csv", str(csv_path))
    assert (rc, stdout, err) == (0, "", "")
    assert run(capsys, "export", "--in", str(first),
               "--json", str(again)) == (0, "", "")
    assert again.read_bytes() == first.read_bytes()
    _, H, roles, params = load_matrix(again)
    assert H.shape == (1, 6000) and (H == 1).all()
    assert roles is None and params is None
    assert (load_matrix_csv(csv_path) == H).all()


def test_bounds_and_export_row_reduce_nothing(tmp_path, capsys, monkeypatch):
    path = tmp_path / "code.json"
    save_matrix(reference_code(), path)

    def no_rref(field, A):
        raise AssertionError("a matrix was row-reduced")
    monkeypatch.setattr("slrc.linear.rref", no_rref)
    rc, stdout, _ = run(capsys, "bounds", "--r", "3", "--ti", "2",
                        "--delta", "3", "--in", str(path))
    assert (rc, stdout) == (0, BOUNDS_REFERENCE)
    again = tmp_path / "again.json"
    assert run(capsys, "export", "--in", str(path),
               "--json", str(again)) == (0, "", "")
    assert again.read_bytes() == path.read_bytes()


def test_construct_refuses_an_over_budget_generator_before_h(capsys,
                                                            monkeypatch):
    # K_151 has k = 11325 points and n = 11629: a generator of at least
    # k x n bytes and its flipped copy exceed the 64 MB budget, which the
    # shape shows before H is assembled and row-reduced
    def no_h(design, mds):
        raise AssertionError("H was assembled")
    monkeypatch.setattr("slrc.construct.expand_m_star", no_h)
    rc, stdout, err = run(capsys, "construct", "--r", "150", "--delta", "3",
                          "--ti", "2", "--q", "151")
    assert rc == 4 and stdout == ""
    assert _one_line_error(err)
    assert "generator of at least 11325 x 11629" in err


def test_construct_refuses_an_over_budget_design_before_validating_it(
        capsys, monkeypatch):
    # K_601 has k = 180300 points: the generator's size is known from the
    # shape, before validate_design's O(b^2 r) pairs of lines; this took
    # 20 s, 5.5 s of it listing the lines and 11.5 s validating them
    def no_validation(design):
        raise AssertionError("the design was validated")
    monkeypatch.setattr("slrc.construct.validate_design", no_validation)
    start = time.perf_counter()
    rc, stdout, err = run(capsys, "construct", "--r", "600", "--delta", "2",
                          "--ti", "2", "--q", "1024")
    assert time.perf_counter() - start < 5
    assert rc == 4 and stdout == ""
    assert _one_line_error(err)
    assert "generator of at least 180300 x 180902" in err


DEMO_PAPER = """\
design: matches golden matrix
mds: matches golden matrix
m_star: matches golden matrix
h: matches golden matrix
rank 10, dimension 6 (construction note claims rank 8; measured value disagrees)
locality conditions 1-4: pass
structure battery: pass
sequential recovery at t = 4: pass
measured t* = 4 (cap 9)
claimed tolerance 7: does not hold
"""


def test_demo_paper_builds_the_reference_code_once(capsys, monkeypatch):
    import slrc.reference
    built = []

    def counted(params):
        built.append(params)
        return build_parity_check(params)
    monkeypatch.setattr(slrc.reference, "build_parity_check", counted)
    assert run(capsys, "demo-paper") == (0, DEMO_PAPER, "")
    assert len(built) == 1


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_cli_lines():
    """The `slrc ...` lines of the first code block after README's "## CLI"
    heading, as (argv words, comment)."""
    text = open(README, encoding="utf-8").read()
    block = text[text.index("## CLI\n"):].split("```")[1]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition(" #")
        if command.startswith("slrc "):
            lines.append((command.split()[1:], comment.strip()))
    return lines


def test_readme_cli_block_runs_as_documented(tmp_path, capsys, monkeypatch):
    # each line with its bracketed options left out, then with them all,
    # in order in one directory, so later lines read construct's file
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert [words[0] for words, _ in lines] == [
        "construct", "verify", "verify", "simulate", "bounds", "export",
        "demo-paper"]
    for words, comment in lines:
        plain = " ".join(words)
        for argv in {re.sub(r" ?\[[^]]*\]", "", plain),
                     plain.replace("[", "").replace("]", "")}:
            rc, out, err = run(capsys, *argv.split())
            assert (rc, err) == (cli.EXIT_OK, ""), argv
            if "prints t*" in comment:
                assert out.startswith("t* = "), argv


def test_readme_exit_code_table_is_the_clis():
    text = open(README, encoding="utf-8").read()
    table = dict(re.findall(r"^\| (\d+) \| `(EXIT_\w+)` \|", text, re.M))
    assert {int(code): name for code, name in table.items()} == {
        getattr(cli, name): name for name in dir(cli)
        if name.startswith("EXIT_")}
