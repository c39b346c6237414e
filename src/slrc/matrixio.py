"""Matrix, design and report serialization.

The matrix JSON document is the interchange format for constructed
codes:

    {
      "field": {"p", "m", "prim_poly", "generator"},
      "rows", "cols",
      "entries": row-major element encodings,
      "coordinate_roles": optional ["information" | "line_parity" |
                                    "global_parity", ...],
      "params": optional {"r", "delta", "t_i", "k", "b", "s", "mu"}
    }

Only this module knows the params block (`SHAPE_KEYS`, `params_block`):
import reads it into its `CodeShape`, which checks that it is a layout
of H's shape.  Export followed by import is bit-exact.  Import checks
the rest of the document and raises ParameterError when it is
malformed; an integer is `type(x) is int`, since JSON true and false
load as bools, which Python counts as ints.
"""

from __future__ import annotations

import csv
import json
from typing import NamedTuple

import numpy as np

from .construct import ROLES, CodeShape
from .errors import ParameterError
from .field import GF

# the keys of a params block that give a CodeShape; s and mu are derived
SHAPE_KEYS = ("r", "delta", "t_i", "k", "b")


class MatrixFile(NamedTuple):
    """A matrix file as read, with no row reduction: its field, H, its
    coordinate roles and the CodeShape of its params block, the last two
    None when the file has none.  `save_matrix` and `save_matrix_csv`
    write it as they write a code."""
    field: GF
    H: np.ndarray
    roles: list | None
    params: CodeShape | None


def params_block(shape):
    """The params block of a CodeShape: its SHAPE_KEYS, s and mu."""
    return {key: getattr(shape, key) for key in SHAPE_KEYS + ("s", "mu")}


def matrix_to_dict(code):
    """The document of a code or a MatrixFile; the layout fields are
    those of its params, when it has them, and a MatrixFile without
    params keeps its own roles."""
    p = getattr(code, "params", None)
    return {
        "field": code.field.spec_dict(),
        "rows": int(code.H.shape[0]),
        "cols": int(code.H.shape[1]),
        "entries": [int(x) for x in code.H.ravel()],
        "coordinate_roles": (getattr(code, "roles", None) if p is None
                             else list(p.roles)),
        "params": None if p is None else params_block(p),
    }


def _require(doc, keys, what):
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise ParameterError(f"{what} lacks {', '.join(missing)}")


def dict_to_matrix(doc):
    """The MatrixFile of a document; H has at least one column, and the
    s, mu and coordinate roles of a params block are its layout's."""
    _require(doc, ("field", "rows", "cols", "entries"), "matrix document")
    spec = doc["field"]
    _require(spec, ("p", "m", "prim_poly", "generator"), "field spec")
    if not (all(type(spec[key]) is int for key in ("p", "m", "generator"))
            and isinstance(spec["prim_poly"], list)
            and all(type(c) is int for c in spec["prim_poly"])):
        raise ParameterError("field spec needs integers p, m and generator "
                             "and a list of integers prim_poly")
    fld = GF.from_spec_dict(spec)
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if not (type(rows) is int and type(cols) is int
            and isinstance(entries, list) and rows >= 0
            and len(entries) == rows * cols
            and all(type(x) is int for x in entries)):
        raise ParameterError(
            f"entries must be a list of rows*cols = {rows}*{cols} integers")
    if cols < 1:
        raise ParameterError(f"H needs at least one column, got cols = {cols}")
    if not all(0 <= x < fld.q for x in entries):
        raise ParameterError("matrix entry outside the field range")
    H = np.array(entries, dtype=np.int64).reshape(rows, cols)
    params, roles = doc.get("params"), doc.get("coordinate_roles")
    if params is not None:
        _require(params, SHAPE_KEYS, "params block")
        shape = CodeShape(fld, **{key: params[key] for key in SHAPE_KEYS},
                          h_shape=(rows, cols))
        for key in ("s", "mu"):
            value = params.get(key, getattr(shape, key))
            if type(value) is not int or value != getattr(shape, key):
                raise ParameterError(f"params {key} = {value!r} differs from "
                                     f"the layout's {getattr(shape, key)}")
        if roles is not None and roles != list(shape.roles):
            raise ParameterError(
                "coordinate_roles differ from the layout of the params block")
        params = shape
    elif roles is not None and not (
            isinstance(roles, list) and len(roles) == cols
            and all(role in ROLES for role in roles)):
        raise ParameterError(f"coordinate_roles must be a list of {cols} "
                             f"names among {', '.join(ROLES)}")
    return MatrixFile(fld, H, roles, params)


def save_matrix(code, path):
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(code), fh, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:     # not JSON, or not text
            raise ParameterError(f"{path} is not a JSON document: {exc}")


def load_matrix(path):
    """The matrix file at path as a MatrixFile, with no row reduction."""
    return dict_to_matrix(read_json(path))


def save_matrix_csv(code, path):
    H = code.H
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in H:
            writer.writerow(int(x) for x in row)


def load_matrix_csv(path):
    with open(path, newline="") as fh:
        try:
            return np.array([[int(x) for x in row]
                             for row in csv.reader(fh) if row], dtype=np.int64)
        except ValueError as exc:     # not integers, ragged, or not text
            raise ParameterError(f"{path} is not a CSV matrix of integers: "
                                 f"{exc}")
