"""Binary (t_i, r)-regular incidence structures with girth >= 4.

A Design is a set of k points and b lines of size r such that every
point lies on t_i lines and two distinct lines share at most one point.
Two generated families are provided: the complete-graph design (edges
of K_{r+1} as points, vertices as lines, t_i = 2) and pencils of the
affine plane AG(2, r) for prime-power r.  Arbitrary 0/1 matrices can be
loaded and are gated by the validator.

Points and line indices are 0-based internally; the JSON serialization
is 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, DesignError
from .field import GF


@dataclass(frozen=True)
class Design:
    k: int
    r: int
    t_i: int
    lines: tuple            # tuple of sorted point-index tuples
    classes: tuple | None = None  # optional partition of line indices

    @property
    def b(self):
        return len(self.lines)

    @property
    def incidence(self):
        """The b x k binary incidence matrix M."""
        M = np.zeros((self.b, self.k), dtype=np.int64)
        for i, line in enumerate(self.lines):
            M[i, list(line)] = 1
        return M

    def to_dict(self):
        d = {
            "k": self.k,
            "r": self.r,
            "t_i": self.t_i,
            "lines": [[p + 1 for p in line] for line in self.lines],
            "classes": None if self.classes is None
            else [[j + 1 for j in cls] for cls in self.classes],
        }
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; raises DesignError on a malformed document,
        where a boolean is not an integer."""
        def int_lists(x):
            return isinstance(x, list) and all(
                isinstance(row, list) and all(type(v) is int for v in row)
                for row in x)
        if not (isinstance(d, dict)
                and all(type(d.get(key)) is int for key in ("k", "r", "t_i"))
                and int_lists(d.get("lines"))
                and (d.get("classes") is None or int_lists(d["classes"]))):
            raise DesignError("a design document needs integers k, r and t_i, "
                              "lists of integers as lines and optionally as "
                              "classes")
        lines = tuple(tuple(sorted(p - 1 for p in line)) for line in d["lines"])
        classes = d.get("classes")
        if classes is not None:
            classes = tuple(tuple(j - 1 for j in cls) for cls in classes)
        return cls(k=d["k"], r=d["r"], t_i=d["t_i"], lines=lines, classes=classes)


def complete_graph_design(r):
    """Edges of K_{r+1} as points, vertices as lines (t_i = 2).

    Edges are ordered lexicographically by endpoint pair; line v holds
    the r edges incident to vertex v.  Two vertices share exactly one
    edge, so the girth condition holds by construction.
    """
    if r < 2:
        raise ParameterError(f"complete-graph design needs r >= 2, got {r}")
    vertices = range(r + 1)
    edges = list(itertools.combinations(vertices, 2))
    index = {e: i for i, e in enumerate(edges)}
    lines = tuple(
        tuple(sorted(index[e] for e in edges if v in e)) for v in vertices)
    return Design(k=len(edges), r=r, t_i=2, lines=lines, classes=None)


def affine_design(r, t_i):
    """t_i pencils of parallel lines in the affine plane AG(2, r).

    Points are the r^2 cells (a, b) of GF(r)^2, indexed a*r + b.  The
    pencil order is: lines of constant first coordinate, lines of
    constant second coordinate, then slope-s lines {(a, s*a + c)} for
    s = 1, ..., r-1.  Lines from distinct pencils meet in exactly one
    point; each pencil partitions the point set.
    """
    if t_i < 2 or t_i > r + 1:
        raise ParameterError(f"need 2 <= t_i <= r + 1, got t_i={t_i}, r={r}")
    gf = GF(r)  # raises FieldError when r is not a prime power
    pencils = []
    pencils.append([tuple(a * r + b for b in range(r)) for a in range(r)])
    pencils.append([tuple(a * r + b for a in range(r)) for b in range(r)])
    for s in range(1, r):
        pencils.append([
            tuple(sorted(a * r + gf.add(gf.mul(s, a), c) for a in range(r)))
            for c in range(r)])
    lines = []
    classes = []
    for pencil in pencils[:t_i]:
        start = len(lines)
        lines.extend(pencil)
        classes.append(tuple(range(start, len(lines))))
    return Design(k=r * r, r=r, t_i=t_i, lines=tuple(lines),
                  classes=tuple(classes))


def validate_design(design: Design):
    """Check all Design invariants; returns (ok, report).

    The report carries the first violation, and for designs with
    classes the resolvability level reached: "strict" when every class
    partitions the point set, "relaxed" when class lines are merely
    pairwise disjoint.
    """
    t_i, r = design.t_i, design.r
    report = {"violation": None, "class_level": None}

    for idx, line in enumerate(design.lines):
        if len(set(line)) != r:
            report["violation"] = f"line {idx + 1} has {len(set(line))} points, expected {r}"
            return False, report
        if any(p < 0 or p >= design.k for p in line):
            report["violation"] = f"line {idx + 1} references a point outside [1, {design.k}]"
            return False, report
    counts = [0] * design.k
    for line in design.lines:
        for p in line:
            counts[p] += 1
    for p, c in enumerate(counts):
        if c != t_i:
            report["violation"] = f"point {p + 1} lies on {c} lines, expected {t_i}"
            return False, report
    for i, j in itertools.combinations(range(design.b), 2):
        common = set(design.lines[i]) & set(design.lines[j])
        if len(common) > 1:
            report["violation"] = (
                f"lines {i + 1},{j + 1} share points "
                f"{sorted(p + 1 for p in common)}")
            return False, report
    if design.b * r != design.k * t_i:
        report["violation"] = (
            f"b*r = {design.b * r} differs from k*t_i = {design.k * t_i}")
        return False, report

    if design.classes is not None:
        level = "strict"
        covered_all = True
        for ci, cls in enumerate(design.classes):
            seen = set()
            for j in cls:
                pts = set(design.lines[j])
                if seen & pts:
                    report["violation"] = f"class {ci + 1} has overlapping lines"
                    return False, report
                seen |= pts
            if seen != set(range(design.k)):
                covered_all = False
        if not covered_all:
            level = "relaxed"
        report["class_level"] = level
    return True, report


def load_design(matrix):
    """Build a Design from a 0/1 incidence matrix, validating fully.

    Row and column weights must be uniform; any girth violation is
    surfaced through the validator.  Classes are recovered greedily as
    maximal disjoint line families and kept only when every family
    partitions the point set.
    """
    M = np.asarray(matrix, dtype=np.int64)
    if M.ndim != 2:
        raise DesignError("incidence matrix must be 2-D")
    if not np.isin(M, (0, 1)).all():
        raise DesignError("incidence matrix entries must be 0 or 1")
    b, k = M.shape
    row_weights = M.sum(axis=1)
    col_weights = M.sum(axis=0)
    r = int(row_weights[0]) if b else 0
    for i, w in enumerate(row_weights):
        if w != r:
            raise DesignError(f"row {i + 1} has weight {int(w)}, expected {r}")
    t_i = int(col_weights[0]) if k else 0
    for j, w in enumerate(col_weights):
        if w != t_i:
            raise DesignError(f"column {j + 1} has weight {int(w)}, expected {t_i}")
    lines = tuple(tuple(int(j) for j in np.flatnonzero(M[i])) for i in range(b))

    classes = []
    for j in range(b):
        pts = set(lines[j])
        for cls in classes:
            if all(not (pts & set(lines[m])) for m in cls):
                cls.append(j)
                break
        else:
            classes.append([j])
    strict = all(
        set().union(*(lines[m] for m in cls)) == set(range(k))
        for cls in classes)
    design = Design(k=k, r=r, t_i=t_i, lines=lines,
                    classes=tuple(tuple(c) for c in classes) if strict else None)
    ok, report = validate_design(design)
    if not ok:
        raise DesignError(report["violation"])
    return design
