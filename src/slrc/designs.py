"""Binary (t_i, r)-regular incidence structures with girth >= 4.

A Design is a set of k points and b lines of size r such that every
point lies on t_i lines and two distinct lines share at most one point.
Two generated families are provided: the complete-graph design (edges
of K_{r+1} as points, vertices as lines, t_i = 2) and pencils of the
affine plane AG(2, r) for prime-power r.  Arbitrary 0/1 matrices can be
loaded and are checked by validate_design, the one check of these
invariants.  A design is k, r, t_i and its lines: the construction asks
nothing of how lines group, so no grouping is kept.

Points and line indices are 0-based internally; the JSON serialization
is 1-based.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, ParameterError, check_count
from .field import GF


@dataclass(frozen=True)
class Design:
    k: int
    r: int
    t_i: int
    lines: tuple            # tuple of sorted point-index tuples

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
        return {
            "k": self.k,
            "r": self.r,
            "t_i": self.t_i,
            "lines": [[p + 1 for p in line] for line in self.lines],
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; raises DesignError on a malformed document,
        where a boolean is not an integer.  Other keys are ignored."""
        if not (isinstance(d, dict)
                and all(type(d.get(key)) is int for key in ("k", "r", "t_i"))
                and isinstance(d.get("lines"), list)
                and all(isinstance(line, list)
                        and all(type(p) is int for p in line)
                        for line in d["lines"])):
            raise DesignError("a design document needs integers k, r and t_i "
                              "and lists of integers as lines")
        lines = tuple(tuple(sorted(p - 1 for p in line)) for line in d["lines"])
        return cls(k=d["k"], r=d["r"], t_i=d["t_i"], lines=lines)


def complete_graph_design(r):
    """Edges of K_{r+1} as points, vertices as lines (t_i = 2).

    Edges are ordered lexicographically by endpoint pair; line v holds
    the r edges incident to vertex v, in increasing order.  Two vertices
    share exactly one edge, so the girth condition holds by construction.
    """
    r = check_count("complete-graph design r", r, 2)
    vertices = range(r + 1)
    edges = [(a, b) for a in vertices for b in vertices if a < b]
    lines = [[] for _ in vertices]
    for i, (a, b) in enumerate(edges):
        lines[a].append(i)
        lines[b].append(i)
    return Design(k=len(edges), r=r, t_i=2, lines=tuple(map(tuple, lines)))


def affine_design(r, t_i):
    """t_i pencils of parallel lines in the affine plane AG(2, r).

    Points are the r^2 cells (a, b) of GF(r)^2, indexed a*r + b.  The
    pencil order is: lines of constant first coordinate, lines of
    constant second coordinate, then slope-s lines {(a, s*a + c)} for
    s = 1, ..., r-1.  Lines from distinct pencils meet in exactly one
    point; each pencil partitions the point set, so pencil c is
    lines[c*r:(c+1)*r].
    """
    r, t_i = check_count("affine design r", r, 2), check_count("t_i", t_i, 2)
    if t_i > r + 1:
        raise ParameterError(f"need t_i <= r + 1, got t_i={t_i}, r={r}")
    gf = GF(r)  # raises FieldError when r is not a prime power
    pencils = []
    pencils.append([tuple(a * r + b for b in range(r)) for a in range(r)])
    pencils.append([tuple(a * r + b for a in range(r)) for b in range(r)])
    for s in range(1, r):
        pencils.append([
            tuple(sorted(a * r + gf.add(gf.mul(s, a), c) for a in range(r)))
            for c in range(r)])
    lines = tuple(itertools.chain.from_iterable(pencils[:t_i]))
    return Design(k=r * r, r=r, t_i=t_i, lines=lines)


def validate_design(design: Design):
    """The one check of a design's invariants: returns the first
    violation as a string naming its 1-based line or point, or None."""
    t_i, r = design.t_i, design.r
    if min(design.k, r, t_i) < 1:
        return (f"k, r and t_i must be >= 1, got k={design.k}, r={r}, "
                f"t_i={t_i}")
    for idx, line in enumerate(design.lines):
        if len(set(line)) != r:
            return f"line {idx + 1} has {len(set(line))} points, expected {r}"
        if any(p < 0 or p >= design.k for p in line):
            return f"line {idx + 1} references a point outside [1, {design.k}]"
    counts = collections.Counter(p for line in design.lines for p in line)
    # sized by the lines, not by k: unless every point is counted, one of
    # 0..len(counts) is on no line, so the first miscounted point is among
    # them or the counted
    p = min((p for p in itertools.chain(range(len(counts) + 1), counts)
             if p < design.k and counts[p] != t_i), default=None)
    if p is not None:
        return f"point {p + 1} lies on {counts[p]} lines, expected {t_i}"
    for i, line in enumerate(design.lines):
        for j in range(i + 1, design.b):
            common = set(line) & set(design.lines[j])
            if len(common) > 1:
                return (f"lines {i + 1},{j + 1} share points "
                        f"{sorted(p + 1 for p in common)}")
    if design.b * r != design.k * t_i:
        return f"b*r = {design.b * r} differs from k*t_i = {design.k * t_i}"
    return None


def load_design(matrix):
    """Build a Design from a 0/1 incidence matrix, with r and t_i read
    off its first row and column; raises DesignError with
    validate_design's violation, prefixed "invalid design: " as
    ConstructionParams words it, when the result is not a design."""
    try:
        M = np.asarray(matrix)
    except ValueError:              # ragged rows
        M = None
    if M is None or M.ndim != 2:
        raise DesignError("incidence matrix must be 2-D, with rows of "
                          "equal length")
    # before the cast, which would read 0.5 as 0
    if not np.isin(M, (0, 1)).all():
        raise DesignError("incidence matrix entries must be 0 or 1")
    M = M.astype(np.int64)
    b, k = M.shape
    design = Design(k=k, r=int(M[0].sum()) if b else 0,
                    t_i=int(M[:, 0].sum()) if k else 0,
                    lines=tuple(tuple(int(j) for j in np.flatnonzero(row))
                                for row in M))
    violation = validate_design(design)
    if violation:
        raise DesignError(f"invalid design: {violation}")
    return design
