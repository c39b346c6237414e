"""Brute-force oracles for low-weight dual codewords and minimum distance.

Two independent ways to list every dual codeword of weight in
[1, wmax], normalized so the leading nonzero entry is 1 and ordered by
(weight, vector) as `slrc.linear.dual_low_weight` returns them:

* `rowspace_words` forms every combination of the rows of H with the
  field's lookup tables, in slices of at most 2^16 vectors.  Its cost is
  q^rank(H), so it suits codes with a small parity-check rank.
* `subset_words` takes every column set S of size <= wmax, computes the
  null space of G[:, S] by scalar Gaussian elimination and keeps the
  combinations that are nonzero on all of S.  Its cost is the number of
  column sets, so it suits long codes with small wmax.

`peel_residual` and `first_stuck_pattern` decide sequential repair
from the row-space word list alone, `sequential_by_patterns` checks
every erasure pattern against the helper sets of a word list,
`first_stopping_sets` does the same per size on any family of masks,
and `recovery_sets_oracle` scans that list once per coordinate for its
recovery sets, as the oracles of `slrc.simulate.plan_repair`, the
stopping-set search of `slrc.verify` and
`slrc.linear.all_recovery_sets`.  `max_disjoint_sets` backtracks over
Python sets of helpers, the oracle of `slrc.verify._max_disjoint`.

`layout_encode` encodes a message of a constructed code in two
stages, line parities and then global parities, as the oracle of
`slrc.construct.ConstructedCode.encode`; `syndrome` is H w one scalar
at a time, the oracle that every word `encode` gives is a codeword.

`brute_force_distance` lists every codeword, as the row space of a
null-space basis of H, and takes the smallest nonzero weight.  `_rref`
and `_nullspace` are scalar Gauss-Jordan elimination, the oracles for
`slrc.linear.rref` and `nullspace`, and `_rref` decides the column
dependence that `slrc.mds.verify_mds` reports.

None shares code with the functions under test beyond the field
arithmetic.
"""

from __future__ import annotations

import itertools

import numpy as np

from slrc.linear import DualWord, RepairStep

SLICE = 1 << 16


def _as_dual_words(vectors):
    words = [DualWord(vector=v, support=frozenset(j for j, x in enumerate(v)
                                                  if x))
             for v in set(vectors)]
    words.sort(key=lambda d: (len(d.support), d.vector))
    return words


def _rowspace(field, rows):
    """All q^len(rows) combinations of the rows, by elementwise field
    arithmetic."""
    n = rows.shape[1]
    words = np.zeros((1, n), dtype=np.int64)
    scalars = np.arange(field.q)
    for row in rows:
        multiples = field.vmul(*np.ix_(scalars, row))        # (q, n)
        words = field.vadd(words[:, None, :], multiples[None, :, :])
        words = words.reshape(-1, n)
    return words


def brute_force_distance(field, H):
    """Minimum nonzero weight over all q^k codewords of the code with
    parity check H; None for the zero code."""
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    n = H.shape[1]
    basis = np.array(_nullspace(field, H, n), dtype=np.int64).reshape(-1, n)
    weights = np.count_nonzero(_rowspace(field, basis), axis=1)
    weights = weights[weights > 0]
    return int(weights.min()) if len(weights) else None


def rowspace_words(field, H, wmax):
    """Dual words by enumerating the whole row space of H, q^rank(H)
    vectors."""
    n = np.shape(H)[1]
    H = np.array(_rref(field, H)[0], dtype=np.int64).reshape(-1, n)
    q = field.q
    inner = 0
    while inner < len(H) and q ** (inner + 1) <= SLICE:
        inner += 1
    outer, tail = H[:len(H) - inner], _rowspace(field, H[len(H) - inner:])
    found = set()
    for coeffs in itertools.product(range(q), repeat=len(outer)):
        base = np.zeros(n, dtype=np.int64)
        for c, row in zip(coeffs, outer):
            base = field.add_table[base, field.mul_table[c, row]]
        words = field.add_table[base[None, :], tail]
        weights = np.count_nonzero(words, axis=1)
        words = words[(weights > 0) & (weights <= wmax)]
        if len(words):
            lead = np.argmax(words != 0, axis=1)
            lead_vals = words[np.arange(len(words)), lead]
            words = field.mul_table[field.inv_table[lead_vals][:, None], words]
            found.update(tuple(int(x) for x in w) for w in words)
    return _as_dual_words(found)


def _rref(field, A):
    """Scalar Gauss-Jordan elimination; returns (nonzero rows, pivots)."""
    R = [[int(x) for x in row] for row in A]
    ncols = len(R[0]) if R else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(inv, x) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R[:len(pivots)], pivots


def _nullspace(field, A, ncols):
    """Basis of {x : A x = 0} for A with ncols columns."""
    R, pivots = _rref(field, A)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(R[i][f])
        basis.append(v)
    return basis


def subset_words(field, G, wmax):
    """Dual words by the null space of every column set of G."""
    G = np.atleast_2d(np.asarray(G, dtype=np.int64))
    n = G.shape[1]
    found = set()
    for w in range(1, min(wmax, n) + 1):
        for cols in itertools.combinations(range(n), w):
            basis = _nullspace(field, G[:, cols], w)
            for coeffs in itertools.product(range(field.q), repeat=len(basis)):
                v = [0] * w
                for c, row in zip(coeffs, basis):
                    if c:
                        v = [field.add(x, field.mul(c, y))
                             for x, y in zip(v, row)]
                if all(v):
                    inv = field.inv(v[0])
                    full = [0] * n
                    for j, x in zip(cols, v):
                        full[j] = field.mul(inv, x)
                    found.add(tuple(full))
    return _as_dual_words(found)


def _peel(words, erased):
    """Repairs, while any is left, an erased i with a word through i
    whose other coordinates are all available; returns the rest."""
    missing = set(erased)
    progress = True
    while progress:
        progress = False
        for i in sorted(missing):
            if any(i in w.support and not (w.support - {i}) & missing
                   for w in words):
                missing.discard(i)
                progress = True
    return tuple(sorted(missing))


def peel_residual(field, H, erased, r):
    """Coordinates of `erased` that repair, one at a time from at most r
    available coordinates, cannot reach."""
    return _peel(rowspace_words(field, H, r + 1), erased)


def first_stuck_pattern(field, H, r, t):
    """First erasure pattern of size <= t, by size and then
    lexicographically, that peeling does not fully repair; None if
    every pattern repairs."""
    words = rowspace_words(field, H, r + 1)
    n = np.shape(H)[1]
    for size in range(1, t + 1):
        for pattern in itertools.combinations(range(n), size):
            if _peel(words, pattern):
                return pattern
    return None


def helper_masks(words, n):
    """Per coordinate, the helper bitmask (the support less the
    coordinate) of every word through it."""
    masks = [[] for _ in range(n)]
    for w in words:
        support = sum(1 << j for j in w.support)
        for i in w.support:
            masks[i].append(support & ~(1 << i))
    return masks


def _level_holds(masks, n, size):
    """Check the erasure patterns of exactly `size` in lexicographic
    order up to the first one in which no member has a helper set
    outside the pattern; returns (that pattern or None, number of
    patterns checked)."""
    checked = 0
    for checked, pattern in enumerate(
            itertools.combinations(range(n), size), 1):
        erased = sum(1 << i for i in pattern)
        if all(m & erased for i in pattern for m in masks[i]):
            return pattern, checked
    return None, checked


def first_stopping_sets(masks):
    """Per size 1..n, the first stopping set of exactly that size in
    lexicographic order, or None: a set S such that every mask of every
    member of S meets S.  masks[i] may be any list of bitmasks below
    2^n, empty or not; the oracle of `slrc.verify._first_stopping_set`."""
    n = len(masks)
    return [_level_holds(masks, n, size)[0] for size in range(1, n + 1)]


def sequential_by_patterns(masks, n, cap):
    """Every erasure pattern of size <= cap, by size and then
    lexicographically, up to the first stuck one.  Returns (t*, that
    pattern or None, witnesses: size -> patterns checked), the verdict
    `slrc.verify.max_sequential_t` must reach by its stopping-set
    search."""
    witnesses = {}
    for size in range(1, cap + 1):
        failing, witnesses[size] = _level_holds(masks, n, size)
        if failing is not None:
            return size - 1, failing, witnesses
    return cap, None, witnesses


def recovery_sets_oracle(field, words, i):
    """Recovery sets of coordinate i, ordered by (size, helpers, coeffs),
    from one scan of a list of dual words of weight <= r + 1."""
    sets = []
    seen = set()
    for dw in words:
        if i not in dw.support:
            continue
        helpers = tuple(sorted(dw.support - {i}))
        scale = field.neg(field.inv(dw.vector[i]))
        coeffs = tuple(field.mul(scale, dw.vector[j]) for j in helpers)
        if (helpers, coeffs) not in seen:
            seen.add((helpers, coeffs))
            sets.append(RepairStep(repaired=i, helpers=helpers,
                                   coeffs=coeffs))
    sets.sort(key=lambda s: (len(s.helpers), s.helpers, s.coeffs))
    return sets


def layout_encode(code, message):
    """Systematic codeword of a ConstructedCode by the two-stage layout
    arithmetic, one scalar at a time: row i of H fixes coordinate k + i,
    the top mu rows from the message, the rows below from the line
    parities alone."""
    field, k, mu = code.field, code.params.k, code.params.mu
    H = code.H.tolist()
    word = list(message) + [0] * (code.n - k)
    for i, row in enumerate(H):
        reads = range(k) if i < mu else range(k, k + mu)
        acc = 0
        for j in reads:
            acc = field.add(acc, field.mul(row[j], word[j]))
        word[k + i] = field.neg(acc)
    return tuple(word)


def syndrome(field, H, word):
    """H w as a tuple of field elements, one scalar at a time."""
    out = []
    for row in H.tolist():
        acc = 0
        for a, x in zip(row, word):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return tuple(out)


def max_disjoint_sets(sets):
    """Largest pairwise-disjoint subfamily of recovery sets, by
    backtracking over sets of helpers in list order; the first family of
    that size the search meets."""
    best = []

    def extend(idx, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(sets):
            return
        if len(chosen) + (len(sets) - idx) <= len(best):
            return
        for j in range(idx, len(sets)):
            h = set(sets[j].helpers)
            if not (h & used):
                chosen.append(sets[j])
                extend(j + 1, chosen, used | h)
                chosen.pop()

    extend(0, [], set())
    return best
