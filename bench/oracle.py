"""Independent oracle for the benchmark's output checks.

Nothing here imports slrc.  Field arithmetic is rebuilt from the
documented element encoding: an element of GF(p^m) is the integer whose
base-p digits, low to high, are the coefficients of its residue
polynomial; GF(4) is GF(2)[x] / (x^2 + x + 1).  Row reduction, rank,
null space and peeling are written here again, so a fault in the
library's versions cannot hide itself.

Peeling uses the definition of recovery directly: coordinate i is a
function of a helper set A exactly when rank(G[:, A + {i}]) equals
rank(G[:, A]), with G a generator matrix the oracle derives from H.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# q -> (p, m, modulus coefficients low to high, None for prime fields)
_FIELDS = {2: (2, 1, None), 3: (3, 1, None), 4: (2, 2, (1, 1, 1)),
           5: (5, 1, None)}


class Field:
    """GF(q) for q in {2, 3, 4, 5} as numpy lookup tables."""

    def __init__(self, q):
        if q not in _FIELDS:
            raise ValueError(f"oracle field GF({q}) is not supported")
        p, m, modulus = _FIELDS[q]
        self.q, self.modulus = q, modulus
        digits = [[(v // p ** j) % p for j in range(m)] for v in range(q)]

        def encode(ds):
            return sum(d * p ** j for j, d in enumerate(ds))

        def mul(a, b):
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for deg in range(len(prod) - 1, m - 1, -1):   # reduce by modulus
                c = prod[deg]
                if c:
                    for j, mc in enumerate(modulus):
                        prod[deg - m + j] = (prod[deg - m + j] - c * mc) % p
            return encode(prod[:m])

        self.add = np.array(
            [[encode([(x + y) % p for x, y in zip(digits[a], digits[b])])
              for b in range(q)] for a in range(q)], dtype=np.int64)
        self.mul = np.array([[mul(a, b) for b in range(q)] for a in range(q)],
                            dtype=np.int64)
        self.neg = np.array([encode([(-x) % p for x in digits[a]])
                             for a in range(q)], dtype=np.int64)
        self.inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            (b,) = [b for b in range(1, q) if self.mul[a, b] == 1]
            self.inv[a] = b

    def sub(self, a, b):
        return self.add[a, self.neg[b]]

    def matmul(self, A, B):
        """A @ B over the field."""
        A = np.atleast_2d(np.asarray(A, dtype=np.int64))
        B = np.atleast_2d(np.asarray(B, dtype=np.int64))
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for j in range(A.shape[1]):
            out = self.add[out, self.mul[A[:, j][:, None], B[j][None, :]]]
        return out


def field_for_spec(spec):
    """Oracle field for a matrix file's field block, refusing any
    modulus other than the documented one."""
    q = spec["p"] ** spec["m"]
    fld = Field(q)
    if fld.modulus is not None and tuple(spec["prim_poly"]) != fld.modulus:
        raise ValueError(f"GF({q}) file uses modulus {spec['prim_poly']}")
    return fld


def rref(fld, A):
    """Reduced row echelon form and pivot columns."""
    R = np.array(np.atleast_2d(A), dtype=np.int64)
    pivots = []
    row = 0
    for c in range(R.shape[1]):
        if row == R.shape[0]:
            break
        nz = np.flatnonzero(R[row:, c])
        if not len(nz):
            continue
        piv = row + nz[0]
        R[[row, piv]] = R[[piv, row]]
        R[row] = fld.mul[fld.inv[R[row, c]], R[row]]
        for i in np.flatnonzero(R[:, c]):
            if i != row:
                R[i] = fld.sub(R[i], fld.mul[R[i, c], R[row]])
        pivots.append(c)
        row += 1
    return R[:row], pivots


def rank(fld, A):
    return len(rref(fld, A)[1])


def nullspace(fld, A):
    """Rows spanning {x : A x = 0}."""
    R, pivots = rref(fld, A)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    N = np.zeros((len(free), n), dtype=np.int64)
    for t, f in enumerate(free):
        N[t, f] = 1
        for i, pc in enumerate(pivots):
            N[t, pc] = fld.neg[R[i, f]]
    return N


def batch_rank(fld, mats):
    """Ranks of a stack of matrices, shape (batch, rows, cols), by
    elimination over the columns of every matrix at once."""
    M = np.array(mats, dtype=np.int64)
    batch, rows, cols = M.shape
    ranks = np.zeros(batch, dtype=np.int64)
    idx = np.arange(batch)
    rowids = np.arange(rows)
    for c in range(cols):
        cand = (M[:, :, c] != 0) & (rowids[None, :] >= ranks[:, None])
        has = cand.any(axis=1)
        b = idx[has]
        if not len(b):
            continue
        piv = cand[b].argmax(axis=1)
        top = ranks[b]
        swap = M[b, piv].copy()
        M[b, piv] = M[b, top]
        M[b, top] = fld.mul[fld.inv[swap[:, c]][:, None], swap]
        pivot_rows = M[b, top]
        factors = M[b, :, c].copy()
        factors[np.arange(len(b)), top] = 0
        M[b] = fld.sub(M[b], fld.mul[factors[:, :, None],
                                     pivot_rows[:, None, :]])
        ranks[b] += 1
    return ranks


def rank_of_combination(n, combo):
    """Zero-based position of a sorted combination in the order of
    itertools.combinations(range(n), len(combo))."""
    k = len(combo)
    pos, prev = 0, -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            pos += math.comb(n - 1 - v, k - 1 - i)
        prev = c
    return pos


class CodeOracle:
    """A linear code given by its parity-check matrix H, rechecked with
    the oracle's own arithmetic."""

    def __init__(self, fld, H):
        self.fld = fld
        self.H = np.atleast_2d(np.asarray(H, dtype=np.int64))
        self.n = self.H.shape[1]
        self._basis, self._pivots = rref(fld, self.H)
        self.rank = len(self._pivots)
        self.G = nullspace(fld, self.H)
        self._func = {}

    def annihilates(self, G):
        """True when H G^T = 0, i.e. every row of G is a codeword."""
        G = np.atleast_2d(np.asarray(G, dtype=np.int64))
        return not self.fld.matmul(self.H, G.T).any()

    def in_row_space(self, words):
        """Boolean per word: does it lie in the row space of H?"""
        W = np.atleast_2d(np.asarray(words, dtype=np.int64)).copy()
        for row, pc in zip(self._basis, self._pivots):
            W = self.fld.sub(W, self.fld.mul[W[:, pc][:, None], row[None, :]])
        return ~W.any(axis=1)

    def function_masks(self, r):
        """For every coordinate i, the bitmasks of the r-subsets A of the
        other coordinates of which coordinate i is a function."""
        if r in self._func:
            return self._func[r]
        n, G = self.n, self.G
        subsets = list(itertools.combinations(range(n), r))
        bigger = list(itertools.combinations(range(n), r + 1))
        rank_a = dict(zip(subsets, self._ranks(subsets)))
        masks = [[] for _ in range(n)]
        for B, rk in zip(bigger, self._ranks(bigger)):
            for i in B:
                A = tuple(j for j in B if j != i)
                if rank_a[A] == rk:
                    masks[i].append(sum(1 << j for j in A))
        table = [np.array(m, dtype=np.int64) for m in masks]
        self._func[r] = table
        return table

    def _ranks(self, subsets, chunk=20000):
        out = []
        cols = np.array(subsets, dtype=np.int64)
        for s in range(0, len(cols), chunk):
            mats = np.moveaxis(self.G[:, cols[s:s + chunk]], 1, 0)
            out.extend(batch_rank(self.fld, mats).tolist())
        return out

    def peel(self, erased, r):
        """Erased coordinates left once every coordinate that is a
        function of at most r available ones has been restored; the
        result is the same in whatever order peeling proceeds."""
        remaining = set(erased)
        if self.n - len(remaining) < r:
            raise ValueError("fewer than r available coordinates")
        table = self.function_masks(r)
        progress = True
        while remaining and progress:
            progress = False
            rmask = sum(1 << j for j in remaining)
            for i in sorted(remaining):
                if np.any(table[i] & rmask == 0):
                    remaining.discard(i)
                    progress = True
                    break
        return tuple(sorted(remaining))

    def max_t(self, r, cap):
        """Largest t <= cap such that every pattern of size <= t peels,
        with the first pattern in size-then-lexicographic order that
        does not (None when every pattern up to cap peels)."""
        for size in range(1, cap + 1):
            for pattern in itertools.combinations(range(self.n), size):
                if self.peel(pattern, r):
                    return size - 1, pattern
        return cap, None
