"""Linear-code machinery over GF(q), on whole arrays of field-element
encodings through the field's array operations (`GF.vadd`, ...).

Row reduction eliminates one pivot column at a time across all rows;
`LinearCode` takes H's pivots from the right, so its generator is the
identity on the first information set I, which it records.  One block
product multiplies messages by a generator (`_codewords`) for `encode`,
the minimum distance and `simulate.campaign`.  The hot spot lists the
low-weight dual words that recovery sets come from
(`_low_weight_dual_words`): a search over column sets of the generator
whose last level is a join, split at I, as a word of weight <= wmax has
at most J coordinates off I, which fix it, or at most wmax - J - 1 on
I; the first kind is summed from those J, and the search holds only
sets of the second.  The code caches the words sorted by (weight,
vector), and `recovery_table`, one memo and the only code that knows
its format, turns them into one table of arrays: `simulate` plans and
repairs on them, its `masks`, made on first read, hold the helper
bitmasks that verification reads, and a `RepairStep` of one entry
(`RecoveryTable.step`) is made only where a caller uses it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (FieldError, InfeasibleError, ParameterError,
                     check_coordinates, check_count)
from .field import GF

# `min_distance` and `punctured_distances` refuse codes with more
# codewords than this.
ENUM_LIMIT = 1 << 22
# Bound, in bytes, on the generator `LinearCode` builds, on the estimated
# working sets of `dual_low_weight`, of the recovery-set arrays
# (`entry_bytes`) and of their records (`record_bytes`), and on one block
# of `_codewords` in `encode` and `_min_weight`.
DUAL_BYTE_BUDGET = 64 << 20
# `_split`'s cost: seconds per Phase-1 size, Phase-1 vector and set pair.
_SPLIT_COSTS = (120e-6, 0.084e-6, 0.30e-6)


def rref(field: GF, A):
    """Row-reduce A over the field; returns (R, pivot_columns)."""
    R = np.array(np.atleast_2d(A), dtype=field.dtype)
    pivots = []
    for r in range(R.shape[0]):
        # rows r.. are zero left of the next pivot column
        live = R[r:].any(axis=0)
        if not live.any():
            break
        c = int(np.argmax(live))
        p = r + int(np.argmax(R[r:, c] != 0))
        R[[r, p]] = R[[p, r]]
        R[r] = field.vmul(field.vinv(R[r, c]), R[r])
        f = field.vneg(R[:, c])
        f[r] = 0
        R = field.vadd(R, field.vmul(f[:, None], R[r]))
        pivots.append(c)
    return R.astype(np.int64), pivots


def nullspace(field: GF, A):
    """Basis (as rows) of {x : A x = 0}; shape (dim, ncols)."""
    return _kernel(field, *rref(field, A))


def _kernel(field, R, pivots):
    """The null-space basis of a row-reduced matrix R with these pivots."""
    free = np.delete(np.arange(R.shape[1]), pivots)
    N = np.zeros((len(free), R.shape[1]), dtype=field.dtype)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = field.vneg(R[:len(pivots), free]).T
    return N


@dataclass(frozen=True)
class RepairStep:
    """A recovery set: helpers and coefficients expressing coordinate
    `repaired` as a linear combination valid on every codeword, and so
    one step of a repair schedule."""
    repaired: int
    helpers: tuple
    coeffs: tuple


@dataclass(frozen=True)
class DualWord:
    vector: tuple      # normalized: leading nonzero entry is 1
    support: frozenset


def generator_bytes(field, dimension, n):
    """Bytes of a dimension x n generator and its flipped copy, the two
    arrays `LinearCode` holds while it builds one; checked before either
    exists."""
    return 2 * dimension * n * field.dtype.itemsize


class LinearCode:
    """A linear code given by a parity-check matrix over GF(q); raises
    ParameterError for an H that is not 2-D or has ragged rows,
    FieldError for an entry that is not an integer in 0..q-1 and
    InfeasibleError when its generator would exceed DUAL_BYTE_BUDGET."""

    def __init__(self, field: GF, H):
        self.field = field
        try:
            H = np.atleast_2d(np.asarray(H))
        except ValueError:          # ragged rows
            H = None
        if H is None or H.ndim != 2:
            raise ParameterError("H must be a 2-D matrix, with rows of "
                                 "equal length")
        if H.size and H.dtype.kind not in "iu":     # int64 truncates 1.7
            raise FieldError(f"matrix entries must be integers, got {H.dtype}")
        if H.size and (H.min() < 0 or H.max() >= field.q):
            raise FieldError("matrix entries outside field range")
        # compact dtype, as for the generator: sweeps keep many codes alive
        self.H = H.astype(field.dtype)
        self.n = H.shape[1]
        # one row reduction, pivots from the right, gives the rank and a
        # generator that is I on the lexicographically first information set
        R, pivots = rref(field, H[:, ::-1])
        self.rank = len(pivots)
        self.dimension = self.n - self.rank
        if generator_bytes(field, self.dimension, self.n) > DUAL_BYTE_BUDGET:
            raise InfeasibleError(
                f"a {self.dimension} x {self.n} generator exceeds the "
                f"{DUAL_BYTE_BUDGET}-byte budget")
        self._generator = _kernel(field, R, pivots)[::-1, ::-1].copy()
        # G = I on the free columns of the flipped H, read from the right
        self.information_set = info = np.ones(self.n, bool)
        info[self.n - 1 - np.array(pivots, dtype=np.intp)] = False
        # read-only, as the field's tables: the memoized facts derive from them
        self.H.flags.writeable = self._generator.flags.writeable = False
        info.flags.writeable = False
        self._dual_cache = {}

    @property
    def generator(self):
        """Generator matrix (dimension x n), rows span the code."""
        return self._generator

    @functools.cached_property
    def _columns(self):
        """`information_set` and the rest as index arrays, which `_codewords`
        reads faster than the mask; made on first use, as sweeps keep many
        codes that never encode."""
        return (np.flatnonzero(self.information_set),
                np.flatnonzero(~self.information_set))

    def check_encodable(self):
        """Raises, before any message is given, what `encode` raises for
        every message because of the code's layout: nothing, as a
        LinearCode has no layout."""

    def encode(self, message):
        """m G as a tuple of ints, m on `information_set`: one column of
        `_codewords`.  Raises FieldError for symbols that `GF.check`
        refuses and ParameterError for a length other than `dimension`."""
        message = self.field.check(message)
        if len(message) != self.dimension:
            raise ParameterError(f"message length {len(message)} != "
                                 f"dimension {self.dimension}")
        words = _codewords(self.field, self._generator, self._columns,
                           np.array([message], np.int64), DUAL_BYTE_BUDGET)
        return tuple(words[:, 0].tolist())


def min_distance(code: LinearCode):
    """Exact minimum nonzero codeword weight, by `_min_weight` of the
    generator.  Raises InfeasibleError above ENUM_LIMIT codewords."""
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero codeword")
    return _min_weight(code.field, code.generator, code._columns)


def _min_weight(field, G, columns):
    """Least weight of m G over the nonzero messages m, for G the identity
    on the first of the two index arrays `columns` (see `_codewords`):
    every such message is multiplied by G, in blocks within
    DUAL_BYTE_BUDGET.  Raises InfeasibleError above ENUM_LIMIT codewords."""
    q, (k, n) = field.q, G.shape
    if q ** k > ENUM_LIMIT:
        raise InfeasibleError(f"q^dim = {q}^{k} codewords is too many to list")
    block = _codeword_rows(k, n, DUAL_BYTE_BUDGET)
    best = n
    for lo in range(1, q ** k, block):
        msgs = np.arange(lo, min(lo + block, q ** k))[:, None] \
            // q ** np.arange(k) % q
        words = _codewords(field, G, columns, msgs, DUAL_BYTE_BUDGET)
        best = min(best, int(np.count_nonzero(words, axis=0).min()))
        if best == 1:
            break
    return best


def _codeword_rows(k, n, budget):
    """Messages per block product with a k x n generator: a message's
    k x n products and the field sum's temporaries, 8 bytes each, keep a
    block within `budget` bytes."""
    return max(1, budget // (4 * 8 * max(1, k * n)))


def _codewords(field, G, columns, msgs, budget):
    """The words m G of the rows m of msgs, a (messages, k) integer array,
    as an (n, messages) array, for `columns` = (copy, other), the index
    arrays of G's identity columns, in order, and of the rest: the copy
    columns take the message, and the others are block products of shape
    (k, len(other), messages), summed over axis 0 by `GF.vsum`, of at
    most `_codeword_rows(k, len(other), budget)` messages."""
    k, n = G.shape
    copy, other = columns
    words = np.empty((n, len(msgs)), field.dtype)
    words[copy] = symbols = msgs.T
    product = G.take(other, axis=1)[:, :, None]
    rows = _codeword_rows(k, len(other), budget)
    for lo in range(0, len(msgs), rows):
        words[other, lo:lo + rows] = field.vsum(field.vmul(
            symbols[:, None, lo:lo + rows], product), axis=0)
    return words


def puncture(code: LinearCode, keep):
    """Project the code onto the coordinate subset `keep`, read by
    `errors.check_coordinates`: repeated coordinates count once.  Raises
    ParameterError as it does, and for an empty `keep`."""
    keep = check_coordinates("keep", keep, code.n)
    if not keep:
        raise ParameterError("keep must be nonempty")
    return LinearCode(code.field, nullspace(code.field,
                                            code.generator[:, keep]))


def punctured_distances(code: LinearCode, supports):
    """`min_distance(puncture(code, S))` for each support S, None where
    that puncture is the zero code, without building the punctured codes.

    The punctured code is the row space of G[:, S], so its distance is
    `_min_weight` of a row-reduced basis of the nonzero rows of G[:, S].
    Supports whose nonzero rows are the same matrix share one row
    reduction and one enumeration: the lines of a constructed code all
    carry the same local MDS block."""
    G, found, out = code.generator, {}, []
    for s in supports:
        sub = G[:, sorted(s)]
        sub = sub[sub.any(axis=1)]
        key = (sub.shape, sub.tobytes())
        if key not in found:
            R, pivots = rref(code.field, sub)
            columns = pivots, np.delete(np.arange(sub.shape[1]), pivots)
            found[key] = (_min_weight(code.field, R[:len(pivots)], columns)
                          if pivots else None)
        out.append(found[key])
    return out


def _full_support_words(field, u, Z, w):
    """Rows u + sum_j lam_j Z[:, j] over all lam in GF(q)^d whose first w
    slots are all nonzero; u is (P, slots), Z is (P, d, slots).  Returns
    (pair index, slot vector) arrays."""
    q = field.q
    P, d, slots = Z.shape
    per_pair = 4 * q ** d * slots * field.dtype.itemsize   # X, temporaries
    if per_pair > DUAL_BYTE_BUDGET:
        raise InfeasibleError(
            f"{q}^{d} null-space combinations per dependent column set "
            f"exceed the {DUAL_BYTE_BUDGET}-byte dual-search budget")
    lam = np.array(list(itertools.product(range(q), repeat=d)),
                   dtype=field.dtype).reshape(q ** d, d)
    idx, vecs = [], []
    # a table lookup also holds its index, up to 4 bytes an entry, and
    # the 8-byte copy that `take` makes of it
    block = max(1, DUAL_BYTE_BUDGET // (per_pair + 12 * q ** d * slots))
    for lo in range(0, P, block):
        X = np.broadcast_to(u[lo:lo + block, None, :],
                            (min(block, P - lo), q ** d, slots))
        for j in range(d):
            X = field.vadd(X, field.vmul(lam[None, :, j, None],
                                         Z[lo:lo + block, None, j, :]))
        pair, combo = np.nonzero((X[:, :, :w] != 0).all(axis=2))
        idx.append(pair + lo)
        vecs.append(X[pair, combo])
    return np.concatenate(idx), np.concatenate(vecs)


def _low_weight_dual_words(field, G, wmax, info=None):
    """All vectors y of weight in [1, wmax] with G y = 0, as an (M, n)
    array normalized so the leading nonzero entry is 1, sorted by
    weight, then lexicographically: `dual_low_weight`'s order.

    Given the mask `info` of an information set I where G is the
    identity, the search splits at J < wmax (`_split`): a word has at
    most B = wmax - J - 1 coordinates in I, and the column-set search,
    whose sets never hold more than B columns of I, lists it, or else at
    most J off I, and Phase 1 (`_redundancy_words`) lists it.  So the
    array is that of J = 0, the whole search, run without `info`.

    A word with support exactly S lies in the null space of G[:, S].
    Column sets grow level by level, each by a later column.  The search
    carries one record per (set T, later column c) pair: the residual v
    of column c of G after elimination against T's columns (zero at the
    pivots of T's echelon basis), and the coefficients u, a slot per
    member of T + {c} and 1 on c's, with sum_s u_s G[:, s] = v.  If v
    is zero, u is a null vector of G[:, T + {c}], and the words with
    support exactly T + {c}, scaled to 1 on c, are u + z for z in the
    null space of G[:, T] that are nonzero on every slot.  Extending T
    by c costs one elimination step per later column, with c's residual
    as the new pivot row.  Dependent sets stay in the search, so words
    of non-minimal support are found too.

    The last level eliminates only the pairs that can give a word:
    (T + {c}, c') is dependent exactly when c''s residual against T is
    zero or a multiple of c's, and a word nonzero on c needs c''s to be
    nonzero where c's is.  So a pair is kept when its source's residual
    is a multiple of its new pivot row (zero when the row is zero):
    equal keys of the level-(wmax - 1) residuals (`_residual_keys`),
    found as a join (`_join_pairs`) of those pairs sorted by (set T,
    key), each run of equal entries giving its pairs (T + {c}, c') with
    c < c'.  Only the sets T + {c} the join names get pivot rows,
    columns and null-space bases.

    Consecutive first columns are searched in one pass while their
    summed pair count at every level stays within `_pass_limit`, so no
    pass is estimated above max(cap·per_pair, DUAL_BYTE_BUDGET / 16)
    bytes, and small codes run in one pass, not many call-bound ones.
    """
    k, n = G.shape
    wmax = min(wmax, n)
    if wmax < 1:
        return np.zeros((0, n), dtype=field.dtype)
    dt = field.dtype
    # columns of G as rows, plus one always-zero entry so that a pivot
    # search never runs over an empty axis
    Gt = np.zeros((n, k + 1), dtype=dt)
    Gt[:, :k] = np.asarray(G).T
    # A search from first column f has C(n - 1 - f, w - 1) pairs at level
    # w, so first column 0 is the largest.  Estimated working set per
    # level w: each (set, column) pair takes about six arrays of
    # k + 1 + wmax entries of the field's dtype and six intp indices.
    per_pair = 6 * (k + 1 + wmax) * dt.itemsize + 6 * 8
    cap = max(math.comb(n - 1, w) for w in range(wmax))
    if cap * per_pair > DUAL_BYTE_BUDGET:
        raise InfeasibleError(
            f"dual search over column sets of size <= {wmax} of {n} columns "
            f"exceeds the {DUAL_BYTE_BUDGET}-byte budget")
    limit = _pass_limit(cap, per_pair)
    J = 0 if info is None else _split(k, n - k, field.q, wmax)[0]
    info = np.zeros(n, bool) if info is None else info
    most = wmax - J - 1         # B, the information columns a set may hold
    found, start = _redundancy_words(field, G, info, wmax, J) if J else [], 0
    while start < n:
        # first columns [start, stop) have C(n - start, w) - C(n - stop, w)
        # pairs at level w; the pass takes as many as stay within limit
        stop = start + 1
        while stop < n and all(
                math.comb(n - start, w) - math.comb(n - stop - 1, w) <= limit
                for w in range(1, wmax + 1)):
            stop += 1
        found += _search_from(field, Gt, wmax, start, stop, info, most)
        start = stop
    words = np.concatenate(found) if found else np.zeros((0, n), dtype=dt)
    weight = np.count_nonzero(words, axis=1)
    return words[np.lexsort(np.vstack([words.T[::-1], weight]))]


def _pass_limit(cap, per_pair):
    """(set, column) pairs of `per_pair` bytes a pass of the dual search
    may hold at once: cap, the pairs of the largest level of first
    column 0, whose bytes a budget check has passed, or as many as fill
    a sixteenth of the budget when that is more."""
    return max(cap, DUAL_BYTE_BUDGET // 16 // per_pair)


@functools.lru_cache(maxsize=None)
def _split(k, m, q, wmax):
    """(J, Phase-1 vectors, Phase-2 pairs) over GF(q): the y_R on m columns
    with 1..J nonzeros and a leading 1, and the sets of 1..wmax - 1 columns
    with at most wmax - J - 1 of the k in I, at the J < wmax of least cost."""
    def counts(J):
        return (J, sum(math.comb(m, j) * (q - 1) ** (j - 1)
                       for j in range(1, J + 1)),
                sum(math.comb(k, a) * math.comb(m, w - a)
                    for w in range(1, wmax)
                    for a in range(min(w, wmax - J - 1) + 1)))
    return min(map(counts, range(wmax)), key=lambda split: sum(
        cost * count for cost, count in zip(_SPLIT_COSTS, split)))


def _redundancy_words(field, G, info, wmax, J):
    """Phase 1: the words of 1..J nonzeros off I, more than wmax - J - 1 on
    I and at most wmax in all, scaled to a leading 1.  G y = 0 fixes y_I =
    -P y_R, P the columns off I, so the sums P y_R grow as a tree, a later
    column and value at a time, in blocks within DUAL_BYTE_BUDGET // 16."""
    n, q, dt = G.shape[1], field.q, field.dtype
    ic, rc = np.flatnonzero(info), np.flatnonzero(~info)
    # row i·(q - 1) + a - 1 is a times column rc[i] of G
    mult = field.vmul(np.arange(1, q, dtype=dt)[None, :, None], np.asarray(
        G).T[rc, None, :]).reshape(len(rc) * (q - 1), len(ic))
    step = max(1, DUAL_BYTE_BUDGET // 16 // max(1, len(mult) * (
        5 * len(ic) * dt.itemsize + 8 * (J + 4))))
    found = []

    def grow(S, rows):
        # row i of S is P y_R for the y_R of the rows of `mult` in rows[i]
        j, held = rows.shape[1], np.count_nonzero(S, axis=1)
        sel = np.flatnonzero((held >= wmax - J) & (held <= wmax - j))
        word = np.zeros((len(sel), n), dtype=dt)
        word[:, ic] = field.vneg(S[sel])
        np.put_along_axis(word, rc[rows[sel] // (q - 1)],
                          rows[sel] % (q - 1) + 1, axis=1)
        lead = word[np.arange(len(sel)), np.argmax(word != 0, axis=1)]
        found.append(field.vmul(field.vinv(lead)[:, None], word))
        for lo in range(0, len(S) if j < J else 0, step):
            # each parent with the rows of `mult` from its next column on
            first = (rows[lo:lo + step, -1] // (q - 1) + 1) * (q - 1)
            counts = len(mult) - first
            parent = lo + np.repeat(np.arange(len(counts)), counts)
            row = (np.repeat(first - np.cumsum(counts) + counts, counts)
                   + np.arange(len(parent)))
            grow(field.vadd(S.take(parent, axis=0), mult.take(row, axis=0)),
                 np.hstack([rows.take(parent, axis=0), row[:, None]]))
    grow(mult[::q - 1], np.arange(0, len(mult), q - 1)[:, None])
    return found


def _residual_keys(field, v):
    """The id of each row of v among the rows scaled to a leading 1: two
    rows share an id exactly when they are multiples of each other, and
    zero rows share one."""
    lead = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
    rows = field.vmul(field.vinv(lead)[:, None], v)
    # the rows read as base-q numbers; when the next digit would not fit
    # in an int64, the distinct prefixes so far are renumbered 0, 1, ...
    key, span = np.zeros(len(v), dtype=np.int64), 1
    for digit in rows.T:
        if span * field.q >= 1 << 63:
            key, span = np.unique(key, return_inverse=True)[1], len(v)
        key, span = key * field.q + digit, span * field.q
    return key


def _join_pairs(parent, key, own):
    """The pairs (a, b), a < b, of entries with equal parent and equal
    key whose a is owned, ordered by a, then b."""
    # one sort key per (parent, key): the keys are renumbered 0, 1, ...
    # first when parent·span + key might not fit in an int64
    m = len(key)
    span = int(key.max()) + 1 if m else 1
    if span * m >= 1 << 63:
        key, span = np.unique(key, return_inverse=True)[1], m
    joint = parent * span + key
    order = np.argsort(joint, kind="stable")     # ties in index order
    joint = joint[order]
    bound = np.ones(m + 1, dtype=bool)          # where runs start, and m
    bound[1:m] = joint[1:] != joint[:-1]
    start = np.flatnonzero(bound)
    end = np.repeat(start[1:], start[1:] - start[:-1])
    # each owned entry pairs with the entries after it in its run
    counts = (end - 1 - np.arange(m)) * own[order]
    first = np.repeat(np.arange(m), counts)
    second = (first + 1 + np.arange(len(first))
              - np.repeat(np.cumsum(counts) - counts, counts))
    a, b = order[first], order[second]
    by_ab = np.lexsort((b, a))
    return a[by_ab], b[by_ab]


def _search_from(field, Gt, wmax, start, stop, info, most):
    """Words over the column sets of first column in [start, stop) and at
    most `most` columns of the mask `info`, in one pass of the levels."""
    n = len(Gt)
    dt = Gt.dtype
    # level-1 pairs: the empty set and every column from `start` on; held
    # (info columns) is past `most` from `stop` on: level-2 sources only
    c = np.arange(start, n)
    held = info[c] + (c >= stop) * wmax
    v = Gt[start:]
    u = np.zeros((len(c), wmax), dtype=dt)
    u[:, 0] = 1
    parent = np.zeros(len(c), dtype=np.intp)
    # the pairs' sets: columns, and per member a null vector as a slot
    # row (1 on the member's slot, so nonzero) or a zero row
    cols = np.zeros((1, 0), dtype=np.int64)
    nulls = np.zeros((1, 0, wmax), dtype=dt)
    found = []
    for w in range(1, wmax + 1):
        dependent = ~v.any(axis=1)
        live = held <= most
        dep = np.flatnonzero(dependent & live)
        if w + 1 == wmax:
            # the last level keeps the pairs of one parent with equal
            # residual keys (a zero source against a nonzero pivot row is
            # dependent too, but gives no word nonzero on the row's column)
            a, b = _join_pairs(parent, _residual_keys(field, v), live)
            keep = held[a] + info[c[b]] <= most
            a, b = a[keep], b[keep]
        if w > 1:
            # coefficients: the source's column moves from slot w - 2 to
            # slot w - 1
            u_src = u.take(src, axis=0)
            u = np.zeros((len(c), wmax), dtype=dt)
            u[:, w - 1] = 1
            u[:, :w - 2] = u_src[:, :w - 2]
            fc = field.vmul(f, crow.take(parent, axis=0))
            u[:, :w - 1] = field.vadd(u[:, :w - 1], fc[:, :w - 1])
        rows = nulls.take(parent[dep], axis=0)
        flags = rows.any(axis=2)
        nullity = flags.sum(axis=1)
        for d in range(w):
            at = nullity == d
            sel = dep[at]
            if not len(sel):
                continue
            Z = rows[at][flags[at]].reshape(len(sel), d, wmax)
            pair, vec = _full_support_words(field, u.take(sel, axis=0), Z, w)
            vec = field.vmul(field.vinv(vec[:, :1]), vec[:, :w])
            support = np.hstack([cols.take(parent[sel[pair]], axis=0),
                                 c[sel[pair], None]])
            word = np.zeros((len(pair), n), dtype=dt)
            np.put_along_axis(word, support, vec, axis=1)
            found.append(word)
        if w == wmax:
            break

        if w + 1 < wmax:
            # every pair whose column is not the last becomes a set ch[i]
            # of level w, paired with each later column, whose level-w
            # residual sits at pair ch[i] + (column - c[ch[i]])
            ch = np.flatnonzero(live & (c < n - 1))
            counts = n - 1 - c[ch]
            nxt = np.repeat(np.arange(len(ch)), counts)
            src = (ch[nxt] + 1 + np.arange(len(nxt))
                   - np.repeat(np.cumsum(counts) - counts, counts))
        else:
            # only the sets the joined pairs extend are built
            new = np.ones(len(a), dtype=bool)
            new[1:] = a[1:] != a[:-1]
            ch, nxt, src = a[new], np.cumsum(new) - 1, b
        if not len(src):
            break
        # the sets' pivot rows: residuals scaled to 1 at their pivot
        vch = v.take(ch, axis=0)
        piv = np.argmax(vch != 0, axis=1)
        scale = np.where(dependent[ch], 0, field.vinv(
            vch[np.arange(len(ch)), piv]))[:, None].astype(dt)
        uch = u.take(ch, axis=0)
        row, crow = field.vmul(scale, vch), field.vmul(scale, uch)
        up = parent[ch]
        cols = np.hstack([cols.take(up, axis=0), c[ch, None]])
        nulls = np.concatenate(
            [nulls.take(up, axis=0), (uch * dependent[ch, None])[:, None]],
            axis=1)

        parent = nxt
        v_src = v.take(src, axis=0)
        f = field.vneg(v_src[np.arange(len(src)), piv[parent]])[:, None]
        v = field.vadd(v_src, field.vmul(f, row.take(parent, axis=0)))
        c = c[src]
        held = held[ch].take(parent) + info[c]
    return found


def _dual_words(code: LinearCode, wmax):
    """The dual words of weight in [1, wmax] as the code's cached array,
    in `dual_low_weight`'s order; see there."""
    words = next((arr for w, arr in sorted(code._dual_cache.items())
                  if w >= wmax), None)
    if words is None:
        words = code._dual_cache[wmax] = _low_weight_dual_words(
            code.field, code.generator, wmax, code.information_set)
    return words[:np.count_nonzero(np.count_nonzero(words, axis=1) <= wmax)]


def dual_low_weight(code: LinearCode, wmax):
    """All dual codewords (row space of H) of weight in [1, wmax], one
    per scalar multiple, with leading nonzero entry 1, ordered by weight,
    then lexicographically.  The code keeps one such array of word
    vectors per searched wmax, and a smaller wmax reads a prefix of a
    larger one.  Raises InfeasibleError when the search's estimated
    working set exceeds DUAL_BYTE_BUDGET, checked before it is allocated.
    """
    return [DualWord(vector=tuple(v),
                     support=frozenset(j for j, x in enumerate(v) if x))
            for v in _dual_words(code, wmax).tolist()]


def entry_bytes(entries, width, itemsize):
    """Peak bytes of `recovery_table` for `entries` entries of words of
    at most `width` nonzero symbols of `itemsize` bytes: their index
    arrays, the helpers before and after the sort, and the coefficients
    and their sorted copy (8-11 + 18·width bytes an entry over GF(4)
    at widths 6-9 on the reference code, as measured)."""
    return entries * (40 + (16 + 2 * itemsize) * width)


def record_bytes(entries, width, n, q):
    """Peak bytes of `all_recovery_sets` for `entries` records of at most
    `width` helpers on a code of length n over GF(q): the records, their
    tuples, the lists that hold them and the arrays of `recovery_table`,
    330 + 48·width bytes a record (448-619 at widths 3-7 on the
    reference code, as measured), and 28 more a helper for each of its
    index and coefficient that can lie above CPython's cached small ints
    (0..256), which `tolist` makes anew."""
    return entries * (330 + (48 + 28 * ((n > 257) + (q > 257))) * width)


@dataclass(frozen=True, eq=False)
class RecoveryTable:
    """Every recovery set of size <= r of a code as arrays, one entry per
    (dual word, coordinate i of its support), sorted by (i, helpers,
    coeffs): the helpers are the rest of the word's support and the
    coefficients -v_j / v_i of the helpers j.  Distinct normalized words
    give distinct sets, so none repeats.  `simulate.campaign` plans and
    repairs on these arrays, `masks` holds their helper bitmasks index
    for index, and `step` makes one entry's record."""
    coord: np.ndarray       # the coordinate each entry repairs, sorted
    first: np.ndarray       # coordinate i's entries are first[i]:first[i + 1]
    helpers: np.ndarray     # (width, entries), ascending, padded with n
    coeffs: np.ndarray      # (width, entries), padded with 0
    size: np.ndarray        # helpers per entry, and a 0 that pick -1 reads

    def step(self, e):
        """Entry e as a `RepairStep` of Python ints."""
        s = self.size.item(e)
        return RepairStep(self.coord.item(e),
                          tuple(self.helpers[:s, e].tolist()),
                          tuple(self.coeffs[:s, e].tolist()))

    @functools.cached_property
    def masks(self):
        """Per coordinate i, the helper bitmasks of its entries as a tuple
        of Python ints, entry j of row i the mask of entry first[i] + j:
        all that `verify` and `simulate.plan_repair` read.  Made on first
        read, so a caller of the arrays alone builds none."""
        n = len(self.first) - 1
        # Python ints for any n; the pad n reads the trailing 0
        bit = np.array([1 << j for j in range(n)] + [0], dtype=object)
        masks = bit[self.helpers].sum(axis=0).tolist()
        ends = self.first.tolist()
        return tuple(tuple(masks[a:b]) for a, b in zip(ends, ends[1:]))


def recovery_table(code: LinearCode, r):
    """The `RecoveryTable` of the code's recovery sets of size <= r.

    The last (code, r) asked for is memoized, by code identity, with r
    read by `check_count` before it keys the memo, so the checks and
    campaigns of one command share one build, and a single entry keeps
    memory flat while callers hold many codes; the arrays and masks are
    read-only, so no caller can change the shared table.  Raises
    ParameterError unless r is an integer >= 1, and InfeasibleError
    when `entry_bytes` of the words exceeds DUAL_BYTE_BUDGET, checked
    before any array of the entries exists."""
    return _recovery_table(code, check_count("locality r", r))


@functools.lru_cache(maxsize=1)
def _recovery_table(code, r):
    field, n, words = code.field, code.n, _dual_words(code, r + 1)
    weight = np.count_nonzero(words, axis=1)
    width = int(weight.max(initial=1))
    entries = int(weight.sum())
    if entry_bytes(entries, width, field.dtype.itemsize) > DUAL_BYTE_BUDGET:
        raise InfeasibleError(
            f"{entries} recovery sets of size <= {r} exceed the "
            f"{DUAL_BYTE_BUDGET}-byte budget")
    word, coord = np.nonzero(words)     # each word's support, in order
    # slot of each entry within its word's support
    slot = np.arange(len(word)) - (np.cumsum(weight) - weight)[word]
    support = np.full((width, len(words)), -1)
    support[slot, word] = coord
    # an entry's helpers, a column each: its word's support less its slot
    support = support[:, word]
    helpers = np.where(np.arange(width - 1)[:, None] < slot, support[:-1],
                       support[1:])
    del support, slot
    scale = field.vneg(field.vinv(words[word, coord]))
    # a -1 pad reads the word's last entry, which the mask zeroes
    coeffs = field.vmul(scale, words[word, helpers] * (helpers >= 0))
    order = np.lexsort((*coeffs[::-1], *helpers[::-1], coord))
    helpers[helpers < 0] = n        # after the sort: a shorter set first
    size = np.append(weight[word[order]] - 1, 0)
    del word, scale
    coord = coord[order]
    arrays = (coord, np.searchsorted(coord, np.arange(n + 1)),
              helpers.take(order, axis=1), coeffs.take(order, axis=1), size)
    for array in arrays:
        array.flags.writeable = False
    return RecoveryTable(*arrays)


def _by_size(table, i):
    """Coordinate i's records of the table, stably sorted by size: ordered
    by (size, helpers, coeffs)."""
    return sorted(map(table.step, range(table.first.item(i),
                                        table.first.item(i + 1))),
                  key=lambda rs: len(rs.helpers))


def all_recovery_sets(code: LinearCode, r):
    """The recovery sets of size <= r as `RepairStep` records, a list per
    coordinate ordered by (size, helpers, coeffs).  Raises as
    `recovery_table` does, and InfeasibleError when `record_bytes` of
    the sets exceeds DUAL_BYTE_BUDGET, checked before any record
    exists."""
    table = recovery_table(code, r)
    if record_bytes(len(table.coord), len(table.helpers), code.n,
                    code.field.q) > DUAL_BYTE_BUDGET:
        raise InfeasibleError(
            f"{len(table.coord)} repair records of size <= {r} exceed the "
            f"{DUAL_BYTE_BUDGET}-byte budget")
    return [_by_size(table, i) for i in range(code.n)]


def recovery_sets_for(code: LinearCode, i, r):
    """All recovery sets of size <= r for coordinate i, as a row of
    `all_recovery_sets`, with only that row's records made.  Raises
    ParameterError unless i is an integer in 0..n-1, as
    `errors.check_coordinates` reads it, and as `recovery_table` does."""
    (i,) = check_coordinates("coordinate i", [i], code.n)
    return _by_size(recovery_table(code, r), i)
