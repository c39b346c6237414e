"""Linear-code machinery over GF(q).

Matrices are numpy integer arrays whose entries are field-element
encodings.  Every job runs on whole arrays through the field's array
operations (`GF.vadd`, `GF.vmul`, ...): row reduction eliminates one
pivot column at a time across all rows (`LinearCode` takes H's pivots
from the right, so its generator is the identity on the first
information set, which it records), one block product multiplies
messages by a generator for `encode`, the minimum distance and
`simulate.campaign` (`_codewords`), and the hot spot,
listing the low-weight dual codewords that recovery sets come from, is
a search over column sets of the generator on arrays of the field's
compact dtype, whose last level is a join (`_low_weight_dual_words`).
The search returns its words sorted by (weight, vector), and the code
caches that one array; the recovery sets come from it in one table of
arrays, `recovery_table`, one memo and the only code that knows its
format: `simulate` plans and repairs on its arrays, its `masks`, made
on first read, hold their helper bitmasks, index for index, all that
verification reads, and a `RepairStep` record of one entry
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


def _low_weight_dual_words(field, G, wmax):
    """All vectors y of weight in [1, wmax] with G y = 0, as an (M, n)
    array normalized so the leading nonzero entry is 1, sorted by
    weight, then lexicographically: `dual_low_weight`'s order.

    A word with support exactly S lies in the null space of G[:, S].
    Column sets are grown level by level, each by a later column, in
    lexicographic order.  The search carries one record per (set T,
    later column c) pair: the residual v of column c of G after
    elimination against the columns of T (zero at the pivots of T's
    echelon basis), and the coefficients u, one slot per member of
    T + {c} with 1 on c's slot, for which sum_s u_s G[:, s] = v.  A
    zero residual means T + {c} is dependent: u is then a null vector
    of G[:, T + {c}], and the words supported on exactly T + {c},
    scaled to 1 on c, are u + z for z in the null space of G[:, T] that
    are nonzero on every slot.  Extending T by c costs one elimination
    step per later column, with c's residual as the new pivot row.
    Dependent sets stay in the search, so words of non-minimal support
    are found too.

    The last level picks the pairs that can give a word before it
    eliminates: (T + {c}, c') is dependent exactly when the residual of
    c' against T is zero or a multiple of c's, and when c's residual is
    nonzero and c''s is zero, no null vector is nonzero on c.  So a pair
    is eliminated only when its source's residual is a multiple of its
    new pivot row (zero when the row is zero), which shows as equal
    keys of the residuals of level wmax - 1 (`_residual_keys`).  Those
    pairs are found as a join (`_join_pairs`): the level-(wmax - 1)
    pairs are sorted by (set T, key), and each run of equal entries
    gives its pairs (T + {c}, c') with c < c'.  Pivot rows and the
    sets' columns and null-space bases are then built only for the sets
    T + {c} that the join names.

    Consecutive first columns are searched in one pass while their
    summed pair count at every level stays within `_pass_limit`, so no
    pass is estimated above max(cap·per_pair, DUAL_BYTE_BUDGET / 16)
    bytes, and small codes, whose many small passes would be mostly
    numpy call overhead, run in one pass.  Where cap alone fills a
    sixteenth of the budget, the passes are those of cap: the n=34 sweep
    point keeps its 9 passes, which peak at 2.4 MB traced where one pass
    would peak at about 11.5 MB.
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
    found, start = [], 0
    while start < n:
        # first columns [start, stop) have C(n - start, w) - C(n - stop, w)
        # pairs at level w; the pass takes as many as stay within limit
        stop = start + 1
        while stop < n and all(
                math.comb(n - start, w) - math.comb(n - stop - 1, w) <= limit
                for w in range(1, wmax + 1)):
            stop += 1
        found += _search_from(field, Gt, wmax, start, stop)
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


def _search_from(field, Gt, wmax, start, stop):
    """Words over the column sets whose first column is in [start, stop),
    all searched in one pass of the levels."""
    n = len(Gt)
    dt = Gt.dtype
    # level-1 pairs: the empty set and every column from `start` on; those
    # from `stop` on are only the sources of their level-2 residuals
    c = np.arange(start, n)
    v = Gt[start:]
    u = np.zeros((len(c), wmax), dtype=dt)
    u[:, 0] = 1
    parent = np.zeros(len(c), dtype=np.intp)
    # the pairs' sets: columns, and per member a null vector as a slot
    # row (1 on the member's slot, so nonzero) or a zero row
    cols = np.zeros((1, 0), dtype=np.int64)
    nulls = np.zeros((1, 0, wmax), dtype=dt)
    own = c < stop
    found = []
    for w in range(1, wmax + 1):
        dependent = ~v.any(axis=1)
        dep = np.flatnonzero(dependent & own)
        if w + 1 == wmax:
            # the last level keeps the pairs whose source residual is a
            # nonzero multiple of the new pivot row, or zero like a zero
            # row: pairs of one parent with equal residual keys; a zero
            # source against a nonzero row is dependent too, but no word
            # of it is nonzero on the row's column
            a, b = _join_pairs(parent, _residual_keys(field, v), own)
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
            ch = np.flatnonzero(own & (c < n - 1))
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
        own = np.ones(len(c), dtype=bool)
    return found


def _dual_words(code: LinearCode, wmax):
    """The dual words of weight in [1, wmax] as the code's cached array,
    in `dual_low_weight`'s order; see there."""
    words = next((arr for w, arr in sorted(code._dual_cache.items())
                  if w >= wmax), None)
    if words is None:
        words = code._dual_cache[wmax] = _low_weight_dual_words(
            code.field, code.generator, wmax)
    return words[:np.count_nonzero(np.count_nonzero(words, axis=1) <= wmax)]


def dual_low_weight(code: LinearCode, wmax):
    """All dual codewords (row space of H) of weight in [1, wmax],
    deduplicated up to scalar multiples and normalized so the leading
    nonzero entry is 1.  Deterministically ordered: by weight, then
    lexicographically.

    The code keeps one array of word vectors per searched wmax, sorted
    in that order, and a smaller wmax reads a prefix of a larger one.
    Raises InfeasibleError when the search's estimated working set
    exceeds DUAL_BYTE_BUDGET; the estimate is checked before the arrays
    are allocated.
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
