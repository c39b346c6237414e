"""Finite field arithmetic in GF(p^m) for q = p^m <= MAX_Q = 1024.

Elements are the integers 0..q-1: the base-p digits of an element are
the coefficients, low to high, of its residue modulo the monic degree-m
polynomial ``prim_poly``.  The field is four lookup tables built on
whole arrays of digits: the q×q ``add_table`` and ``mul_table`` and the
length-q ``neg_table`` and ``inv_table``.  Sums are digitwise mod p, and
a·b is the sum over k of b_k·(x^k·a), with x^k·a from a vectorized
"times x" step.  Scalar operations, ``pow`` too, read the tables and
return Python ints, and the generator is checked on ``mul_table``.  Array
operations take from them: ``vmul``, and ``vadd`` in odd
characteristic, read the flattened q×q table with one ``take`` of
a·q + b, the index held in the smallest unsigned dtype that fits q² - 1
(``vadd`` in characteristic 2 is XOR).  Array operands must be field
elements: an entry b >= q reads a wrong element instead of raising, so
inputs are range-checked where they enter the package: matrices by
``LinearCode`` and ``matrixio``, the words of ``LinearCode.encode`` and
``simulate.execute_repair`` by ``check``, the one symbol rule.  Larger
fields are out of scope and raise FieldError.  The tables are built
once per process for each valid (q, prim_poly); every ``GF`` of that
spec shares them, and the arrays are read-only.  A ``GF`` holds its spec
and those tables only, and is immutable and safe to share between threads.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import FieldError, check_count

MAX_Q = 1024


def _factor_prime_power(q):
    """Return (p, m) with q = p^m >= 2, or raise FieldError."""
    p = next(c for c in range(2, q + 1) if q % c == 0)
    m = next(m for m in range(1, q + 1) if p ** m >= q)
    if p ** m != q:
        raise FieldError(f"{q} is not a prime power")
    return p, m


def _integers(values):
    """The values as a list of Python ints, each None unless an integer,
    a numpy one too but no bool."""
    return [int(a) if type(a) is int or isinstance(a, np.integer) else None
            for a in values]


def _times_x(d, low, p):
    """Digits of x·a modulo x^m + low(x), for the digit rows d of a."""
    shifted = np.zeros_like(d)
    shifted[:, 1:] = d[:, :-1]
    return (shifted - d[:, -1:] * low) % p


def _powers(row):
    """[1, g, g^2, ...] up to the first return to 1, where row[a] = g·a;
    len(row) terms when g never returns to 1."""
    out = [1]
    while len(out) < len(row) and row[out[-1]] != 1:
        out.append(row[out[-1]])
    return out


@functools.lru_cache(maxsize=None)
def _search_prim_poly(p, m):
    """Smallest monic f of degree m (low coefficients read as a base-p
    number) for which x has order p^m - 1; such an f is irreducible."""
    d = np.arange(p ** m)[:, None] // p ** np.arange(m) % p   # digits
    for low in d:
        x_times = _times_x(d, low, p) @ p ** np.arange(m)
        if len(_powers(x_times.tolist())) == p ** m - 1:
            return tuple(low.tolist()) + (1,)


@functools.lru_cache(maxsize=None)
def _tables(p, m, prim_poly):
    """The add, mul, neg and inv tables of GF(p^m) modulo prim_poly, made
    read-only, flat views of add and mul, the smallest element of order
    p^m - 1 and the frozenset of the elements.  Raises FieldError, and
    caches nothing, when no element has that order."""
    # Both tables are filled in column blocks, one base-p digit k of b at
    # a time: column r + c·p^k (r < p^k) is column r plus the element
    # c·x^k, and a·(c·x^k) = c·(x^k·a).
    q = p ** m
    dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
    weights = p ** np.arange(m)
    d = np.arange(q)[:, None] // weights % p        # digits, low first
    c = np.arange(1, p)
    add = np.empty((q, q), dtype=dtype)
    add[:, 0] = np.arange(q)
    for k, w in enumerate(weights):
        # adding c·x^k to a + r changes digit k of a only
        step = ((d[:, k, None] + c) % p - d[:, k, None]) * w
        add[:, w:p * w] = (add[:, None, :w] + step[:, :, None]).reshape(q, -1)
    mul = np.zeros((q, q), dtype=dtype)
    xa = d                                          # digits of x^k·a
    for k, w in enumerate(weights):
        if k:
            xa = _times_x(xa, np.array(prim_poly[:m]), p)
        cxa = c[:, None] * xa[:, None, :] % p @ weights
        mul[:, w:p * w] = add[mul[:, None, :w],
                              cxa[:, :, None]].reshape(q, -1)
    neg = (-d % p @ weights).astype(dtype)
    inv = np.argmax(mul == 1, axis=1).astype(dtype)
    first = next((g for g in range(1, q)
                  if len(_powers(mul[g].tolist())) == q - 1), None)
    if first is None:
        raise FieldError(f"prim_poly {prim_poly} is reducible over GF({p}): "
                         f"no element has order {q - 1}")
    for table in (add, mul, neg, inv):
        table.flags.writeable = False
    # flat views, not copies, for the array operations' one `take`
    return add, mul, neg, inv, add.ravel(), mul.ravel(), first, frozenset(
        range(q))


class GF:
    """GF(q), q = p^m <= MAX_Q.  prim_poly (monic of degree m over GF(p),
    low to high) must leave an element of order q - 1, which only an
    irreducible one does; it defaults to the smallest in which x is
    primitive.  generator defaults to the smallest primitive element,
    which is x when x is primitive (1..p-1 lie in GF(p)).  q is read by
    `errors.check_count` (ParameterError unless an integer >= 2); the
    coefficients, read mod p, and the generator must be integers, numpy
    ones too but no bool, or FieldError."""

    def __init__(self, q, prim_poly=None, generator=None):
        q = check_count("field size q", q, 2)
        if q > MAX_Q:
            raise FieldError(f"field size {q} exceeds supported maximum {MAX_Q}")
        p, m = _factor_prime_power(q)
        self.q, self.p, self.m = q, p, m
        if prim_poly is None:       # m == 1: plain arithmetic mod p
            prim_poly = (0, 1) if m == 1 else _search_prim_poly(p, m)
        try:
            coeffs = _integers(prim_poly)
        except TypeError:           # no sequence
            coeffs = [None]
        if None in coeffs:
            raise FieldError(f"prim_poly must be a sequence of integers, "
                             f"got {prim_poly!r}")
        prim_poly = tuple(c % p for c in coeffs)
        if len(prim_poly) != m + 1 or prim_poly[-1] != 1:
            raise FieldError(
                f"prim_poly must be monic of degree {m}, got {prim_poly}")
        if m == 1 and prim_poly != (0, 1):
            # arithmetic mod p ignores it, but the spec and equality do not
            raise FieldError(f"prim_poly of the prime field GF({q}) must be "
                             f"(0, 1), got {prim_poly}")
        self.prim_poly = prim_poly
        (self.add_table, self.mul_table, self.neg_table, self.inv_table,
         self._add_flat, self._mul_flat, first,
         self._elements) = _tables(p, m, prim_poly)
        self.generator = g = (first if generator is None
                              else _integers([generator])[0])
        if g is None or not 0 < g < q:
            raise FieldError(f"generator must be an integer in "
                             f"1..{q - 1} for GF({q}), got {generator!r}")
        if g != first and len(_powers(self.mul_table[g].tolist())) != q - 1:
            raise FieldError(
                f"generator {g} does not have order {q - 1} in GF({q})")
        self.dtype = self.add_table.dtype
        self._index = np.min_scalar_type(q * q - 1)

    # -- scalar operations: table reads, returning Python ints ---------------

    def check(self, symbols):
        """The symbols as a new list of Python ints; FieldError unless each
        is an integer, a numpy one too but no bool, in 0..q-1."""
        try:
            values = list(symbols)
        except TypeError:           # no sequence
            values = [None]
        if operator.countOf(map(type, values), int) != len(values):
            values = _integers(values)
        # with no type but int, equal hashes are equal values
        if not self._elements.issuperset(values):
            raise FieldError(f"a symbol of {symbols!r} is not an element of "
                             f"GF({self.q}): symbols must be integers, no "
                             f"bools, and must lie in 0..{self.q - 1}")
        return values

    def add(self, a, b):
        return self.add_table.item(a, b)

    def neg(self, a):
        return self.neg_table.item(a)

    def sub(self, a, b):
        return self.add_table.item(a, self.neg_table.item(b))

    def mul(self, a, b):
        return self.mul_table.item(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.inv_table.item(a)

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 1 if e == 0 else 0
        mul, out, e = self.mul_table.item, 1, e % (self.q - 1)
        while e:                            # square and multiply
            if e & 1:
                out = mul(out, a)
            a, e = mul(a, a), e >> 1
        return out

    def elements(self):
        return range(self.q)

    # -- array operations: elementwise, broadcasting as numpy does; the
    # results have dtype self.dtype and never alias an operand --------------

    def _flat_index(self, a, b):
        """a·q + b, the entry of (a, b) in a flattened q×q table."""
        return np.asarray(a, dtype=self._index) * self.q + b

    def vadd(self, a, b):
        if self.p == 2:
            return (np.asarray(a) ^ np.asarray(b)).astype(self.dtype,
                                                         copy=False)
        return self._add_flat.take(self._flat_index(a, b))

    def vneg(self, a):
        if self.p == 2:
            return np.array(a, dtype=self.dtype)    # a copy, never `a`
        return self.neg_table[a]

    def vmul(self, a, b):
        return self._mul_flat.take(self._flat_index(a, b))

    def vinv(self, a):
        """Inverses of nonzero entries (zero entries map to 0)."""
        return self.inv_table[a]

    def vsum(self, a, axis=-1):
        """Field sum of the entries of `a` along `axis`."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis).astype(self.dtype,
                                                              copy=False)
        out = 0
        for w in self.p ** np.arange(self.m):
            out = out + (a // w % self.p).sum(axis=axis) % self.p * w
        return np.asarray(out).astype(self.dtype)

    def __eq__(self, other):
        return (isinstance(other, GF) and self.q == other.q
                and self.prim_poly == other.prim_poly
                and self.generator == other.generator)

    def __hash__(self):
        return hash((self.q, self.prim_poly, self.generator))

    def __repr__(self):
        return f"GF({self.q}" + (
            f", prim_poly={list(self.prim_poly)})" if self.m > 1 else ")")

    def spec_dict(self):
        """Serializable field description for the matrix file format."""
        return {"p": self.p, "m": self.m, "prim_poly": list(self.prim_poly),
                "generator": self.generator}

    @classmethod
    def from_spec_dict(cls, d):
        p, m = d["p"], d["m"]
        # bounded before p ** m is formed, which could be huge
        if not 1 <= m <= MAX_Q.bit_length():
            raise FieldError(f"field spec m = {m} is outside "
                             f"1..{MAX_Q.bit_length()}")
        fld = cls(p ** m, prim_poly=d["prim_poly"], generator=d["generator"])
        if fld.p != p:
            raise FieldError(f"field spec p = {p} is not a prime")
        return fld


def same_field(a: GF, b: GF):
    """Raise FieldError unless the two field specs match exactly."""
    if a != b:
        raise FieldError(f"mixed-field operands: {a!r} vs {b!r}")
