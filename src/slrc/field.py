"""Finite field arithmetic in GF(p^m), table driven.

Elements are plain integers in ``[0, q)``: the base-p digits of an
element are the coefficients, low to high, of its residue polynomial.
Value 0 is the zero element and value 1 the multiplicative identity.
Extension-field multiplication goes through log/antilog tables keyed to
a primitive element, so every scalar operation is O(1) after the tables
are built.  A ``GF`` instance is immutable once constructed and safe to
share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError

# Default monic irreducible polynomials (coefficients low to high) for
# the extension fields exercised at desk scale.  Other (p, m) pairs fall
# back to a lexicographic search.
_DEFAULT_PRIM_POLY = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (2, 1, 1),          # x^2 + x + 2
}

MAX_Q = 1 << 16
# Dense q×q numpy tables are only built for small fields.
_TABLE_LIMIT = 1024


def _factor_prime_power(q):
    """Return (p, m) with q = p^m, or raise FieldError."""
    if q < 2:
        raise FieldError(f"field size must be at least 2, got {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, m


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, b, p):
    """Remainder of a divided by b over GF(p); b monic-normalized here."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    lead_inv = pow(lead, -1, p)
    while len(a) - 1 >= db and _poly_trim(a):
        a = _poly_trim(a)
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        factor = (a[-1] * lead_inv) % p
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = _poly_trim(a)
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    poly = _poly_trim(list(poly))
    m = len(poly) - 1
    if m < 1:
        return False
    if poly[0] == 0:  # divisible by x
        return m == 1
    for d in range(1, m // 2 + 1):
        for idx in range(p ** d):
            div = []
            v = idx
            for _ in range(d):
                div.append(v % p)
                v //= p
            div.append(1)  # monic
            if not _poly_mod(poly, div, p):
                return False
    return True


def _search_prim_poly(p, m):
    """Smallest monic irreducible of degree m for which x is primitive."""
    best_irreducible = None
    for idx in range(p ** m):
        low = []
        v = idx
        for _ in range(m):
            low.append(v % p)
            v //= p
        poly = tuple(low) + (1,)
        if not _is_irreducible(poly, p):
            continue
        if best_irreducible is None:
            best_irreducible = poly
        if _order_of_x(poly, p, m) == p ** m - 1:
            return poly
    if best_irreducible is not None:
        return best_irreducible
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


def _order_of_x(poly, p, m):
    q = p ** m
    cur = [0, 1]  # the polynomial x
    for n in range(1, q):
        cur = _poly_mod(cur, list(poly), p)
        if _poly_trim(cur) == [1]:
            return n
        cur = _poly_mul(cur, [0, 1], p)
    return 0


class GF:
    """The finite field GF(q) with q = p^m, q <= 2^16.

    Parameters
    ----------
    q : int
        Field size, a prime power.
    prim_poly : sequence of int, optional
        Monic irreducible polynomial of degree m over GF(p),
        coefficients low to high.  Defaults to a standard table for
        small fields, otherwise a lexicographic search.
    generator : int, optional
        Encoding of a primitive element.  Defaults to the polynomial x
        for extension fields when it is primitive, else the smallest
        primitive element.
    """

    def __init__(self, q, prim_poly=None, generator=None):
        if q > MAX_Q:
            raise FieldError(f"field size {q} exceeds supported maximum {MAX_Q}")
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m

        if prim_poly is None:
            if m == 1:
                prim_poly = (0, 1)  # arithmetic is plain mod p
            else:
                prim_poly = _DEFAULT_PRIM_POLY.get((p, m)) or _search_prim_poly(p, m)
        prim_poly = tuple(int(c) % p for c in prim_poly)
        if m > 1:
            if len(prim_poly) != m + 1 or prim_poly[-1] != 1:
                raise FieldError(
                    f"prim_poly must be monic of degree {m}, got {prim_poly}")
            if not _is_irreducible(prim_poly, p):
                raise FieldError(f"prim_poly {prim_poly} is reducible over GF({p})")
        self.prim_poly = prim_poly

        self._exp, self._log, self.generator = self._build_tables(generator)

        # Dense numpy lookup tables for vectorized matrix work, in the
        # smallest unsigned dtype that holds every element.
        self.dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
        if q <= _TABLE_LIMIT:
            idx = np.arange(q)
            self.add_table = np.array(
                [[self.add(a, b) for b in idx] for a in idx], dtype=self.dtype)
            self.mul_table = np.array(
                [[self.mul(a, b) for b in idx] for a in idx], dtype=self.dtype)
            self.neg_table = np.array([self.neg(a) for a in idx],
                                      dtype=self.dtype)
            self.inv_table = np.array(
                [0] + [self.inv(a) for a in range(1, q)], dtype=self.dtype)
        else:
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.inv_table = None
            self._exp_arr = np.array(self._exp, dtype=self.dtype)
            self._log_arr = np.array(self._log, dtype=np.int64)

    # -- construction helpers ------------------------------------------------

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _decode(self, value):
        digits = []
        for _ in range(max(self.m, 1)):
            digits.append(value % self.p)
            value //= self.p
        return digits

    def _mul_raw(self, a, b):
        """Product without tables: polynomial multiply, reduce by prim_poly."""
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._decode(a), self._decode(b), self.p)
        rem = _poly_mod(prod, list(self.prim_poly), self.p)
        rem = rem + [0] * (self.m - len(rem))
        return self._encode(rem)

    def _element_order(self, a):
        cur, n = a, 1
        while cur != 1:
            cur = self._mul_raw(cur, a)
            n += 1
            if n > self.q:
                return 0
        return n

    def _build_tables(self, generator):
        q = self.q
        if generator is None:
            candidates = [self.p] if self.m > 1 else []
            candidates += [a for a in range(1, q)]
            for cand in candidates:
                if self._element_order(cand) == q - 1:
                    generator = cand
                    break
        else:
            generator = int(generator)
            if not 0 < generator < q:
                raise FieldError(f"generator {generator} out of range for GF({q})")
            if self._element_order(generator) != q - 1:
                raise FieldError(
                    f"generator {generator} does not have order {q - 1} in GF({q})")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = self._mul_raw(x, generator)
        return exp, log, generator

    # -- scalar operations ---------------------------------------------------

    def check(self, a):
        if not 0 <= a < self.q:
            raise FieldError(f"{a} is not an element of GF({self.q})")
        return a

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._encode([(-d) % self.p for d in self._decode(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self):
        return range(self.q)

    # -- array operations ----------------------------------------------------
    #
    # Elementwise over numpy arrays of element encodings (any integer
    # dtype, broadcasting as numpy does); results have dtype self.dtype.
    # Fields up to _TABLE_LIMIT index the dense tables; larger fields
    # multiply through exp/log arrays and add base-p digitwise.

    def _digitwise(self, a, b, sign):
        """a + sign*b, one base-p digit at a time."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        scale = 1
        for _ in range(self.m):
            out += (a // scale % self.p + sign * (b // scale % self.p)) \
                % self.p * scale
            scale *= self.p
        return out.astype(self.dtype)

    def vadd(self, a, b):
        if self.p == 2:
            return (np.asarray(a) ^ np.asarray(b)).astype(self.dtype,
                                                         copy=False)
        if self.add_table is not None:
            return self.add_table[a, b]
        return self._digitwise(a, b, 1)

    def vneg(self, a):
        if self.p == 2:
            return np.array(a, dtype=self.dtype)    # a copy, never `a`
        if self.neg_table is not None:
            return self.neg_table[a]
        return self._digitwise(0, a, -1)

    def vmul(self, a, b):
        if self.mul_table is not None:
            return self.mul_table[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        prod = self._exp_arr[self._log_arr[a] + self._log_arr[b]]
        return np.where((a != 0) & (b != 0), prod, 0).astype(self.dtype)

    def vinv(self, a):
        """Inverses of nonzero entries (zero entries map to garbage)."""
        if self.inv_table is not None:
            return self.inv_table[a]
        return self._exp_arr[(self.q - 1 - self._log_arr[a]) % (self.q - 1)]

    def vsum(self, a, axis=-1):
        """Field sum of the entries of `a` along `axis`."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis).astype(self.dtype)
        out = 0
        scale = 1
        for _ in range(self.m):
            out = out + (a // scale % self.p).sum(axis=axis) % self.p * scale
            scale *= self.p
        return np.asarray(out).astype(self.dtype)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GF)
                and self.q == other.q
                and self.prim_poly == other.prim_poly
                and self.generator == other.generator)

    def __hash__(self):
        return hash((self.q, self.prim_poly, self.generator))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, prim_poly={list(self.prim_poly)})"

    def spec_dict(self):
        """Serializable field description for the matrix file format."""
        return {
            "p": self.p,
            "m": self.m,
            "prim_poly": list(self.prim_poly),
            "generator": self.generator,
        }

    @classmethod
    def from_spec_dict(cls, d):
        return cls(d["p"] ** d["m"], prim_poly=d["prim_poly"],
                   generator=d["generator"])


def same_field(a: GF, b: GF):
    """Raise FieldError unless the two field specs match exactly."""
    if a != b:
        raise FieldError(f"mixed-field operands: {a!r} vs {b!r}")
