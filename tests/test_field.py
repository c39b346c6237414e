import itertools

import numpy as np
import pytest

from slrc.errors import FieldError, ParameterError
from slrc.field import GF, same_field
from slrc.linear import LinearCode
from slrc.matrixio import dict_to_matrix, matrix_to_dict
from slrc.reference import reference_code

SMALL_Q = [2, 3, 4, 5, 8, 9, 16]


@pytest.fixture(scope="module")
def gf4():
    return GF(4)


def test_gf4_uses_documented_polynomial(gf4):
    assert gf4.prim_poly == (1, 1, 1)
    assert gf4.generator == 2


def test_gf4_add_examples(gf4):
    # coefficient-wise addition mod 2 of the polynomial encodings
    assert gf4.add(2, 3) == 1
    for a in gf4.elements():
        assert gf4.add(a, 0) == a


def test_gf5_add():
    gf = GF(5)
    assert gf.add(3, 4) == 2


def test_gf4_mul_examples(gf4):
    # beta^2 = beta + 1 and beta^3 = 1 under x^2 + x + 1
    assert gf4.mul(2, 2) == 3
    assert gf4.mul(2, 3) == 1
    for a in gf4.elements():
        assert gf4.mul(a, 1) == a


def test_inv_examples(gf4):
    assert gf4.inv(2) == 3
    assert gf4.inv(1) == 1
    assert GF(5).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)


def test_pow_examples(gf4):
    assert gf4.pow(2, 3) == 1
    for a in gf4.elements():
        assert gf4.pow(a, 0) == 1
        assert gf4.pow(a, 1) == a
    with pytest.raises(ZeroDivisionError):
        gf4.pow(0, -1)


def test_pow_negative(gf4):
    for a in range(1, 4):
        assert gf4.mul(gf4.pow(a, -1), a) == 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    gf = GF(q)
    els = list(gf.elements())
    for a, b in itertools.product(els, repeat=2):
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_generator_order(q):
    gf = GF(q)
    assert gf.pow(gf.generator, q - 1) == 1
    for d in range(1, q - 1):
        assert gf.pow(gf.generator, d) != 1


def _poly_oracle_mul(a, b, p, m, prim_poly):
    """Independent oracle: schoolbook polynomial product, long division."""
    da = [(a // p ** i) % p for i in range(m)]
    db = [(b // p ** i) % p for i in range(m)]
    prod = [0] * (2 * m)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(2 * m - 1, m - 1, -1):
        coef = prod[deg]
        if coef:
            for i, c in enumerate(prim_poly):
                prod[deg - m + i] = (prod[deg - m + i] - coef * c) % p
    return sum(prod[i] * p ** i for i in range(m))


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_mul_matches_polynomial_oracle(q):
    gf = GF(q)
    for a, b in itertools.product(range(q), repeat=2):
        assert gf.mul(a, b) == _poly_oracle_mul(a, b, gf.p, gf.m, gf.prim_poly)


def test_add_matches_digit_oracle():
    gf = GF(9)
    for a, b in itertools.product(range(9), repeat=2):
        expect = sum(((a // 3 ** i + b // 3 ** i) % 3) * 3 ** i
                     for i in range(2))
        assert gf.add(a, b) == expect


def test_rejects_non_prime_power():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(12)


def test_rejects_reducible_polynomial():
    with pytest.raises(FieldError):
        GF(4, prim_poly=[0, 0, 1])  # x^2
    with pytest.raises(FieldError):
        GF(4, prim_poly=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)


def test_prime_field_takes_only_x_as_prim_poly():
    assert GF(5, prim_poly=[0, 1]) == GF(5)
    for poly in ([], [3, 1], [0, 0, 1], [1, 0]):
        with pytest.raises(FieldError, match="prim_poly"):
            GF(5, prim_poly=poly)


def test_rejects_non_primitive_generator():
    with pytest.raises(FieldError):
        GF(4, generator=1)


def test_mixed_field_detection():
    with pytest.raises(FieldError):
        same_field(GF(4), GF(8))
    same_field(GF(4), GF(4))


def test_spec_dict_round_trip():
    gf = GF(8)
    again = GF.from_spec_dict(gf.spec_dict())
    assert gf == again


TABLES = ("add_table", "mul_table", "neg_table", "inv_table", "_add_flat",
          "_mul_flat")


def test_fields_of_one_spec_share_read_only_tables():
    a, b = GF(4), GF(4)
    c = GF.from_spec_dict(GF(4).spec_dict())
    for name in TABLES:
        table = getattr(a, name)
        assert getattr(b, name) is table and getattr(c, name) is table
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
    assert a.add(2, 3) == 1 and a.mul(2, 3) == 1


def test_equality_and_hash_read_the_spec():
    assert GF(4) == GF(4) == GF.from_spec_dict(GF(4).spec_dict())
    assert hash(GF(4)) == hash(GF(4, prim_poly=[1, 1, 1], generator=2))
    assert GF(5) == GF(5, prim_poly=[0, 1])
    # the same tables, another generator: another field spec
    assert GF(4, generator=3).mul_table is GF(4).mul_table
    assert GF(4, generator=3) != GF(4)
    assert GF(4) != GF(8) and GF(4) != 4
    assert len({GF(4), GF(4), GF(8), GF(4, generator=3)}) == 3


@pytest.mark.parametrize("spec", [
    dict(q=6), dict(q=4, prim_poly=[0, 0, 1]), dict(q=4, prim_poly=[1, 0, 1]),
    dict(q=4, generator=1), dict(q=4, generator=4),
    # a spec that is not integers is refused: neither truncated (1.5 to 1)
    # nor a bare ValueError ("ab")
    dict(q=4, prim_poly=[1, 1, 1.5]), dict(q=4, prim_poly="ab"),
    dict(q=4, prim_poly=5), dict(q=4, generator=2.5),
    dict(q=4, generator="2"), dict(q=4, generator=True)])
def test_invalid_spec_raises_every_time_and_caches_nothing(spec):
    import slrc.field as field
    GF(4)

    before = field._tables.cache_info().currsize
    for _ in range(2):
        with pytest.raises(FieldError):
            GF(**spec)
    assert field._tables.cache_info().currsize == before


def test_spec_reads_integer_coefficients_mod_p():
    # numpy integers too; the field keeps Python ints
    fld = GF(4, prim_poly=[3, np.int64(-1), np.uint8(5)],
             generator=np.int64(2))
    assert fld == GF(4) and type(fld.generator) is int


@pytest.mark.parametrize("p, m, match", [
    (4, 1, "p = 4 is not a prime"),         # 4 ** 1 would build GF(2^2)
    (-2, 2, "p = -2 is not a prime"),       # (-2) ** 2 is 4
    (2, 0, "m = 0 is outside 1..11"),
    (2, 2 ** 70, "is outside 1..11"),       # 2 ** m is never formed
    (2, 11, "exceeds supported maximum 1024"),
    (6, 1, "6 is not a prime power")])
def test_spec_dict_names_one_field_or_raises(p, m, match):
    spec = dict(GF(4).spec_dict(), p=p, m=m)
    with pytest.raises(FieldError, match=match):
        GF.from_spec_dict(spec)


def test_lookup_tables_agree_with_scalar_ops():
    # scalar operations read the tables and hand back Python ints
    gf = GF(4)
    for a, b in itertools.product(range(4), repeat=2):
        assert gf.add_table[a, b] == gf.add(a, b)
        assert gf.mul_table[a, b] == gf.mul(a, b)
        assert type(gf.add(a, b)) is int and type(gf.mul(a, b)) is int
    for a in range(1, 4):
        assert gf.inv_table[a] == gf.inv(a)
        assert gf.neg_table[a] == gf.neg(a)
        assert type(gf.inv(a)) is int and type(gf.neg(a)) is int


def _digit_oracle(values, p, m, sign=1):
    """Field sum (sign=1) of a list of elements, or the negative of one
    element (sign=-1), one base-p digit at a time."""
    return sum(sign * sum(v // p ** i % p for v in values) % p * p ** i
               for i in range(m))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 27, 125, 729, 1024])
def test_tables_match_independent_oracles(q):
    # the polynomial product and digitwise sums, computed independently;
    # every pair for small q, a seeded sample for large q
    gf = GF(q)
    p, m = gf.p, gf.m
    rng = np.random.default_rng(q)
    if q <= 27:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        pairs = rng.integers(0, q, size=(1500, 2)).tolist()
    for a, b in pairs:
        assert gf.add_table[a, b] == _digit_oracle([a, b], p, m)
        assert gf.mul_table[a, b] == _poly_oracle_mul(a, b, p, m,
                                                      gf.prim_poly)
    elements = range(q) if q <= 27 else rng.integers(1, q, size=200).tolist()
    for a in elements:
        assert gf.neg_table[a] == _digit_oracle([a], p, m, sign=-1)
        if a:
            assert _poly_oracle_mul(a, int(gf.inv_table[a]), p, m,
                                    gf.prim_poly) == 1
            powers = [1]
            for _ in range(5):
                powers.append(_poly_oracle_mul(powers[-1], a, p, m,
                                               gf.prim_poly))
            assert [gf.pow(a, e) for e in range(6)] == powers
            assert _poly_oracle_mul(gf.pow(a, -2), powers[5], p, m,
                                    gf.prim_poly) == powers[3]
    M = rng.integers(0, q, size=(6, 9))
    assert gf.vsum(M, axis=1).tolist() == [_digit_oracle(row, p, m)
                                           for row in M.tolist()]
    assert gf.vsum(M, axis=0).tolist() == [_digit_oracle(col, p, m)
                                           for col in M.T.tolist()]
    # the generator reaches 1 first at power q - 1
    power, order = gf.generator, 1
    while power != 1:
        power = _poly_oracle_mul(power, gf.generator, p, m, gf.prim_poly)
        order += 1
    assert order == q - 1


@pytest.mark.parametrize("q", [1031, 2048, 2187])
def test_fields_above_max_q_are_out_of_scope(q):
    with pytest.raises(FieldError, match="exceeds supported maximum 1024"):
        GF(q)


# (prim_poly, generator) of every extension field with q <= 1024, as
# matrix files store them; the default polynomial is found by a search,
# so this pins its result
EXTENSION_FIELD_SPECS = {
    4: ((1, 1, 1), 2),
    8: ((1, 1, 0, 1), 2),
    9: ((2, 1, 1), 3),
    16: ((1, 1, 0, 0, 1), 2),
    25: ((2, 1, 1), 5),
    27: ((1, 2, 0, 1), 3),
    32: ((1, 0, 1, 0, 0, 1), 2),
    49: ((3, 1, 1), 7),
    64: ((1, 1, 0, 0, 0, 0, 1), 2),
    81: ((2, 1, 0, 0, 1), 3),
    121: ((7, 1, 1), 11),
    125: ((2, 3, 0, 1), 5),
    128: ((1, 1, 0, 0, 0, 0, 0, 1), 2),
    169: ((2, 1, 1), 13),
    243: ((1, 2, 0, 0, 0, 1), 3),
    256: ((1, 0, 1, 1, 1, 0, 0, 0, 1), 2),
    289: ((3, 1, 1), 17),
    343: ((2, 3, 0, 1), 7),
    361: ((2, 1, 1), 19),
    512: ((1, 0, 0, 0, 1, 0, 0, 0, 0, 1), 2),
    529: ((7, 1, 1), 23),
    625: ((2, 2, 1, 0, 1), 5),
    729: ((2, 1, 0, 0, 0, 0, 1), 3),
    841: ((3, 1, 1), 29),
    961: ((12, 1, 1), 31),
    1024: ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
}


def test_extension_field_specs_are_pinned():
    primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
    assert sorted(EXTENSION_FIELD_SPECS) == sorted(
        p ** m for p in primes for m in range(2, 11) if p ** m <= 1024)
    for q, (prim_poly, generator) in EXTENSION_FIELD_SPECS.items():
        gf = GF(q)
        assert (gf.prim_poly, gf.generator) == (prim_poly, generator), q
        assert GF.from_spec_dict(gf.spec_dict()) == gf


@pytest.mark.parametrize("q", [2, 3, 4, 9, 729, 1024])
def test_array_ops_agree_with_scalar_ops(q):
    # characteristic 2 adds by XOR, odd characteristic through the tables
    gf = GF(q)
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 400))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert gf.vadd(a, b).tolist() == [gf.add(x, y) for x, y in pairs]
    assert gf.vmul(a, b).tolist() == [gf.mul(x, y) for x, y in pairs]
    assert gf.vneg(a).tolist() == [gf.neg(x) for x in a.tolist()]
    nonzero = a[a != 0]
    assert gf.vinv(nonzero).tolist() == [gf.inv(x) for x in nonzero.tolist()]
    M = rng.integers(0, q, size=(6, 9))
    sums = []
    for row in M.tolist():
        acc = 0
        for x in row:
            acc = gf.add(acc, x)
        sums.append(acc)
    assert gf.vsum(M, axis=1).tolist() == sums
    assert gf.vmul(a, b).dtype == (np.uint8 if q <= 256 else np.uint16)


@pytest.mark.parametrize("q", [2, 3, 4, 1024])
def test_array_ops_return_fresh_arrays(q):
    # callers write into the results, so none may alias an operand
    gf = GF(q)
    a = np.arange(q, dtype=gf.dtype)[:8]
    b = a[::-1].copy()
    for out in (gf.vneg(a), gf.vadd(a, b), gf.vmul(a, b), gf.vinv(a)):
        assert not np.shares_memory(out, a)
        assert not np.shares_memory(out, b)


# q² - 1 fits 8 bits up to q = 16, 16 bits up to q = 256 and 32 bits up
# to q = 1024: these q sit on both sides of each flat-index dtype
KERNEL_Q = [2, 3, 16, 17, 256, 257, 1024]


@pytest.mark.parametrize("q", KERNEL_Q)
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, int])
def test_array_kernels_broadcast_like_scalar_ops(q, dtype):
    gf = GF(q)
    rng = np.random.default_rng(q)
    # a uint8 operand holds only the elements below 256
    top = q if dtype in (int, np.int64) else min(q, np.iinfo(dtype).max + 1)
    M, N = rng.integers(0, top, size=(2, 5, 7))
    x = int(rng.integers(1, top))

    def operand(a):
        return a if dtype is int else np.asarray(a).astype(dtype)
    # scalar with matrix, column with matrix, matrix with row, same shape
    cases = [(x, M), (M[:, :1], M), (M, M[2]), (M, N)]
    for op, scalar in ((gf.vadd, gf.add), (gf.vmul, gf.mul)):
        for a, b in cases + [(b, a) for a, b in cases]:
            out = op(operand(a), operand(b))
            A, B = np.broadcast_arrays(a, b)
            assert out.dtype == gf.dtype and out.shape == A.shape
            assert out.tolist() == [[scalar(int(s), int(t))
                                     for s, t in zip(ra, rb)]
                                    for ra, rb in zip(A.tolist(), B.tolist())]
        assert op(operand(x), operand(x)) == scalar(x, x)


def _no_lookup(*args):
    raise AssertionError("an array operation ran before the range check")


def test_linear_code_rejects_entries_outside_the_field(monkeypatch):
    monkeypatch.setattr(GF, "vmul", _no_lookup)
    monkeypatch.setattr(GF, "vadd", _no_lookup)
    for bad in (4, -1):
        with pytest.raises(FieldError, match="outside field range"):
            LinearCode(GF(4), [[1, 2], [3, bad]])


@pytest.mark.parametrize("H", [[[1.7, 2.2, 3.9]], [[1.0, 2.0, 3.0]],
                               [["1", "2", "3"]], [[True, False, True]]])
def test_linear_code_rejects_entries_that_are_not_integers(H, monkeypatch):
    # an int64 cast would truncate 1.7 to 1 and parse "1"
    monkeypatch.setattr(GF, "vmul", _no_lookup)
    monkeypatch.setattr(GF, "vadd", _no_lookup)
    with pytest.raises(FieldError, match="must be integers"):
        LinearCode(GF(4), H)


def test_matrix_document_rejects_entries_outside_the_field(monkeypatch):
    doc = matrix_to_dict(reference_code())
    monkeypatch.setattr(GF, "vmul", _no_lookup)
    monkeypatch.setattr(GF, "vadd", _no_lookup)
    for bad in (4, 16, -1):
        doc["entries"][5] = bad
        with pytest.raises(ParameterError, match="outside the field"):
            dict_to_matrix(doc)


def test_encode_rejects_symbols_outside_the_field(monkeypatch):
    code = reference_code()
    monkeypatch.setattr(GF, "vmul", _no_lookup)
    monkeypatch.setattr(GF, "vadd", _no_lookup)
    for bad in (4, 255, -1):
        for msg in ([1, 2, 3, 0, 1, bad],
                    np.array([bad, 0, 0, 0, 0, 0], dtype=np.int64)):
            with pytest.raises(FieldError, match="not an element"):
                code.encode(msg)
