"""Assembly of the global parity-check matrix.

The right block of H is the identity I_{n-k}; below its diagonal the
block-diagonal W* ties the first ceil(s/r)*r line parities to the global
parities, and on top of the first k columns M* expands every line of the
incidence matrix into a (delta-1)-row block carrying the columns of Q:

    H = [ M*   I_mu                      0 ]
        [ 0    W* (zero-padded to mu)    I ]

Coordinate layout (0-based): information 0..k-1, line parities
k..k+mu-1 (line j owns the delta-1 consecutive columns starting at
k + j*(delta-1)), global parities afterwards, so 0..k-1 is the first
information set and the generator `LinearCode` derives is [I_k | P].
`CodeShape` alone checks that a shape is such a layout, reading its
counts through `errors.check_count`.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .designs import Design, validate_design
from .errors import InfeasibleError, ParameterError, check_count
from .field import GF, same_field
from .linear import DUAL_BYTE_BUDGET, LinearCode, generator_bytes
from .mds import MdsLocalMatrix

# the role of each coordinate of a layout, in layout order
ROLES = ("information", "line_parity", "global_parity")


@dataclass(frozen=True)
class CodeShape:
    """The scalar parameters of a constructed code and the block layout
    they fix, from which every size and coordinate role is derived.
    ParameterError unless r, delta, t_i, k and b are integers >= 1 (no
    bool; held as ints), delta >= 2, the (rows, columns) `h_shape` of a
    matrix file's H, when given, is (n - k, n), and W*'s w_blocks·r
    columns fit in mu."""
    field: GF
    r: int
    delta: int
    t_i: int
    k: int
    b: int
    _: KW_ONLY
    h_shape: InitVar[tuple | None] = None

    def __post_init__(self, h_shape):
        for key in ("r", "delta", "t_i", "k", "b"):
            object.__setattr__(self, key, check_count(
                key, getattr(self, key), 1 + (key == "delta")))
        rows, cols = h_shape or (self.n - self.k, self.n)
        if self.n != cols:
            raise ParameterError(
                f"params (r={self.r}, delta={self.delta}, k={self.k}, "
                f"b={self.b}) give n = {self.n}, but H has {cols} columns")
        if self.n - self.k != rows:
            raise ParameterError(f"params give n - k = {self.n - self.k} "
                                 f"rows, but H has {rows}")
        if self.w_blocks * self.r > self.mu:
            raise ParameterError(
                f"W* width {self.w_blocks * self.r} exceeds the {self.mu} "
                f"line-parity columns; increase b (more lines) or delta")

    @property
    def s(self):
        return -(-self.k // self.r)     # ceil(k/r), exact for any size

    @property
    def mu(self):
        """Number of line parities, delta - 1 per line."""
        return self.b * (self.delta - 1)

    @property
    def w_blocks(self):
        """Copies of Q in the W* tier."""
        return -(-self.s // self.r)

    @property
    def n(self):
        """Block length k + (b + ceil(ceil(k/r)/r))(delta - 1)."""
        return self.k + (self.b + self.w_blocks) * (self.delta - 1)

    @property
    def rate(self):
        """The exact rate k/n."""
        return Fraction(self.k, self.n)

    @property
    def roles(self):
        info, line, glob = ROLES
        return ((info,) * self.k + (line,) * self.mu
                + (glob,) * (self.n - self.k - self.mu))

    @property
    def t_claim(self):
        """The tolerance the construction is designed to certify."""
        return self.t_i * (self.delta - 1)

    @property
    def t_abstract(self):
        """A stronger tolerance quoted for this family, which the
        verifier measures rather than presumes."""
        return self.delta * self.t_i + 1


@dataclass(frozen=True)
class ConstructionParams(CodeShape):
    """A CodeShape with the design and local MDS matrix that generate
    it; k and b are the design's."""
    k: int = dc_field(init=False)
    b: int = dc_field(init=False)
    design: Design
    mds: MdsLocalMatrix

    def __post_init__(self, h_shape):
        object.__setattr__(self, "k", self.design.k)
        object.__setattr__(self, "b", self.design.b)
        same_field(self.field, self.mds.field)
        if self.mds.r != self.r or self.mds.delta != self.delta:
            raise ParameterError(
                f"MDS matrix is for (r={self.mds.r}, delta={self.mds.delta}), "
                f"params say (r={self.r}, delta={self.delta})")
        if self.design.r != self.r or self.design.t_i != self.t_i:
            raise ParameterError(
                f"design is ({self.design.t_i}, {self.design.r})-regular, "
                f"params say (t_i={self.t_i}, r={self.r})")
        if self.field.q < self.r + self.delta - 2:
            raise ParameterError(
                f"q = {self.field.q} < r + delta - 2 = {self.r + self.delta - 2}")
        if self.t_i > self.delta:
            raise ParameterError(
                f"t_i = {self.t_i} exceeds delta = {self.delta}")
        # before validate_design's O(b^2 r) line pairs (b r != k t_i is a
        # bad design): H has n - k rows, so the dimension is at least k
        if (self.b * self.r == self.k * self.t_i and generator_bytes(
                self.field, self.k, self.n) > DUAL_BYTE_BUDGET):
            raise InfeasibleError(
                f"a generator of at least {self.k} x {self.n} exceeds the "
                f"{DUAL_BYTE_BUDGET}-byte budget")
        violation = validate_design(self.design)
        if violation:
            raise ParameterError(f"invalid design: {violation}")
        super().__post_init__(h_shape)      # last: each first error stays


class ConstructedCode(LinearCode):
    """A linear code whose H has the construction's layout, together
    with the CodeShape (or ConstructionParams) it was built from."""

    def __init__(self, params: CodeShape, H):
        super().__init__(params.field, H)
        self.params = params
        # G[:, :k] = I_k: 0..k-1 is the information set
        self._systematic = (self.dimension == params.k
                            and bool(self.information_set[:params.k].all()))

    @property
    def k(self):
        return self.params.k

    def as_linear_code(self):
        """The code itself, which is a LinearCode."""
        return self

    def row_block_support(self, j):
        """Nonzero columns of row block j (0-based, j < b + w_blocks)."""
        p = self.params
        if not 0 <= j < p.b + p.w_blocks:
            raise ParameterError(
                f"row block {j} is outside 0..{p.b + p.w_blocks - 1}")
        d1 = p.delta - 1
        block = self.H[j * d1:(j + 1) * d1]
        return tuple(int(c) for c in np.flatnonzero(block.any(axis=0)))

    def check_encodable(self):
        """Raises ParameterError when 0..k-1 is not an information set, as
        off the layout: no message can be encoded."""
        if not self._systematic:
            raise ParameterError(
                f"coordinates 1..{self.k} are not an information set, so "
                f"no message can be encoded: H does not have the "
                f"[M* I 0; 0 W* I] layout of its params")

    def encode(self, message):
        """[m | m P] by `LinearCode.encode`; raises as `check_encodable`
        does."""
        self.check_encodable()
        return super().encode(message)


def expand_m_star(design: Design, mds: MdsLocalMatrix):
    """Expand the incidence matrix into the b(delta-1) x k matrix M*:
    the j-th one of each line (left to right) becomes the j-th column
    of Q, zeros become zero columns."""
    if any(len(line) != mds.r for line in design.lines):
        raise ParameterError(
            f"design row weight differs from MDS locality r = {mds.r}")
    d1 = mds.delta - 1
    M_star = np.zeros((design.b * d1, design.k), dtype=np.int64)
    for li, line in enumerate(design.lines):
        for j, point in enumerate(sorted(line)):
            M_star[li * d1:(li + 1) * d1, point] = mds.Q[:, j]
    return M_star


def build_w_star(blocks, mds: MdsLocalMatrix):
    """Block-diagonal matrix with `blocks` copies of Q; the construction
    takes its shape's ceil(s/r) (`CodeShape.w_blocks`)."""
    blocks = check_count("W* block count", blocks)
    return np.kron(np.eye(blocks, dtype=np.int64), mds.Q)


def build_parity_check(params: ConstructionParams):
    """Assemble the full parity-check matrix and wrap it as a code; its
    params have refused, before H exists, a shape that is no layout and
    a k x n generator over DUAL_BYTE_BUDGET."""
    mu, w_cols = params.mu, params.w_blocks * params.r
    k, rows = params.k, params.n - params.k
    H = np.zeros((rows, params.n), dtype=np.int64)
    H[:mu, :k] = expand_m_star(params.design, params.mds)
    H[mu:, k:k + w_cols] = build_w_star(params.w_blocks, params.mds)
    np.fill_diagonal(H[:, k:], 1)
    return ConstructedCode(params, H)


def constructed_from_matrix(field: GF, H, shape: CodeShape, roles=None):
    """`ConstructedCode(shape, H)`, the code of a loaded matrix file.
    `field` and `roles` are not read: the shape holds the field, and
    `matrixio` refuses roles other than the shape's."""
    return ConstructedCode(shape, H)

