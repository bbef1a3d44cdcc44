"""The three-parameter family: admissible parameters, the polynomial core of
the matrix weight and the pairing it defines, the hypergeometric-form
second-order operator, a second commuting symmetric operator, and all of
their eigenvalue data.

Parameters are (alpha, beta, k, ell) with alpha > -1, beta > -1,
0 < k < beta + 1 and integer ell >= 1; matrices have size ell + 1.  Row and
column indices i, j run from 0 to ell throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .exact import MomentFunctional, falling, format_rational, gen_binom
from .matpoly import DiffOp, MatPoly

__all__ = [
    "Params",
    "EigenPair",
    "recursion_matrix",
    "drift_matrix",
    "potential_matrix",
    "weight_core",
    "WeightSpec",
    "weight_spec",
    "inner_product",
    "vec_inner_product",
    "hyper_operator",
    "companion_blocks",
    "companion_operator",
    "hyper_eigenvalue",
    "companion_eigenvalue",
    "eigenvalue_matrix",
    "monic_eigenvalue",
    "eigen_table",
]


@dataclass(frozen=True)
class Params:
    """Admissible parameter tuple; the constructor rejects violations."""

    alpha: Fraction
    beta: Fraction
    k: Fraction
    ell: int

    def __post_init__(self):
        for name in ("alpha", "beta", "k"):
            value = getattr(self, name)
            if isinstance(value, float):
                raise ValueError(f"{name} must be an exact rational, not a float")
            object.__setattr__(self, name, Fraction(value))
        if not isinstance(self.ell, int) or isinstance(self.ell, bool):
            raise ValueError("ell must be an integer >= 1")
        if self.alpha <= -1:
            raise ValueError("alpha must be > -1")
        if self.beta <= -1:
            raise ValueError("beta must be > -1")
        if not (0 < self.k < self.beta + 1):
            raise ValueError("k must satisfy 0 < k < beta + 1")
        if self.ell < 1:
            raise ValueError("ell must be an integer >= 1")

    @property
    def size(self) -> int:
        return self.ell + 1

    def as_dict(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "k": format_rational(self.k),
            "ell": self.ell,
        }


def _check_j(p: Params, j: int) -> None:
    if not 0 <= j <= p.ell:
        raise ValueError(f"j must lie in [0, {p.ell}]")


def _check_w(w: int) -> None:
    if w < 0:
        raise ValueError("w must be a non-negative integer")


def recursion_matrix(p: Params):
    """Lower-bidiagonal matrix with diagonal beta + 1 + 2i and subdiagonal i.

    Its integer shifts are the denominators of the series recursion; every
    shift stays invertible because the diagonal is positive.
    """
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = p.beta + 1 + 2 * i
        if i >= 1:
            m[i][i - 1] = Fraction(i)
    return linalg.freeze_matrix(m)


def drift_matrix(p: Params):
    """Diagonal matrix with entries alpha + beta + ell + i + 2."""
    return linalg.diagonal(p.alpha + p.beta + p.ell + i + 2 for i in range(p.size))


def potential_matrix(p: Params):
    """Upper-bidiagonal matrix: diagonal i(alpha + beta - k + 1 + i),
    superdiagonal -(ell - i)(beta - k + 1 + i).  Kills the first unit vector."""
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = i * (p.alpha + p.beta - p.k + 1 + i)
        if i < p.ell:
            m[i][i + 1] = -(p.ell - i) * (p.beta - p.k + 1 + i)
    return linalg.freeze_matrix(m)


@lru_cache(maxsize=None)
def weight_core(p: Params) -> MatPoly:
    """Polynomial part of the weight; the full weight is (1-u)^alpha u^beta times this.

    Entry (i, j) is the sum over r of
    C(r, i) C(r, j) C(ell + k - 1 - r, ell - r) C(beta - k + r, r) (1-u)^(ell-r) u^(i+j),
    with generalized binomials.  Symmetric, degree at most 2 ell, and at u = 0
    only the (0, 0) entry survives.
    """
    ell = p.ell
    top = 2 * ell
    coeffs = [[[Fraction(0)] * p.size for _ in range(p.size)] for _ in range(top + 1)]
    for i in range(p.size):
        for j in range(p.size):
            for r in range(ell + 1):
                c = (
                    gen_binom(Fraction(r), i)
                    * gen_binom(Fraction(r), j)
                    * gen_binom(p.ell + p.k - 1 - r, ell - r)
                    * gen_binom(p.beta - p.k + r, r)
                )
                if c == 0:
                    continue
                for t in range(ell - r + 1):
                    coeffs[i + j + t][i][j] += c * gen_binom(Fraction(ell - r), t) * (-1) ** t
    return MatPoly(p.size, tuple(tuple(tuple(row) for row in mat) for mat in coeffs))


class WeightSpec:
    """The weight W = (1-u)^alpha u^beta Z(u) as its core Z and its moment matrices.

    The moment matrix H_m = sum_c Z_c ratio(m + c) is the integral of u^m W in
    units of the zeroth moment of the scalar factor.  Every pairing against
    the weight is a sum of H_{a+b} between polynomial coefficients, so the
    table, grown on demand, is the only place the weight is integrated.
    """

    def __init__(self, params: Params):
        self.params = params
        self.core = weight_core(params)
        self.moments = MomentFunctional(params.alpha, params.beta)
        self._table = []

    def moment(self, m: int):
        """Moment matrix H_m, for m >= 0."""
        if m < 0:
            raise ValueError("m must be a non-negative integer")
        while len(self._table) <= m:
            n = len(self._table)
            total = linalg.zeros(self.core.dim)
            for c, zc in enumerate(self.core.coeffs):
                total = linalg.add(total, linalg.scale(zc, self.moments.ratio(n + c)))
            self._table.append(total)
        return self._table[m]


@lru_cache(maxsize=None)
def weight_spec(params: Params) -> WeightSpec:
    return WeightSpec(params)


def inner_product(pp: MatPoly, qq: MatPoly, ws: WeightSpec):
    """Matrix pairing integral of pp W qq^T, in units of the zeroth moment:
    the sum over a, b of pp_a H_{a+b} qq_b^T.  Both arguments need as many
    columns as the weight has rows; the result is pp.dim x qq.dim."""
    dim = ws.core.dim
    if pp.cols != dim or qq.cols != dim:
        raise ValueError("dimension mismatch")
    qts = [linalg.transpose(c) for c in qq.coeffs]
    total = linalg.zeros(pp.dim, qq.dim)
    for a, pa in enumerate(pp.coeffs):
        right = linalg.zeros(dim, qq.dim)
        for b, qt in enumerate(qts):
            right = linalg.add(right, linalg.matmul(ws.moment(a + b), qt))
        total = linalg.add(total, linalg.matmul(pa, right))
    return total


def vec_inner_product(pv: MatPoly, qv: MatPoly, ws: WeightSpec) -> Fraction:
    """Scalar pairing integral of pv^T W qv of two dim x 1 columns."""
    return inner_product(pv.transpose(), qv.transpose(), ws)[0][0]


@lru_cache(maxsize=None)
def hyper_operator(p: Params) -> DiffOp:
    """Second-order operator in matrix hypergeometric form.

    u(1-u) d^2/du^2 + (recursion_matrix - u drift_matrix) d/du - potential_matrix,
    symmetric with respect to the weight.
    """
    a2 = MatPoly.from_scalar(p.size, (0, 1, -1))
    a1 = MatPoly(p.size, (recursion_matrix(p), linalg.scale(drift_matrix(p), -1)))
    a0 = MatPoly.constant(linalg.scale(potential_matrix(p), -1))
    return DiffOp(p.size, (a2, a1, a0))


def companion_blocks(p: Params):
    """The four constant matrices (q0, q1, r0, r1) of the companion operator.

    Its leading coefficient is (1-u)(q0 + u q1), its first-order coefficient
    is r0 + u r1, and its zero-order coefficient is
    -(alpha + 2 ell + 3k) potential_matrix.
    """
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    q0 = [[Fraction(0)] * p.size for _ in range(p.size)]
    q1 = [[Fraction(0)] * p.size for _ in range(p.size)]
    r0 = [[Fraction(0)] * p.size for _ in range(p.size)]
    r1 = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        q1[i][i] = a - ell + 3 * i
        r0[i][i] = (a + 2 * ell) * (b + 1 + 2 * i) - 3 * k * (ell - i) - 3 * i * (b - k + i)
        r1[i][i] = -(a - ell + 3 * i) * (a + b + ell + i + 2)
        if i >= 1:
            q0[i][i - 1] = Fraction(3 * i)
            r0[i][i - 1] = -i * (3 * i + 3 * b - 3 * k + 3 + ell + 2 * a)
        if i < ell:
            r1[i][i + 1] = 3 * (b - k + 1 + i) * (ell - i)
    return tuple(linalg.freeze_matrix(m) for m in (q0, q1, r0, r1))


@lru_cache(maxsize=None)
def companion_operator(p: Params) -> DiffOp:
    """The second symmetric operator; commutes with hyper_operator."""
    q0, q1, r0, r1 = companion_blocks(p)
    a2 = MatPoly.from_scalar(p.size, (1, -1)) * MatPoly(p.size, (q0, q1))
    a1 = MatPoly(p.size, (r0, r1))
    scalar = p.alpha + 2 * p.ell + 3 * p.k
    a0 = MatPoly.constant(linalg.scale(potential_matrix(p), -scalar))
    return DiffOp(p.size, (a2, a1, a0))


def hyper_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the hypergeometric operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1) - j(alpha + beta - k + 1 + j)."""
    _check_w(w)
    _check_j(p, j)
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    return -w * (w + a + b + ell + j + 1) - j * (a + b - k + 1 + j)


def companion_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the companion operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1)(alpha - ell + 3j)
    - j(j + alpha + beta - k + 1)(alpha + 2 ell + 3k)."""
    _check_w(w)
    _check_j(p, j)
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    return -w * (w + a + b + ell + j + 1) * (a - ell + 3 * j) - j * (j + a + b - k + 1) * (
        a + 2 * ell + 3 * k
    )


def eigenvalue_matrix(p: Params, w: int, which: str):
    """Diagonal eigenvalue matrix at level w for 'hyper' or 'companion'."""
    if which == "hyper":
        values = [hyper_eigenvalue(p, w, j) for j in range(p.size)]
    elif which == "companion":
        values = [companion_eigenvalue(p, w, j) for j in range(p.size)]
    else:
        raise ValueError("which must be 'hyper' or 'companion'")
    return linalg.diagonal(values)


def monic_eigenvalue(op: DiffOp, n: int):
    """Constant matrix sum_i [n]_i (u^i coefficient of A_i), the eigenvalue
    of op on a monic degree-n polynomial family; requires deg A_i <= i."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if not op.is_degree_bounded():
        raise ValueError("coefficient degrees must not exceed the derivative order")
    total = linalg.zeros(op.dim)
    for i in range(op.order + 1):
        mat = op.coeff_of_order(i).coeff(i)
        total = linalg.add(total, linalg.scale(mat, falling(n, i)))
    return total


@dataclass(frozen=True)
class EigenPair:
    """One (w, j) slot with both eigenvalues."""

    w: int
    j: int
    lam: Fraction
    mu: Fraction

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "j": self.j,
            "lambda": format_rational(self.lam),
            "mu": format_rational(self.mu),
        }


def eigen_table(p: Params, max_w: int) -> list[EigenPair]:
    """All eigenvalue pairs for 0 <= w <= max_w, 0 <= j <= ell, in (w, j) order."""
    if max_w < 0:
        raise ValueError("max_w must be >= 0")
    return [
        EigenPair(w, j, hyper_eigenvalue(p, w, j), companion_eigenvalue(p, w, j))
        for w in range(max_w + 1)
        for j in range(p.size)
    ]
