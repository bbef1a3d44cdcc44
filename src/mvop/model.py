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

from . import linalg
from .exact import MomentFunctional, falling, format_rational, gen_binom, parse_rational
from .matpoly import DiffOp, MatPoly

__all__ = [
    "Params",
    "EigenPair",
    "recursion_matrix",
    "drift_matrix",
    "potential_matrix",
    "weight_core",
    "WeightSpec",
    "moment_rows",
    "pair_rows",
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
            if isinstance(value, (float, bool)):
                raise ValueError(f"{name} must be an exact rational, not a {type(value).__name__}")
            object.__setattr__(self, name, parse_rational(value) if isinstance(value, str) else Fraction(value))
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
    if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j <= p.ell:
        raise ValueError(f"j must be an integer in [0, {p.ell}]")


def _check_w(w: int) -> None:
    if not isinstance(w, int) or isinstance(w, bool) or w < 0:
        raise ValueError("w must be a non-negative integer")


def _check_bound(name: str, value: int) -> None:
    """A degree bound such as max_w: an int (not a bool) that is >= 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


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
    table, grown on demand, is the only place the weight is integrated.  A
    moment row of qq, sum_b H_{a+b} qq_b^T, is the pairing of u^a I against qq.
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
        core, eye = self.core, linalg.identity(self.core.dim)
        while len(self._table) <= m:
            n = len(self._table)
            ratios = [linalg.scale(eye, self.moments.ratio(n + c)) for c in range(len(core.num))]
            self._table.append(linalg.matmul_sum(ratios, core.num, right_den=core.den))
        return self._table[m]


def moment_rows(qq: MatPoly, ws: WeightSpec, n: int):
    """The moment rows N[a] = sum_b H_{a+b} qq_b^T for a < n; N[a], a
    dim x qq.dim matrix, is the pairing of u^a I against qq."""
    dim = ws.core.dim
    if qq.cols != dim:
        raise ValueError("dimension mismatch")
    if qq.is_zero():
        return [linalg.zeros(dim, qq.dim)] * n
    qts = [linalg.transpose(c) for c in qq.num]
    return [linalg.matmul_sum([ws.moment(a + b) for b in range(len(qts))], qts, right_den=qq.den) for a in range(n)]


def pair_rows(pp: MatPoly, rows, cols: int):
    """sum_a pp_a rows[a]: pp paired against the moment rows of a qq with cols rows."""
    if len(rows) < len(pp.num):
        raise ValueError("need one moment row per coefficient of pp")
    if pp.is_zero():
        return linalg.zeros(pp.dim, cols)
    return linalg.matmul_sum(pp.num, rows[: len(pp.num)], left_den=pp.den)


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
    q0, q1, r0, r1 = ([[Fraction(0)] * p.size for _ in range(p.size)] for _ in range(4))
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
    _check_bound("max_w", max_w)
    return [
        EigenPair(w, j, hyper_eigenvalue(p, w, j), companion_eigenvalue(p, w, j))
        for w in range(max_w + 1)
        for j in range(p.size)
    ]
