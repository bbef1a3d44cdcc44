"""The three-parameter family: admissible parameters, the polynomial core of
the matrix weight, the moments of its scalar factor (the only integral) and
the pairing they define, the hypergeometric-form second-order operator, a
second commuting symmetric operator, and all of their eigenvalue data.

Parameters are (alpha, beta, k, ell) with alpha > -1, beta > -1,
0 < k < beta + 1 and integer ell >= 1; matrices have size ell + 1.  Row and
column indices i, j run from 0 to ell throughout.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .exact import _check_bound, format_rational, gen_binom, parse_rational
from .matpoly import DiffOp, Frozen, MatPoly

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
    "monic_matrix",
    "slot_table",
    "eigen_table",
]


class Params(Frozen):
    """Admissible parameter tuple; the constructor rejects violations.
    alpha, beta and k take an int (not a bool), a Fraction or a 'p/q' string."""

    _fields = ("alpha", "beta", "k", "ell")

    def __init__(self, alpha, beta, k, ell: int):
        self.__dict__.update(alpha=alpha, beta=beta, k=k, ell=ell)
        for name in ("alpha", "beta", "k"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = parse_rational(value)
            elif not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an exact rational, not a {type(value).__name__}")
            self.__dict__[name] = Fraction(value)
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
    coeffs = [[[Fraction(0)] * p.size for _ in range(p.size)] for _ in range(2 * ell + 1)]
    for r in range(ell + 1):
        scale = gen_binom(ell + p.k - 1 - r, ell - r) * gen_binom(p.beta - p.k + r, r)
        for i in range(r + 1):  # C(r, i) vanishes for i > r
            for j in range(r + 1):
                c = math.comb(r, i) * math.comb(r, j) * scale
                for t in range(ell - r + 1):
                    coeffs[i + j + t][i][j] += c * math.comb(ell - r, t) * (-1) ** t
    return MatPoly(p.size, coeffs)


class WeightSpec:
    """The weight W = (1-u)^alpha u^beta Z(u) as its core Z and the moments
    of its scalar factor, the only integral: in units of the zeroth moment,
    u^n integrates against the factor to the exact
    ratio(n) = poch(beta + 1, n) / poch(alpha + beta + 2, n), grown on
    demand by their recurrence.  Every pairing against the weight is such an
    integral of a matrix polynomial, which integrals reads from the ratios."""

    def __init__(self, params: Params):
        self.params = params
        self.core = weight_core(params)
        self._ratios = [Fraction(1)]

    def integrals(self, y: MatPoly, n: int) -> tuple:
        """The integrals of u^a Y against the scalar factor for a < n, each
        sum_m ratio(a + m) Y_m, as (rows, den): integer matrices over one
        denominator, the lcm of the ratios read times y.den."""
        _check_bound("n", n)
        if not (n and y.num):
            return [((0,) * y.cols,) * y.dim] * n, y.den
        ratios, a, b, width = self._ratios, self.params.alpha, self.params.beta, len(y.num)
        while len(ratios) < n + width - 1:
            # ratio(m) = ratio(m-1) * (beta + m) / (alpha + beta + 1 + m)
            ratios.append(ratios[-1] * (b + len(ratios)) / (a + b + 1 + len(ratios)))
        read = ratios[: n + width - 1]
        den = math.lcm(*(r.denominator for r in read))
        weights = [r.numerator * (den // r.denominator) for r in read]
        entries = [list(zip(*rows_i)) for rows_i in zip(*y.num)]  # entry (i, j) of every Y_m
        windows = (weights[i : i + width] for i in range(n))
        rows = [tuple(tuple(sum(map(operator.mul, part, e)) for e in row) for row in entries) for part in windows]
        return rows, den * y.den


def moment_rows(qq: MatPoly, ws: WeightSpec, n: int) -> tuple:
    """The moment rows N[a] = sum_b H_{a+b} qq_b^T for a < n, the pairings of
    u^a I against qq, as (rows, den): dim x qq.dim integer matrices over one
    denominator.  H_m = sum_c ratio(m + c) Z_c is never formed: with G the
    integrals of qq^T, N[a] = sum_c Z_c G[a + c], the core paired against G.
    Z_c[i][j] vanishes outside the band i + j <= c <= ell + min(i, j), so
    only the core's nonzero entries, listed once per row, are read."""
    _check_bound("n", n)
    dim = ws.core.dim
    if qq.cols != dim:
        raise ValueError("dimension mismatch")
    if qq.is_zero() or n == 0:
        return [((0,) * qq.dim,) * dim] * n, 1
    g, den = ws.integrals(qq.transpose(), n + len(ws.core.num) - 1)
    band = [[(c, j, z) for c, zc in enumerate(ws.core.num) for j, z in enumerate(zc[i]) if z] for i in range(dim)]
    cols = range(qq.dim)
    rows = [tuple(tuple(sum(z * g[a + c][j][k] for c, j, z in row) for k in cols) for row in band) for a in range(n)]
    return rows, den * ws.core.den


def pair_rows(pp: MatPoly, rows, den: int, cols: int) -> tuple:
    """sum_a pp_a rows[a] / den: pp paired against the moment rows (rows, den)
    of a qq with cols rows, as (integer matrix, den * pp.den), one product."""
    if len(rows) < len(pp.num):
        raise ValueError("need one moment row per coefficient of pp")
    if pp.is_zero():
        return ((0,) * cols,) * pp.dim, 1
    if any(len(r) != pp.cols for r in rows[: len(pp.num)]):
        raise ValueError("inner dimension mismatch")
    left = [[x for c in pp.num for x in c[i]] for i in range(pp.dim)]
    stacked = [row for r in rows[: len(pp.num)] for row in r]
    return linalg.int_matmul(left, stacked), den * pp.den


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


def _cleared(p: Params) -> tuple:
    """(d, alpha d, beta d, k d), d the lcm of the denominators of alpha, beta
    and k, so the slot eigenvalues are integer polynomials over d or d^2."""
    a, b, k = p.alpha, p.beta, p.k
    d = math.lcm(a.denominator, b.denominator, k.denominator)
    return d, a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), k.numerator * (d // k.denominator)


def _slot(p: Params, w: int, j: int, cleared: tuple) -> tuple:
    """(lambda d, mu d^2) at slot (w, j), for cleared = _cleared(p): the one
    place the closed forms of both eigenvalues are written, on integers."""
    _check_bound("w", w)
    _check_j(p, j)
    d, a, b, k = cleared
    grow, tail = -w * (a + b + (w + p.ell + j + 1) * d), -j * (a + b - k + (1 + j) * d)
    return grow + tail, grow * (a + (3 * j - p.ell) * d) + tail * (a + 2 * p.ell * d + 3 * k)


def hyper_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the hypergeometric operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1) - j(alpha + beta - k + 1 + j), _slot's numerator over d."""
    cleared = _cleared(p)
    return Fraction(_slot(p, w, j, cleared)[0], cleared[0])


def companion_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the companion operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1)(alpha - ell + 3j)
    - j(j + alpha + beta - k + 1)(alpha + 2 ell + 3k), _slot's numerator over d^2."""
    cleared = _cleared(p)
    return Fraction(_slot(p, w, j, cleared)[1], cleared[0] ** 2)


def monic_matrix(op: DiffOp, n: int) -> MatPoly:
    """Constant matrix sum_i [n]_i (u^i coefficient of A_i), the eigenvalue
    of op on a monic degree-n polynomial family, as a constant MatPoly built
    on op's integer form; requires deg A_i <= i."""
    _check_bound("n", n)
    if not op.is_degree_bounded():
        raise ValueError("coefficient degrees must not exceed the derivative order")
    nums, den = op.integer_form
    weighted = [(math.perm(n, i), a[i]) for i, a in enumerate(nums) if i < len(a)]
    rows = tuple(tuple(sum(s * mat[r][c] for s, mat in weighted) for c in range(op.dim)) for r in range(op.dim))
    return MatPoly._reduced(op.dim, op.dim, (rows,), den)


class EigenPair(namedtuple("EigenPair", "w j lam mu")):
    """One (w, j) slot with both eigenvalues."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "j": self.j,
            "lambda": format_rational(self.lam),
            "mu": format_rational(self.mu),
        }


def slot_table(p: Params, max_w: int) -> list:
    """Each slot (w, j, lambda d, mu d^2) for 0 <= w <= max_w and 0 <= j <= ell,
    in (w, j) order: both eigenvalues as integer numerators (see _slot)."""
    _check_bound("max_w", max_w)
    cleared = _cleared(p)
    return [(w, j, *_slot(p, w, j, cleared)) for w in range(max_w + 1) for j in range(p.size)]


def eigen_table(p: Params, max_w: int) -> list[EigenPair]:
    """All eigenvalue pairs for 0 <= w <= max_w, 0 <= j <= ell, in (w, j) order, from slot_table."""
    d = _cleared(p)[0]
    return [EigenPair(w, j, Fraction(lam, d), Fraction(mu, d * d)) for w, j, lam, mu in slot_table(p, max_w)]
