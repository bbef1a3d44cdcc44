"""The three-parameter family: admissible parameters, the polynomial core of
the matrix weight, the moments of its scalar factor (the only integral) and
the pairing they define, the hypergeometric-form second-order operator, a
second commuting symmetric operator, and all of their eigenvalue data.
The core and both operators are built on integers over powers of d (see
_cleared); C, U, V, Q0, Q1, R0 and R1 are read back as their coefficients.

Parameters are (alpha, beta, k, ell) with alpha > -1, beta > -1,
0 < k < beta + 1 and integer ell >= 1; matrices have size ell + 1.  Row and
column indices i, j run from 0 to ell throughout.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import linalg
from .exact import _check_bound, format_rational, parse_rational
from .matpoly import DiffOp, Frozen, MatPoly

__all__ = [
    "Params",
    "weight_core",
    "WeightSpec",
    "moment_rows",
    "pair_rows",
    "hyper_operator",
    "companion_operator",
    "hyper_eigenvalue",
    "companion_eigenvalue",
    "monic_matrix",
    "slot_table",
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


def _cleared(p: Params) -> tuple:
    """(d, alpha d, beta d, k d), d the lcm of the denominators of alpha, beta and k: the
    core, both operators and the slot eigenvalues are integer polynomials over powers of d."""
    a, b, k = p.alpha, p.beta, p.k
    d = math.lcm(a.denominator, b.denominator, k.denominator)
    return d, a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), k.numerator * (d // k.denominator)


def _bands(diag, below=(), above=()) -> tuple:
    """The square integer matrix with diag[i] at (i, i), below[i] at (i + 1, i) and above[i] at (i, i + 1)."""
    m = [[0] * len(diag) for _ in diag]
    for (di, dj), band in (((0, 0), diag), ((1, 0), below), ((0, 1), above)):
        for i, x in enumerate(band):
            m[i + di][i + dj] = x
    return tuple(map(tuple, m))


def weight_core(p: Params) -> MatPoly:
    """Polynomial part of the weight; the full weight is (1-u)^alpha u^beta times this.

    Entry (i, j) is the sum over r of
    C(r, i) C(r, j) C(ell + k - 1 - r, ell - r) C(beta - k + r, r) (1-u)^(ell-r) u^(i+j),
    with generalized binomials.  Symmetric, degree at most 2 ell, and at u = 0
    only the (0, 0) entry survives.  Built on integers over d^ell ell! (see _cleared): the
    binomials of r are C(ell, r) prod_{i < ell-r} (kd + id) prod_{i < r} (beta d - kd + (1+i)d) over it.
    """
    d, _, b, k = _cleared(p)
    ell, n = p.ell, p.size
    coeffs = [[[0] * n for _ in range(n)] for _ in range(2 * ell + 1)]
    for r in range(n):
        scale = math.comb(ell, r) * math.prod(k + i * d for i in range(ell - r))
        scale *= math.prod(b - k + (1 + i) * d for i in range(r))
        tail = [(-1) ** t * math.comb(ell - r, t) for t in range(ell - r + 1)]  # (1-u)^(ell-r)
        for i in range(r + 1):  # C(r, i) vanishes for i > r
            for j in range(r + 1):
                c = math.comb(r, i) * math.comb(r, j) * scale
                for t, x in enumerate(tail):
                    coeffs[i + j + t][i][j] += c * x
    return MatPoly._reduced(n, n, [tuple(map(tuple, c)) for c in coeffs], d**ell * math.factorial(ell))


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


def _minus_potential(p: Params, s: int, den: int) -> MatPoly:
    """-s V d / den, V as in hyper_operator: the order-zero coefficient of both operators."""
    d, a, b, k = _cleared(p)
    diag = [-s * i * (a + b - k + (1 + i) * d) for i in range(p.size)]
    above = [s * (p.ell - i) * (b - k + (1 + i) * d) for i in range(p.ell)]
    return MatPoly._reduced(p.size, p.size, (_bands(diag, above=above),), den)


def hyper_operator(p: Params) -> DiffOp:
    """Second-order operator in matrix hypergeometric form, symmetric with
    respect to the weight: u(1-u) d^2/du^2 + (C - u U) d/du - V.  Row i of C
    has beta + 1 + 2i on the diagonal and i below it (every shift C + i, a
    denominator of the series recursion, is invertible); U is diagonal with
    alpha + beta + ell + i + 2; row i of V has i(alpha + beta - k + 1 + i) on
    the diagonal and -(ell - i)(beta - k + 1 + i) above it (V kills the first
    unit vector).  A1 and A0 are built on integers over d (see _cleared).
    Read back: C is coeff_of_order(1).coeff(0), U is -coeff_of_order(1).coeff(1)
    and V is -coeff_of_order(0).coeff(0).
    """
    (d, a, b, _), rows = _cleared(p), range(p.size)
    c = _bands([b + (1 + 2 * i) * d for i in rows], below=[i * d for i in rows[1:]])
    u = _bands([-(a + b + (p.ell + i + 2) * d) for i in rows])
    a1 = MatPoly._reduced(p.size, p.size, (c, u), d)
    return DiffOp(p.size, (MatPoly.from_scalar(p.size, (0, 1, -1)), a1, _minus_potential(p, 1, d)))


def companion_operator(p: Params) -> DiffOp:
    """The second symmetric operator, which commutes with hyper_operator:
    (1-u)(Q0 + u Q1) d^2/du^2 + (R0 + u R1) d/du - (alpha + 2 ell + 3k) V,
    V as in hyper_operator.  Row i of each matrix holds
    Q0: 3i below the diagonal;
    Q1: alpha - ell + 3i on the diagonal;
    R0: (alpha + 2 ell)(beta + 1 + 2i) - 3k(ell - i) - 3i(beta - k + i) on the
        diagonal and -i(2 alpha + 3 beta - 3k + 3 + ell + 3i) below it;
    R1: -(alpha - ell + 3i)(alpha + beta + ell + i + 2) on the diagonal and
        3(ell - i)(beta - k + 1 + i) above it.
    Built on integers: A2 over d (see _cleared), A1 and A0 over d^2.  Read
    back from A2 and A1 (coeff_of_order): Q0 is A2.coeff(0), Q1 is
    -A2.coeff(2), R0 is A1.coeff(0) and R1 is A1.coeff(1).
    """
    d, a, b, k = _cleared(p)
    n, ell, rows = p.size, p.ell, range(p.size)
    q0 = [3 * i * d for i in rows[1:]]  # Q0's band below the diagonal
    q1 = [a + (3 * i - ell) * d for i in rows]  # Q1's diagonal
    r0 = _bands(
        [(a + 2 * ell * d) * (b + (1 + 2 * i) * d) - 3 * d * ((ell - i) * k + i * (b - k + i * d)) for i in rows],
        below=[-i * d * (2 * a + 3 * b - 3 * k + (3 + ell + 3 * i) * d) for i in rows[1:]],
    )
    r1 = _bands(
        [-(a + (3 * i - ell) * d) * (a + b + (ell + i + 2) * d) for i in rows],
        above=[3 * (ell - i) * d * (b - k + (1 + i) * d) for i in range(ell)],
    )
    # A2 = (1-u)(Q0 + u Q1) by ascending power: Q0, Q1 - Q0 and -Q1
    a2 = _bands([0] * n, below=q0), _bands(q1, below=[-x for x in q0]), _bands([-x for x in q1])
    a1 = MatPoly._reduced(n, n, (r0, r1), d * d)
    return DiffOp(n, (MatPoly._reduced(n, n, a2, d), a1, _minus_potential(p, a + 2 * ell * d + 3 * k, d * d)))


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
    on op's numerators over op.den; requires deg A_i <= i."""
    _check_bound("n", n)
    if not op.is_degree_bounded():
        raise ValueError("coefficient degrees must not exceed the derivative order")
    weighted = [(math.perm(n, i), a[i]) for i, a in enumerate(op.num) if i < len(a)]
    rows = tuple(tuple(sum(s * mat[r][c] for s, mat in weighted) for c in range(op.dim)) for r in range(op.dim))
    return MatPoly._reduced(op.dim, op.dim, (rows,), op.den)


def slot_table(p: Params, max_w: int) -> list:
    """Each slot (w, j, lambda d, mu d^2) for 0 <= w <= max_w and 0 <= j <= ell,
    in (w, j) order: both eigenvalues as integer numerators (see _slot)."""
    _check_bound("max_w", max_w)
    cleared = _cleared(p)
    return [(w, j, *_slot(p, w, j, cleared)) for w in range(max_w + 1) for j in range(p.size)]
