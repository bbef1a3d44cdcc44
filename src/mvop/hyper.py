"""Construction of the orthogonal eigenfunctions through the matrix
hypergeometric series.

A column eigenfunction with eigenvalue lam solves
u(1-u) F'' + (recursion_matrix - u drift_matrix) F' - (potential_matrix + lam) F = 0
and is analytic at u = 0, so it is determined by its value F0 there through
the bracket recursion computed by bracket_seq.  The series terminates at
degree w exactly when the termination matrix at (w, j) is singular; its
kernel is spanned by the explicit kernel_vector.

Distinct slots (w, j) and (w', j') can share an eigenvalue.  find_collisions
recovers the full class of slots sharing a value; the first slot of a class
is built directly from the bracket recursion, and every later slot is built
inside the finite-dimensional space of polynomial solutions by exact
orthogonalization against the earlier columns of its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .matpoly import MatPoly
from .exact import poch
from .model import (
    Params,
    drift_matrix,
    hyper_eigenvalue,
    potential_matrix,
    recursion_matrix,
    vec_inner_product,
    weight_spec,
)

__all__ = [
    "BracketSeq",
    "CollisionClass",
    "bracket_seq",
    "termination_matrix",
    "kernel_vector",
    "find_collisions",
    "poly_solution_space",
    "build_column",
    "orthogonal_polynomial",
    "leading_coefficient",
]


@dataclass(frozen=True)
class BracketSeq:
    """Series coefficient matrices B_0 .. B_m of the hypergeometric recursion."""

    params: Params
    lam: Fraction
    coeffs: tuple


def bracket_seq(p: Params, lam, m: int) -> BracketSeq:
    """Matrices defined by B_0 = I and
    (recursion_matrix + i) B_{i+1} = (i (drift_matrix + i - 1) + potential_matrix + lam) B_i.

    The analytic solution with value f0 at u = 0 has Taylor coefficients
    B_i f0 / i!.  The left side is always invertible, so the sequence exists
    for every lam.
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    lam = Fraction(lam)
    c = recursion_matrix(p)
    u = drift_matrix(p)
    v = potential_matrix(p)
    eye = linalg.identity(p.size)
    shift = linalg.add(v, linalg.scale(eye, lam))
    out = [eye]
    for i in range(m):
        numerator = linalg.add(linalg.scale(linalg.add(u, linalg.scale(eye, i - 1)), i), shift)
        denominator = linalg.add(c, linalg.scale(eye, i))
        out.append(linalg.solve_matrix(denominator, linalg.matmul(numerator, out[-1])))
    return BracketSeq(p, lam, tuple(out))


def termination_matrix(p: Params, w: int, j: int):
    """Upper-bidiagonal matrix whose singularity terminates the series at degree w.

    Diagonal entry i is (i - j)(alpha + beta - k + 1 + i + j + w); superdiagonal
    entry i is -(ell - i)(beta - k + 1 + i).  Equals
    w (drift_matrix + w - 1) + potential_matrix + hyper_eigenvalue(p, w, j).
    """
    if w < 0:
        raise ValueError("w must be a non-negative integer")
    if not 0 <= j <= p.ell:
        raise ValueError(f"j must lie in [0, {p.ell}]")
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = (i - j) * (a + b - k + 1 + i + j + w)
        if i < ell:
            m[i][i + 1] = -(ell - i) * (b - k + 1 + i)
    return linalg.freeze_matrix(m)


def kernel_vector(p: Params, w: int, j: int):
    """Explicit kernel element of the termination matrix, normalized to 1 in slot j.

    Entry i < j is (-1)^(i+j) C(ell-i, ell-j)
    poch(beta-k+1+i, j-i) / poch(alpha+beta+j+i+w-k+1, j-i); entries above j
    vanish.  The denominator products are strictly positive for admissible
    parameters, so the vector is always defined.
    """
    if w < 0:
        raise ValueError("w must be a non-negative integer")
    if not 0 <= j <= p.ell:
        raise ValueError(f"j must lie in [0, {p.ell}]")
    x = [Fraction(0)] * p.size
    x[j] = Fraction(1)
    for i in range(j):
        num = poch(p.beta - p.k + 1 + i, j - i)
        den = poch(p.alpha + p.beta + j + i + w - p.k + 1, j - i)
        x[i] = Fraction((-1) ** (i + j)) * math.comb(p.ell - i, p.ell - j) * num / den
    return tuple(x)


@dataclass(frozen=True)
class CollisionClass:
    """All slots (w, j) sharing one eigenvalue, sorted by increasing w."""

    lam: Fraction
    members: tuple


def find_collisions(p: Params, lam, w_bound: int | None = None) -> CollisionClass:
    """Complete list of slots (w', j') with hyper_eigenvalue equal to lam.

    For fixed j' the eigenvalue is strictly decreasing in w', so scanning
    w' = 0, 1, ... until the value drops below lam finds the at most one root
    per j' and always terminates; w_bound only guards that scan.
    """
    lam = Fraction(lam)
    members = []
    for jp in range(p.size):
        w = 0
        while True:
            val = hyper_eigenvalue(p, w, jp)
            if val == lam:
                members.append((w, jp))
                break
            if val < lam:
                break
            w += 1
            if w_bound is not None and w > w_bound:
                raise RuntimeError("eigenvalue scan exceeded w_bound before crossing lam")
    members.sort()
    for (w1, j1), (w2, j2) in zip(members, members[1:]):
        if not (w2 > w1 and j1 >= j2 + 2):
            raise ArithmeticError("repeated-eigenvalue structure violated")
    return CollisionClass(lam, tuple(members))


def poly_solution_space(p: Params, lam, n: int) -> list:
    """Basis of initial values f0 whose solution is polynomial of degree <= n.

    These are the f0 with (n (drift_matrix + n - 1) + potential_matrix + lam) B_n f0 = 0:
    once that product vanishes the recursion sends every later coefficient to
    zero.  The dimension equals the number of slots of the collision class of
    lam with w' <= n.
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    lam = Fraction(lam)
    b_n = bracket_seq(p, lam, n).coeffs[n]
    eye = linalg.identity(p.size)
    m = linalg.add(
        linalg.scale(linalg.add(drift_matrix(p), linalg.scale(eye, n - 1)), n),
        linalg.add(potential_matrix(p), linalg.scale(eye, lam)),
    )
    return linalg.nullspace(linalg.matmul(m, b_n))


def _series_polynomial(brackets, f0, degree: int, dim: int, scale_factorial: int) -> MatPoly:
    coeffs = []
    for i in range(degree + 1):
        s = Fraction(scale_factorial, math.factorial(i))
        coeffs.append(tuple((s * x,) for x in linalg.matvec(brackets[i], f0)))
    return MatPoly(dim, coeffs, 1)


def _proportional(v: MatPoly, base: MatPoly) -> bool:
    if v.is_zero():
        return True
    for m, c in enumerate(base.coeffs):
        for i, (x,) in enumerate(c):
            if x != 0:
                s = v.coeff(m)[i][0] / x
                return (v - base * s).is_zero()
    return False


def _principal_column(p: Params, w: int, j: int, lam: Fraction) -> MatPoly:
    brackets = bracket_seq(p, lam, w).coeffs
    kv = kernel_vector(p, w, j)
    f0 = linalg.solve(brackets[w], kv)
    return _series_polynomial(brackets, f0, w, p.size, math.factorial(w))


def _orthogonal_complement_column(p: Params, w: int, j: int, lam: Fraction, earlier) -> MatPoly:
    ws = weight_spec(p)
    prev = [build_column(p, wm, jm) for wm, jm in earlier]
    basis = poly_solution_space(p, lam, w)
    if len(basis) != len(earlier) + 1:
        raise AssertionError("solution-space dimension does not match the collision count")
    brackets = bracket_seq(p, lam, w).coeffs
    norms = [vec_inner_product(q, q, ws) for q in prev]
    reduced = []
    for f0 in basis:
        cand = _series_polynomial(brackets, f0, w, p.size, 1)
        for qm, nm in zip(prev, norms):
            c = vec_inner_product(cand, qm, ws)
            if c:
                cand = cand - qm * (c / nm)
        reduced.append(cand)
    pick = next((v for v in reduced if not v.is_zero()), None)
    if pick is None:
        raise AssertionError("orthogonal complement in the solution space is zero")
    for other in reduced:
        if not _proportional(other, pick):
            raise AssertionError("orthogonal complement in the solution space is not one-dimensional")
    if pick.degree != w:
        raise AssertionError("orthogonalized column has unexpected degree")
    lead = [x for (x,) in pick.coeff(w)]
    kv = kernel_vector(p, w, j)
    if lead[j] == 0 or any(lead[i] != lead[j] * kv[i] for i in range(p.size)):
        raise ArithmeticError("leading coefficient is not proportional to the kernel vector")
    column = pick * (1 / lead[j])
    if any(vec_inner_product(column, qm, ws) != 0 for qm in prev):
        raise ArithmeticError("orthogonalized column is not orthogonal to its class")
    return column


@lru_cache(maxsize=None)
def build_column(p: Params, w: int, j: int) -> MatPoly:
    """Degree-w column eigenfunction for slot (w, j), a dim x 1 MatPoly whose
    leading coefficient is kernel_vector(p, w, j).

    The first slot of a collision class comes straight from the series with
    the initial value that produces the kernel vector on top; later slots are
    cut out of the polynomial solution space by exact orthogonalization
    against the earlier columns of the class.
    """
    if w < 0:
        raise ValueError("w must be a non-negative integer")
    if not 0 <= j <= p.ell:
        raise ValueError(f"j must lie in [0, {p.ell}]")
    lam = hyper_eigenvalue(p, w, j)
    members = find_collisions(p, lam).members
    pos = members.index((w, j))
    if pos == 0:
        return _principal_column(p, w, j, lam)
    return _orthogonal_complement_column(p, w, j, lam, members[:pos])


def orthogonal_polynomial(p: Params, w: int) -> MatPoly:
    """Degree-w matrix polynomial whose row j is the column eigenfunction (w, j).

    Its leading coefficient is leading_coefficient(p, w), unit lower
    triangular, so the family is linearly independent degree by degree.
    """
    cols = [build_column(p, w, j) for j in range(p.size)]
    coeffs = [tuple(tuple(x for (x,) in col.coeff(m)) for col in cols) for m in range(w + 1)]
    return MatPoly(p.size, coeffs)


def leading_coefficient(p: Params, w: int):
    """Closed-form leading coefficient: row r is kernel_vector(p, w, r)."""
    return tuple(kernel_vector(p, w, r) for r in range(p.size))
