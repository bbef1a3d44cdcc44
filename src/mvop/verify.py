"""Exact verification of every structural identity of the family.

All checks reduce analytic statements about the weight
W(u) = (1-u)^alpha u^beta Z(u) to polynomial or rational identities:
integrals go through the moment matrices of the weight, the symmetry
equations are cleared of the non-polynomial scalar factor, and boundary
limits become vanishing-order comparisons.  A check passes only when the
corresponding exact object is identically zero (or identically positive,
for norms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exact import format_rational
from .matpoly import DiffOp, MatPoly
from .model import (
    Params,
    WeightSpec,
    companion_eigenvalue,
    companion_operator,
    eigenvalue_matrix,
    hyper_eigenvalue,
    hyper_operator,
    inner_product,
    monic_eigenvalue,
    vec_inner_product,
    weight_spec,
)
from .hyper import find_collisions, kernel_vector, leading_coefficient, orthogonal_polynomial

__all__ = [
    "WeightSpec",
    "weight_spec",
    "GramBlock",
    "inner_product",
    "vec_inner_product",
    "gram_block",
    "check_symmetry_reduced",
    "BoundaryReport",
    "check_boundary",
    "check_bilinear_symmetry",
    "check_eigen",
    "check_commute",
    "decompose_in_basis",
    "check_ideal",
    "CheckResult",
    "VerificationReport",
    "run_suite",
]


@dataclass(frozen=True)
class GramBlock:
    """Pairing of the degree-w and degree-w_prime families; zero off the diagonal."""

    w: int
    w_prime: int
    entries: tuple

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "w_prime": self.w_prime,
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }


def gram_block(p: Params, w: int, w_prime: int) -> GramBlock:
    ws = weight_spec(p)
    block = inner_product(orthogonal_polynomial(p, w), orthogonal_polynomial(p, w_prime), ws)
    return GramBlock(w, w_prime, block)


def _conv(s, t):
    out = [Fraction(0)] * (len(s) + len(t) - 1)
    for a, x in enumerate(s):
        for b, y in enumerate(t):
            out[a + b] += x * y
    return out


def check_symmetry_reduced(ws: WeightSpec, op: DiffOp):
    """Three polynomial residuals equivalent to the symmetry equations.

    With W = rho Z, rho = (1-u)^alpha u^beta, the equations
        A2^T W = W A2
        A1^T W = -W A1 + 2 (W A2)'
        A0^T W = W A0 - (W A1)' + (W A2)''
    divide by rho and clear denominators with u^2 (1-u)^2, using
    rho'/rho = h / (u(1-u)) with h = beta (1-u) - alpha u.  The operator is
    symmetric for the weight exactly when all three residuals vanish.
    """
    if op.order != 2:
        raise ValueError("operator must have order 2")
    p = ws.params
    z = ws.core
    a2 = op.coeff_of_order(2)
    a1 = op.coeff_of_order(1)
    a0 = op.coeff_of_order(0)
    alpha, beta = p.alpha, p.beta

    uu = [Fraction(0), Fraction(1), Fraction(-1)]
    h = [beta, -alpha - beta]
    uu2 = _conv(uu, uu)
    uuh = _conv(uu, h)
    # u^2 (1-u)^2 (rho''/rho) = h^2 - beta (1-u)^2 - alpha u^2
    rho2 = [x + y for x, y in zip(_conv(h, h), [-beta, 2 * beta, -beta - alpha])]

    za2 = z * a2
    za1 = z * a1
    dza2 = za2.derivative()

    r1 = (a2.transpose() * z - z * a2).mul_scalar_poly(uu2)
    r2 = (a1.transpose() * z + z * a1 - 2 * dza2).mul_scalar_poly(uu2) - za2.mul_scalar_poly(
        [2 * x for x in uuh]
    )
    r3 = (
        (a0.transpose() * z - z * a0 + za1.derivative() - dza2.derivative()).mul_scalar_poly(uu2)
        + za1.mul_scalar_poly(uuh)
        - za2.mul_scalar_poly(rho2)
        - dza2.mul_scalar_poly([2 * x for x in uuh])
    )
    return r1, r2, r3


@dataclass(frozen=True)
class BoundaryEntry:
    block: str
    row: int
    col: int
    order_at_zero: int | None
    order_at_one: int | None
    ok: bool


@dataclass(frozen=True)
class BoundaryReport:
    passed: bool
    entries: tuple


def _order_at_one(coeffs) -> int:
    work = list(coeffs)
    mult = 0
    while work and sum(work) == 0:
        # divide by (1 - u): quotient coefficients are prefix sums
        pref = []
        run = Fraction(0)
        for c in work[:-1]:
            run += c
            pref.append(run)
        work = pref
        while work and work[-1] == 0:
            work.pop()
        mult += 1
    return mult


def check_boundary(ws: WeightSpec, op: DiffOp) -> BoundaryReport:
    """Vanishing of W A2 and of W A1 - A1^T W at both endpoints.

    An entry q of Z A2 or Z A1 - A1^T Z satisfies the limit at u = 0 exactly
    when ord_0(q) + beta > 0 and at u = 1 exactly when ord_1(q) + alpha > 0;
    identically zero entries pass vacuously.  Order counting is exact for
    polynomial entries, so each entry verdict is sharp.
    """
    if op.order != 2:
        raise ValueError("operator must have order 2")
    z = ws.core
    a2 = op.coeff_of_order(2)
    a1 = op.coeff_of_order(1)
    alpha, beta = ws.params.alpha, ws.params.beta
    blocks = (
        ("second_order", z * a2),
        ("first_order_skew", z * a1 - a1.transpose() * z),
    )
    entries = []
    passed = True
    for name, mp in blocks:
        for i in range(mp.dim):
            for j in range(mp.dim):
                q = mp.entry(i, j)
                if not q:
                    entries.append(BoundaryEntry(name, i, j, None, None, True))
                    continue
                ord0 = next(m for m, c in enumerate(q) if c != 0)
                ord1 = _order_at_one(q)
                ok = ord0 + beta > 0 and ord1 + alpha > 0
                passed = passed and ok
                entries.append(BoundaryEntry(name, i, j, ord0, ord1, ok))
    return BoundaryReport(passed, tuple(entries))


def check_bilinear_symmetry(ws: WeightSpec, op: DiffOp, max_power: int = 4) -> bool:
    """Test <op P, Q> = <P, op Q> on all matrix polynomials of degree <= max_power.

    The operator acts column by column and <P, Q> = integral of P^T W Q pairs
    columns, so the bilinear defect vanishes exactly when the Gram matrix
    G[(a, r), (b, t)] = <op(u^a e_r), u^b e_t> of the vector monomials is
    symmetric.  With X_a = op(u^a I), G[(a, r), (b, t)] is entry (r, t) of the
    block S[a][b] = sum_c (X_a)_c^T H_{c+b}, so the test is
    S[a][b] == S[b][a]^T.
    """
    dim = ws.core.dim
    eye = linalg.identity(dim)
    powers = range(max_power + 1)
    images = [[linalg.transpose(c) for c in op.apply(MatPoly.monomial(dim, eye, a)).coeffs] for a in powers]

    def block(xts, b: int):
        total = linalg.zeros(dim)
        for c, xt in enumerate(xts):
            total = linalg.add(total, linalg.matmul(xt, ws.moment(c + b)))
        return total

    s = [[block(xts, b) for b in powers] for xts in images]
    return all(s[a][b] == linalg.transpose(s[b][a]) for a in powers for b in range(a + 1))


def check_eigen(p: Params, w: int) -> bool:
    """Both operators act on the transposed degree-w family by right
    multiplication with their diagonal eigenvalue matrices."""
    pt = orthogonal_polynomial(p, w).transpose()
    for op, which in ((hyper_operator(p), "hyper"), (companion_operator(p), "companion")):
        expected = pt * MatPoly.constant(eigenvalue_matrix(p, w, which))
        if op.apply(pt) != expected:
            return False
    return True


def check_commute(p: Params) -> bool:
    """The two operators commute as an exact operator identity."""
    d = hyper_operator(p)
    e = companion_operator(p)
    return (d.compose(e) - e.compose(d)).is_zero()


def decompose_in_basis(h: MatPoly, p: Params) -> list:
    """Unique constant matrices A_j with h = sum_j transpose(family_j) A_j.

    Peels degrees from the top: the leading coefficient of each transposed
    family member is unit upper triangular, hence invertible.  The final
    residual must vanish exactly.
    """
    if h.dim != p.size or h.cols != p.size:
        raise ValueError("h must be a square MatPoly of the family's size")
    if h.is_zero():
        return []
    n = h.degree
    out = [linalg.zeros(p.size)] * (n + 1)
    residual = h
    for d in range(n, -1, -1):
        pt = orthogonal_polynomial(p, d).transpose()
        coeff = residual.coeff(d)
        if linalg.is_zero_matrix(coeff):
            continue
        a_d = linalg.solve_matrix(pt.leading(), coeff)
        out[d] = a_d
        residual = residual - pt * MatPoly.constant(a_d)
        if residual.degree >= d:
            raise ArithmeticError(f"residual keeps degree {d} after peeling")
    if not residual.is_zero():
        raise ArithmeticError("nonzero residual after peeling every degree")
    return out


@dataclass(frozen=True)
class IdealReport:
    passed: bool
    coincidences: tuple


def check_ideal(p: Params, w_max: int) -> IdealReport:
    """Each eigenvalue pair satisfies its affine line:
    mu - (alpha - ell + 3j) lambda + 3j (ell - j + k)(j + alpha + beta - k + 1) = 0.

    Cross lines are also sampled: slots landing on a line of a different
    index are reported as coincidences, not failures.
    """
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    slopes = [a - ell + 3 * j for j in range(p.size)]
    offsets = [3 * j * (ell - j + k) * (j + a + b - k + 1) for j in range(p.size)]
    passed = True
    coincidences = []
    for w in range(w_max + 1):
        for j in range(p.size):
            lam = hyper_eigenvalue(p, w, j)
            mu = companion_eigenvalue(p, w, j)
            if mu - slopes[j] * lam + offsets[j] != 0:
                passed = False
            for i in range(p.size):
                if i != j and mu - slopes[i] * lam + offsets[i] == 0:
                    coincidences.append((w, j, i))
    return IdealReport(passed, tuple(coincidences))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witness: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerificationReport:
    params: Params
    max_w: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "max_w": self.max_w,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def _result(name: str, thunk) -> CheckResult:
    try:
        ok, witness = thunk()
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(name, "fail", f"error: {type(exc).__name__}: {exc}")
    if ok:
        return CheckResult(name, "pass")
    return CheckResult(name, "fail", witness)


def _zero_residuals(ws, op):
    r1, r2, r3 = check_symmetry_reduced(ws, op)
    bad = [i + 1 for i, r in enumerate((r1, r2, r3)) if not r.is_zero()]
    return not bad, f"nonzero residuals: {bad}" if bad else None


def _relation_scalars(p: Params, w: int):
    shift = p.alpha + 2 * p.ell + 3 * p.k + 3 * w
    offset = 3 * w * (p.ell + p.k + w) * (w + p.alpha + p.beta + p.ell + 1)
    return shift, offset


def run_suite(p: Params, max_w: int = 6) -> VerificationReport:
    """Run every verification for the given parameters, in a fixed order."""
    if max_w < 0:
        raise ValueError("max_w must be >= 0")
    ws = weight_spec(p)
    d = hyper_operator(p)
    e = companion_operator(p)
    eig_span = max(max_w, 20)

    def boundary(op):
        def thunk():
            report = check_boundary(ws, op)
            bad = [f"{x.block}[{x.row}][{x.col}]" for x in report.entries if not x.ok]
            return report.passed, f"failing entries: {bad}" if bad else None

        return thunk

    def gram_pair(w, wp):
        def thunk():
            block = gram_block(p, w, wp).entries
            return linalg.is_zero_matrix(block), f"nonzero block at ({w}, {wp})"

        return thunk

    def norms():
        # each block <P_w, P_w> must be diagonal with positive diagonal
        for w in range(max_w + 1):
            for i, row in enumerate(gram_block(p, w, w).entries):
                for j, x in enumerate(row):
                    if (x <= 0 if i == j else x != 0):
                        return False, f"norm block entry (w, i, j) = ({w}, {i}, {j}) is {format_rational(x)}"
        return True, None

    def eigen(w):
        return lambda: (check_eigen(p, w), f"eigenfunction identity fails at w = {w}")

    def leading(w):
        def thunk():
            built = orthogonal_polynomial(p, w).leading()
            return built == leading_coefficient(p, w), f"leading coefficient differs at w = {w}"

        return thunk

    def eigen_relation():
        for w in range(eig_span + 1):
            shift, offset = _relation_scalars(p, w)
            lhs = eigenvalue_matrix(p, w, "companion")
            rhs = linalg.add(
                linalg.scale(eigenvalue_matrix(p, w, "hyper"), shift),
                linalg.scale(linalg.identity(p.size), offset),
            )
            if lhs != rhs:
                return False, f"eigenvalue relation fails at w = {w}"
        return True, None

    def monic_relation():
        for n in range(eig_span + 1):
            shift, offset = _relation_scalars(p, n)
            lhs = monic_eigenvalue(e, n)
            rhs = linalg.add(
                linalg.scale(monic_eigenvalue(d, n), shift),
                linalg.scale(linalg.identity(p.size), offset),
            )
            if lhs != rhs:
                return False, f"monic eigenvalue relation fails at n = {n}"
        return True, None

    def ideal():
        report = check_ideal(p, eig_span)
        return report.passed, "eigenvalue pair off its line"

    def collisions():
        seen = set()
        for w in range(max_w + 1):
            for j in range(p.size):
                lam = hyper_eigenvalue(p, w, j)
                if lam in seen:
                    continue
                seen.add(lam)
                members = find_collisions(p, lam).members
                if (w, j) not in members:
                    return False, f"slot ({w}, {j}) missing from its class"
        return True, None

    def decomposition():
        rng = random.Random(2024)
        top = min(5, max_w)
        for _ in range(10):
            degree = rng.randint(0, top)
            coeffs = [
                [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(p.size)]
                    for _ in range(p.size)
                ]
                for _ in range(degree + 1)
            ]
            h = MatPoly(p.size, coeffs)
            parts = decompose_in_basis(h, p)
            rebuilt = MatPoly.zero(p.size)
            for dd, a_d in enumerate(parts):
                rebuilt = rebuilt + orthogonal_polynomial(p, dd).transpose() * MatPoly.constant(a_d)
            if rebuilt != h:
                return False, "reconstruction mismatch"
        return True, None

    named = [
        ("symmetry_reduced_hyper", lambda: _zero_residuals(ws, d)),
        ("symmetry_reduced_companion", lambda: _zero_residuals(ws, e)),
        ("boundary_hyper", boundary(d)),
        ("boundary_companion", boundary(e)),
        ("bilinear_symmetry_hyper", lambda: (check_bilinear_symmetry(ws, d), "defect on monomials")),
        (
            "bilinear_symmetry_companion",
            lambda: (check_bilinear_symmetry(ws, e), "defect on monomials"),
        ),
        ("commutation", lambda: (check_commute(p), "nonzero commutator")),
    ]
    named += [(f"eigenfunctions_w{w}", eigen(w)) for w in range(max_w + 1)]
    named += [(f"leading_coefficient_w{w}", leading(w)) for w in range(max_w + 1)]
    named += [
        (f"gram_zero_w{w}_w{wp}", gram_pair(w, wp))
        for w in range(max_w + 1)
        for wp in range(w + 1, max_w + 1)
    ]
    named += [
        ("gram_norms_positive", norms),
        ("eigenvalue_relation", eigen_relation),
        ("monic_eigenvalue_relation", monic_relation),
        ("ideal_lines", ideal),
        ("collision_classes", collisions),
        ("decomposition_random", decomposition),
    ]

    results = [_result(name, thunk) for name, thunk in named]
    return VerificationReport(p, max_w, tuple(results))
