"""Exact verification of every structural identity of the family.

All checks reduce analytic statements about the weight
W(u) = (1-u)^alpha u^beta Z(u) to polynomial or rational identities:
integrals go through the moments of the weight's scalar factor, the symmetry
equations are cleared of the non-polynomial scalar factor, and boundary
limits become vanishing-order comparisons.  A check passes only when the
corresponding exact object is identically zero (or identically positive,
for norms).  Symmetry of an operator for the weight is one criterion and one
check, check_symmetry: the three reduced equations hold and the boundary
terms vanish.  Verdicts are decided on integer numerators, cross-multiplied
where two denominators meet; the relation, Gram, boundary, bilinear and
leading-coefficient checks build a Fraction only to write a witness.
GramBlock and gram_block are re-exported from hyper.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import linalg
from .exact import _check_bound
from .matpoly import DiffOp, MatPoly
from .model import Params, WeightSpec, _cleared, _slot, monic_matrix, pair_rows, slot_table
from .hyper import GramBlock, family, find_collisions, gram_block, kernel_matrix

__all__ = [
    "WeightSpec",
    "GramBlock",
    "gram_block",
    "check_symmetry",
    "BoundaryReport",
    "check_bilinear_symmetry",
    "check_eigen",
    "check_commute",
    "decompose_in_basis",
    "check_ideal",
    "CheckResult",
    "VerificationReport",
    "run_suite",
]


class BoundaryEntry(namedtuple("BoundaryEntry", "block row col order_at_zero order_at_one ok")):
    __slots__ = ()


class BoundaryReport(namedtuple("BoundaryReport", "passed entries")):
    __slots__ = ()


def check_symmetry(ws: WeightSpec, op: DiffOp) -> tuple:
    """Symmetry of an order-2 op (else ValueError) for the weight, as the pair
    (residuals, report): it is symmetric exactly when the three residuals vanish
    and the report passes.  Z A2, Z A1 and Z A0 are each formed once, and
    weight_core is symmetric by construction, so A^T Z = (Z A)^T.

    Residuals: with W = rho Z, rho = (1-u)^alpha u^beta, the equations
        A2^T W = W A2
        A1^T W = -W A1 + 2 (W A2)'
        A0^T W = W A0 - (W A1)' + (W A2)''
    divide by rho and clear denominators with u^2 (1-u)^2: c_n = u^2 (1-u)^2 rho^(n) / rho is
    c0 = u^2 (1-u)^2, c1 = u (1-u) h and c2 = h^2 - beta (1-u)^2 - alpha u^2, h = beta - (alpha + beta) u.

    Report: the vanishing of W A2 and of W A1 - A1^T W at both endpoints.  An
    entry q of Z A2 or Z A1 - A1^T Z satisfies the limit at u = 0 exactly when
    ord_0(q) + beta > 0 and at u = 1 exactly when ord_1(q) + alpha > 0;
    identically zero entries pass vacuously.  Order counting is exact for
    polynomial entries, so each entry verdict is sharp.  It reads q's integer
    numerators, and alpha and beta over d as in model._cleared.
    """
    if op.order != 2:
        raise ValueError("operator must have order 2")
    za2, za1, za0 = (ws.core * op.coeff_of_order(j) for j in (2, 1, 0))
    d, ad, bd, _ = _cleared(ws.params)  # alpha d and beta d, for the report
    dim, a, b = za2.dim, ws.params.alpha, ws.params.beta
    c0 = MatPoly.from_scalar(dim, (0, 0, 1, -2, 1))
    c1 = MatPoly.from_scalar(dim, (0, b, -a - 2 * b, a + b))
    c2 = MatPoly.from_scalar(dim, (b * b - b, 2 * b * (1 - a - b), (a + b) ** 2 - a - b))
    dza2 = za2.derivative()
    mid = za1 - 2 * dza2  # Z A1 - 2 (Z A2)', the c1 term of r3 and the c0 term of r2 less A1^T Z

    r1 = (za2.transpose() - za2) * c0
    r2 = (za1.transpose() + mid) * c0 - 2 * za2 * c1
    r3 = (za0.transpose() - za0 + za1.derivative() - dza2.derivative()) * c0 + mid * c1 - za2 * c2

    entries = []
    for name, mp in (("second_order", za2), ("first_order_skew", za1 - za1.transpose())):
        for i in range(dim):
            for j in range(dim):
                q = [c[i][j] for c in mp.num]
                if not any(q):
                    entries.append(BoundaryEntry(name, i, j, None, None, True))
                    continue
                ord0 = next(m for m, c in enumerate(q) if c)
                # ord_1(q) is the least m with q^(m)(1) = sum_t perm(t, m) q_t nonzero
                ord1 = next(m for m in range(len(q)) if sum(math.perm(t, m) * c for t, c in enumerate(q)))
                entries.append(BoundaryEntry(name, i, j, ord0, ord1, ord0 * d + bd > 0 and ord1 * d + ad > 0))
    return (r1, r2, r3), BoundaryReport(all(x.ok for x in entries), tuple(entries))


def check_bilinear_symmetry(ws: WeightSpec, op: DiffOp, max_power: int = 4) -> bool:
    """Test <op P, Q> = <P, op Q> on all matrix polynomials of degree <= max_power,
    for degree-bounded operators only (deg A_i <= i, else ValueError); one of
    higher coefficient degree can pass on these monomials and not be symmetric.
    Symmetry itself is decided by check_symmetry.
    max_power = 4 is a sample: at every order-2 point tried, degree
    order + 1 = 3 already decided symmetry among degree-bounded operators.

    As op acts column by column, the bilinear defect vanishes exactly when
    G[(a, r), (b, t)] = <op(u^a e_r), u^b e_t> is symmetric.  That is entry
    (r, t) of S[a][b] = sum_c (X_a)_c^T H_{c+b}, X_a = op(u^a I), with H_m the
    integrals of u^m Z from WeightSpec.integrals: the moment rows of u^b I.
    So the test is S[a][b] == S[b][a]^T, on integer numerators.
    """
    _check_bound("max_power", max_power)
    if not op.is_degree_bounded():
        raise ValueError("coefficient degrees must not exceed the derivative order")
    dim = ws.core.dim
    powers = range(max_power + 1)
    images = [op.apply(MatPoly.from_scalar(dim, (0,) * a + (1,))).transpose() for a in powers]
    n = max(len(x.num) for x in images)
    hs, den = ws.integrals(ws.core, max_power + n)
    scale = math.lcm(*(x.den for x in images))  # every S[a][b] over den alone
    s = [[pair_rows(x, hs[b : b + n], den, dim)[0] for b in powers] for x in (y * scale for y in images)]
    return all(s[a][b] == linalg.transpose(s[b][a]) for a in powers for b in range(a + 1))


def check_eigen(p: Params, w: int) -> bool:
    """Both operators act on the transposed degree-w family by right
    multiplication with their diagonal eigenvalue matrices: each scales
    column j by its eigenvalue at slot (w, j), read from _slot as the integer
    numerators lambda d and mu d^2."""
    fam = family(p)
    pt = fam.poly(w).transpose()
    cleared = _cleared(p)
    d = cleared[0]
    lams, mus = zip(*(_slot(p, w, j, cleared) for j in range(p.size)))
    for op, scale, den in ((fam.hyper, lams, d), (fam.companion, mus, d * d)):
        num = [tuple(tuple(x * s for x, s in zip(row, scale)) for row in c) for c in pt.num]
        if op.apply(pt) != MatPoly._reduced(p.size, p.size, num, pt.den * den):
            return False
    return True


def check_commute(p: Params) -> bool:
    """The two operators commute: both products have order 4 and reduced forms are unique, so == is exact."""
    fam = family(p)
    return fam.hyper.compose(fam.companion) == fam.companion.compose(fam.hyper)


def _unit_upper_solve(pt: MatPoly, residual: MatPoly, d: int) -> MatPoly:
    """The constant A with U A = R, U and R the degree-d coefficients of pt and
    residual, for U unit upper triangular: back-substitution, row r of A being
    R[r] - sum_{c > r} U[r][c] A[c].  It runs on integers: with U = u / e and
    R = b / f, row r of A is y[r] / (f e^(n-1-r)) for
    y[r] = b[r] e^(n-1-r) - sum_{c > r} u[r][c] e^(c-r-1) y[c], so nothing is
    divided.  The diagonal of U and the entries below it are never read."""
    (u, e), (b, f) = (pt.num[d], pt.den), (residual.num[d], residual.den)
    n, powers = len(u), [e**i for i in range(len(u))]
    y = [()] * n
    for r in range(n - 1, -1, -1):
        y[r] = tuple(
            x * powers[n - 1 - r] - sum(u[r][c] * powers[c - r - 1] * y[c][k] for c in range(r + 1, n))
            for k, x in enumerate(b[r])
        )
    num = tuple(tuple(x * powers[r] for x in row) for r, row in enumerate(y))
    return MatPoly._reduced(n, residual.cols, (num,), f * powers[n - 1])


def decompose_in_basis(h: MatPoly, p: Params) -> list:
    """Unique constant matrices A_j with h = sum_j transpose(family_j) A_j.

    Peels degrees from the top: A_d solves lc(P_d)^T A_d = the residual's degree-d coefficient by
    _unit_upper_solve, which never reads the diagonal of lc(P_d)^T or the entries below it.  So every
    peel is exact when lc(P_d) is unit lower triangular, as leading_coefficient_w decides, and a random h
    fails otherwise: decomposition_random confirms that fact on a sample, through a second code path.
    Each peel must lower the residual's degree and the final residual must vanish exactly (else
    ArithmeticError), which certifies every part.
    """
    if h.dim != p.size or h.cols != p.size:
        raise ValueError("h must be a square MatPoly of the family's size")
    if h.is_zero():
        return []
    fam = family(p)
    n = h.degree
    out = [linalg.zeros(p.size)] * (n + 1)
    residual = h
    for d in range(n, -1, -1):
        if residual.degree < d:
            continue
        pt = fam.poly(d).transpose()
        a_d = _unit_upper_solve(pt, residual, d)
        out[d] = a_d.coeff(0)
        residual = residual - pt * a_d
        if residual.degree >= d:
            raise ArithmeticError(f"residual keeps degree {d} after peeling")
    if not residual.is_zero():
        raise ArithmeticError("nonzero residual after peeling every degree")
    return out


def _off_line(p: Params, w_max: int):
    """The first slot (w, j) of slot_table(p, w_max) off its affine line, or None.  The line, times d^2 on
    lambda d and mu d^2: mu - (alpha - ell + 3j) lambda + 3j (ell - j + k)(j + alpha + beta - k + 1) = 0."""
    d, a, b, k = _cleared(p)
    for w, j, lam, mu in slot_table(p, w_max):
        if mu - (a + (3 * j - p.ell) * d) * lam + 3 * j * ((p.ell - j) * d + k) * (a + b - k + (j + 1) * d):
            return w, j
    return None


def check_ideal(p: Params, w_max: int) -> bool:
    """Each eigenvalue pair up to degree w_max satisfies its affine line (see _off_line)."""
    _check_bound("w_max", w_max)
    return _off_line(p, w_max) is None


class CheckResult(namedtuple("CheckResult", "name status witness", defaults=(None,))):
    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerificationReport(namedtuple("VerificationReport", "params max_w checks")):
    __slots__ = ()

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


def run_suite(p: Params, max_w: int = 6) -> VerificationReport:
    """Run every check for p in a fixed order.  Every degree: symmetry_reduced_*, boundary_*, commutation
    and the three eigenvalue relations (decided from degrees 0 to 3).  Up to max_w: eigenfunctions, leading
    coefficients, Gram and collision checks.  A sample: bilinear_symmetry_* and decomposition_random.
    symmetry_reduced_* and boundary_* of one operator read one check_symmetry of it, run in the first of the
    two: its time, the boundary order counting included, lands in symmetry_reduced_*, and boundary_* only reads."""
    _check_bound("max_w", max_w)
    fam = family(p)
    ws, d, e = fam.weight, fam.hyper, fam.companion
    den, a, b, k = _cleared(p)  # the relations compare numerators over den
    ops, symmetry = {"hyper": d, "companion": e}, {}

    def symmetric(name):
        if name not in symmetry:
            symmetry[name] = check_symmetry(ws, ops[name])
        return symmetry[name]

    def residuals(name):
        bad = [i + 1 for i, r in enumerate(symmetric(name)[0]) if not r.is_zero()]
        return not bad, f"nonzero residuals: {bad}" if bad else None

    def boundary(name):
        report = symmetric(name)[1]
        bad = [f"{x.block}[{x.row}][{x.col}]" for x in report.entries if not x.ok]
        return report.passed, f"failing entries: {bad}" if bad else None

    def gram_pair(w, wp):
        block, scale = fam.gram_num(w, wp)
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if x:  # a Fraction prints as format_rational writes it
                    return False, f"nonzero block at ({w}, {wp}): entry ({i}, {j}) is {Fraction(x, scale)}"
        return True, None

    def norms():
        # each block <P_w, P_w> must be diagonal with positive diagonal
        for w in range(max_w + 1):
            block, scale = fam.gram_num(w, w)
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    if (x <= 0 if i == j else x):
                        return False, f"norm block entry (w, i, j) = ({w}, {i}, {j}) is {Fraction(x, scale)}"
        return True, None

    def eigen(w):
        return check_eigen(p, w), f"eigenfunction identity fails at w = {w}"

    def leading(w):
        # P_w's top coefficient and the closed form, both reduced integers over one denominator
        top = MatPoly._reduced(p.size, p.size, fam.poly(w).num[-1:], fam.poly(w).den)
        return top == kernel_matrix(p, w), f"leading coefficient differs at w = {w}"

    def line(n):
        # E = shift * D + offset * I on the degree-n eigenvalues of both families, as shift den and offset den^2.
        # Each relation is a cubic in the degree: _slot's lambda d and mu d^2 and monic_matrix (deg A_i <= i <= 2)
        # are quadratic, shift linear, offset cubic; a nonzero cubic has 3 roots at most, so n = 0..3 decide all n.
        shift = a + 3 * k + (2 * p.ell + 3 * n) * den
        return shift, 3 * n * ((p.ell + n) * den + k) * ((n + p.ell + 1) * den + a + b)

    def eigenvalue_relation():
        # the diagonal eigenvalue matrices are 0 = shift * 0 off the diagonal,
        # so the relation holds there exactly when it holds slot by slot
        for w, _, lam, mu in slot_table(p, 3):
            shift, offset = line(w)
            if mu != shift * lam + offset:
                return False, f"eigenvalue relation fails at w = {w}"
        return True, None

    def monic_relation():
        eye = MatPoly.from_scalar(p.size, (1,))
        for n in range(4):
            shift, offset = line(n)
            if monic_matrix(e, n) * (den * den) != monic_matrix(d, n) * (shift * den) + eye * offset:
                return False, f"monic eigenvalue relation fails at n = {n}"
        return True, None

    def ideal_lines():
        slot = _off_line(p, 3)
        return slot is None, f"eigenvalue pair off its line at (w, j) = {slot}"

    def collisions():
        classes = {}
        for w, j, lam, _ in slot_table(p, max_w):
            if lam not in classes:
                classes[lam] = find_collisions(p, Fraction(lam, den)).members
            if (w, j) not in classes[lam]:
                return False, f"slot ({w}, {j}) missing from its class"
        return True, None

    def decomposition():
        rng = random.Random(2024)
        top = min(5, max_w)
        for _ in range(10):
            degree = rng.randint(0, top)
            # entries n / d for n in [-4, 4] and d in [1, 3], as numerators over 6
            num = [
                tuple(tuple(rng.randint(-4, 4) * (6 // rng.randint(1, 3)) for _ in range(p.size)) for _ in range(p.size))
                for _ in range(degree + 1)
            ]
            try:
                # raises unless h minus every peeled P_d^T A_d leaves zero
                decompose_in_basis(MatPoly._reduced(p.size, p.size, num, 6), p)
            except ArithmeticError:
                return False, "reconstruction mismatch"
        return True, None

    named = [(f"symmetry_reduced_{name}", partial(residuals, name)) for name in ops]
    named += [(f"boundary_{name}", partial(boundary, name)) for name in ops]
    named += [
        ("bilinear_symmetry_hyper", lambda: (check_bilinear_symmetry(ws, d), "defect on monomials")),
        ("bilinear_symmetry_companion", lambda: (check_bilinear_symmetry(ws, e), "defect on monomials")),
        ("commutation", lambda: (check_commute(p), "nonzero commutator")),
    ]
    degrees = range(max_w + 1)
    named += [(f"eigenfunctions_w{w}", partial(eigen, w)) for w in degrees]
    named += [(f"leading_coefficient_w{w}", partial(leading, w)) for w in degrees]
    named += [(f"gram_zero_w{w}_w{wp}", partial(gram_pair, w, wp)) for w in degrees for wp in degrees[w + 1 :]]
    named += [
        ("gram_norms_positive", norms),
        ("eigenvalue_relation", eigenvalue_relation),
        ("monic_eigenvalue_relation", monic_relation),
        ("ideal_lines", ideal_lines),
        ("collision_classes", collisions),
        ("decomposition_random", decomposition),
    ]

    results = [_result(name, thunk) for name, thunk in named]
    return VerificationReport(p, max_w, tuple(results))
