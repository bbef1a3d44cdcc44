"""Reference arithmetic in Fraction, one entry at a time.

These are the operations MatPoly and DiffOp ran entry by entry on Fraction
coefficients before they moved to integer numerators over one denominator;
the property tests hold the integer layer to them.  A polynomial is a tuple
of coefficient matrices (tuples of row tuples) by ascending power, trailing
zero matrices trimmed; an operator is a list of polynomials by ascending
derivative order.

The slot eigenvalues and find_collisions at the end are the library's
Fraction versions from before each became one integer computation; the
oracle tests hold the integer forms to them.
"""

import math
from fractions import Fraction

from mvop.exact import _check_bound, exact_scalar
from mvop.hyper import CollisionClass
from mvop.model import Params, _check_j


def trim(cs) -> tuple:
    cs = [tuple(tuple(Fraction(x) for x in row) for row in c) for c in cs]
    while cs and all(x == 0 for row in cs[-1] for x in row):
        cs.pop()
    return tuple(cs)


def add(p, q) -> tuple:
    out = []
    for m in range(max(len(p), len(q))):
        if m >= len(p):
            out.append(q[m])
        elif m >= len(q):
            out.append(p[m])
        else:
            out.append(tuple(tuple(x + y for x, y in zip(rp, rq)) for rp, rq in zip(p[m], q[m])))
    return trim(out)


def scale(p, s) -> tuple:
    return trim([tuple(tuple(s * x for x in row) for row in c) for c in p])


def neg(p) -> tuple:
    return scale(p, -1)


def sub(p, q) -> tuple:
    return add(p, neg(q))


def derivative(p) -> tuple:
    return trim([tuple(tuple(m * x for x in row) for row in c) for m, c in enumerate(p) if m >= 1])


def transpose(p) -> tuple:
    return tuple(tuple(zip(*c)) for c in p)


def mul(p, q) -> tuple:
    if not p or not q:
        return ()
    rows, inner, cols = len(p[0]), len(q[0]), len(q[0][0])
    out = [[[Fraction(0)] * cols for _ in range(rows)] for _ in range(len(p) + len(q) - 1)]
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            for i in range(rows):
                for j in range(cols):
                    for t in range(inner):
                        out[a + b][i][j] += pa[i][t] * qb[t][j]
    return trim(out)


def mul_scalar_poly(p, s) -> tuple:
    """p times the scalar polynomial with ascending coefficients s."""
    if not p:
        return ()
    zero = tuple(tuple(Fraction(0) for _ in row) for row in p[0])
    out = ()
    for k, c in enumerate(s):
        out = add(out, scale((zero,) * k + tuple(p), c))
    return out


def apply(op, f) -> tuple:
    """sum_j A_j f^(j)."""
    out, g = (), f
    for a in op:
        out = add(out, mul(a, g))
        g = derivative(g)
    return out


def compose(op1, op2) -> list:
    """The Leibniz expansion: C(i, m) A_i B_j^(m) at order i + j - m."""
    acc = [()] * (len(op1) + len(op2) - 1)
    for i, a in enumerate(op1):
        for j, b in enumerate(op2):
            for m in range(i + 1):
                acc[i + j - m] = add(acc[i + j - m], scale(mul(a, b), math.comb(i, m)))
                b = derivative(b)
    return acc


def hyper_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the hypergeometric operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1) - j(alpha + beta - k + 1 + j)."""
    _check_bound("w", w)
    _check_j(p, j)
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    return -w * (w + a + b + ell + j + 1) - j * (a + b - k + 1 + j)


def companion_eigenvalue(p: Params, w: int, j: int) -> Fraction:
    """Eigenvalue of the companion operator on the (w, j) eigenfunction:
    -w(w + alpha + beta + ell + j + 1)(alpha - ell + 3j)
    - j(j + alpha + beta - k + 1)(alpha + 2 ell + 3k)."""
    _check_bound("w", w)
    _check_j(p, j)
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    return -w * (w + a + b + ell + j + 1) * (a - ell + 3 * j) - j * (j + a + b - k + 1) * (
        a + 2 * ell + 3 * k
    )


def find_collisions(p: Params, lam) -> CollisionClass:
    """Complete list of slots (w', j') with hyper_eigenvalue equal to lam.

    For fixed j', hyper_eigenvalue(p, w', j') = lam is the quadratic
    w'^2 + b w' + c = 0 with b = alpha + beta + ell + j' + 1 > 0 and
    c = lam + j'(alpha + beta - k + 1 + j').  Its roots sum to -b < 0, so only
    (sqrt(b^2 - 4c) - b)/2 can be a non-negative integer, and only when the
    discriminant is the square of a rational.
    """
    lam = exact_scalar(lam)
    a, b, k = p.alpha, p.beta, p.k
    members = []
    for jp in range(p.size):
        lin = a + b + p.ell + jp + 1
        disc = lin * lin - 4 * (lam + jp * (a + b - k + 1 + jp))
        if disc < 0:
            continue
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num != disc.numerator or den * den != disc.denominator:
            continue
        root = (Fraction(num, den) - lin) / 2
        if root < 0 or root.denominator != 1:
            continue
        w = int(root)
        if hyper_eigenvalue(p, w, jp) != lam:
            raise ArithmeticError(f"quadratic root w = {w} at j = {jp} does not reproduce lam")
        members.append((w, jp))
    members.sort()
    for (w1, j1), (w2, j2) in zip(members, members[1:]):
        if not (w2 > w1 and j1 >= j2 + 2):
            raise ArithmeticError("repeated-eigenvalue structure violated")
    return CollisionClass(lam, tuple(members))
