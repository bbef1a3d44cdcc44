"""Reference arithmetic in Fraction, one entry at a time.

These are the operations MatPoly and DiffOp ran entry by entry on Fraction
coefficients before they moved to integer numerators over one denominator;
the property tests hold the integer layer to them.  A polynomial is a tuple
of coefficient matrices (tuples of row tuples) by ascending power, trailing
zero matrices trimmed; an operator is a list of polynomials by ascending
derivative order.  The Fraction matrix helpers, the rising factorial, the
generalized binomial and evaluation at a point left the library once only
these references used them.

The weight core, both operators and their closed-form matrices, the slot
eigenvalues and find_collisions are the library's Fraction versions from
before each became one integer computation; the oracle tests hold the
integer forms to them.  The run_suite decisions at the end are the
Fraction forms of the checks that now compare integer numerators: verdicts
gives each one's verdict by check name.
"""

import math
from fractions import Fraction

from mvop import linalg
from mvop.exact import _check_bound, exact_scalar
from mvop.hyper import CollisionClass
from mvop.matpoly import MatPoly
from mvop.model import Params, _check_j, moment_rows


def poch(z, r: int) -> Fraction:
    """Rising factorial z(z+1)...(z+r-1); the empty product is 1."""
    _check_bound("r", r)
    z = exact_scalar(z)
    return math.prod((z + i for i in range(r)), start=Fraction(1))


def gen_binom(z, r: int) -> Fraction:
    """Binomial coefficient with a rational upper argument: poch(z - r + 1, r) / r!."""
    _check_bound("r", r)
    return poch(exact_scalar(z) - r + 1, r) / math.factorial(r)


def diagonal(entries) -> tuple:
    """Square Fraction matrix with the given diagonal."""
    entries = [Fraction(x) for x in entries]
    zero = (Fraction(0),) * len(entries)
    return tuple(zero[:i] + (x,) + zero[i + 1 :] for i, x in enumerate(entries))


def identity(n: int) -> tuple:
    return diagonal([1] * n)


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def mat_scale(a, q) -> tuple:
    return tuple(tuple(q * x for x in row) for row in a)


def evaluate(f: MatPoly, u0) -> tuple:
    """The Fraction matrix f(u0), by Horner's rule."""
    u0 = exact_scalar(u0)
    total = linalg.zeros(f.dim, f.cols)
    for c in reversed(f.coeffs):
        total = mat_add(mat_scale(total, u0), c)
    return total


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


# The weight core and the coefficients of both operators in Fraction, built
# as the library built them before it wrote their numerators on integers: the
# closed-form matrices of the operators one entry at a time and the core
# through gen_binom.


def recursion_matrix(p: Params):
    """C: lower bidiagonal, diagonal beta + 1 + 2i and subdiagonal i."""
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = p.beta + 1 + 2 * i
        if i >= 1:
            m[i][i - 1] = Fraction(i)
    return linalg.freeze_matrix(m)


def drift_matrix(p: Params):
    """U: diagonal, entries alpha + beta + ell + i + 2."""
    return diagonal(p.alpha + p.beta + p.ell + i + 2 for i in range(p.size))


def potential_matrix(p: Params):
    """V: upper bidiagonal, diagonal i(alpha + beta - k + 1 + i) and
    superdiagonal -(ell - i)(beta - k + 1 + i)."""
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = i * (p.alpha + p.beta - p.k + 1 + i)
        if i < p.ell:
            m[i][i + 1] = -(p.ell - i) * (p.beta - p.k + 1 + i)
    return linalg.freeze_matrix(m)


def companion_blocks(p: Params):
    """(Q0, Q1, R0, R1) of the companion operator, entry by entry."""
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


def weight_core(p: Params) -> MatPoly:
    """Z, entry (i, j) the sum over r of C(r, i) C(r, j) C(ell + k - 1 - r, ell - r)
    C(beta - k + r, r) (1-u)^(ell-r) u^(i+j), with generalized binomials."""
    ell = p.ell
    coeffs = [[[Fraction(0)] * p.size for _ in range(p.size)] for _ in range(2 * ell + 1)]
    for r in range(ell + 1):
        scale = gen_binom(ell + p.k - 1 - r, ell - r) * gen_binom(p.beta - p.k + r, r)
        for i in range(r + 1):
            for j in range(r + 1):
                c = math.comb(r, i) * math.comb(r, j) * scale
                for t in range(ell - r + 1):
                    coeffs[i + j + t][i][j] += c * math.comb(ell - r, t) * (-1) ** t
    return MatPoly(p.size, coeffs)


def hyper_coeffs(p: Params) -> tuple:
    """(A2, A1, A0) of u(1-u) d^2/du^2 + (C - u U) d/du - V."""
    a2 = MatPoly(p.size, tuple(diagonal([c] * p.size) for c in (0, 1, -1)))
    a1 = MatPoly(p.size, (recursion_matrix(p), mat_scale(drift_matrix(p), -1)))
    return a2, a1, MatPoly(p.size, (mat_scale(potential_matrix(p), -1),))


def companion_coeffs(p: Params) -> tuple:
    """(A2, A1, A0) of (1-u)(Q0 + u Q1) d^2/du^2 + (R0 + u R1) d/du - (alpha + 2 ell + 3k) V."""
    q0, q1, r0, r1 = companion_blocks(p)
    a2 = MatPoly(p.size, (q0, mat_add(q1, mat_scale(q0, -1)), mat_scale(q1, -1)))
    scalar = p.alpha + 2 * p.ell + 3 * p.k
    a0 = MatPoly(p.size, (mat_scale(potential_matrix(p), -scalar),))
    return a2, MatPoly(p.size, (r0, r1)), a0


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


# The run_suite decisions in Fraction, as they were before they moved to
# integer numerators.


def line(p: Params, n: int) -> tuple:
    """E = shift * D + offset * I on the degree-n eigenvalues of both families."""
    shift = p.alpha + 2 * p.ell + 3 * p.k + 3 * n
    return shift, 3 * n * (p.ell + p.k + n) * (n + p.alpha + p.beta + p.ell + 1)


def eigen_table(p: Params, max_w: int) -> list:
    return [(w, j, hyper_eigenvalue(p, w, j), companion_eigenvalue(p, w, j)) for w in range(max_w + 1) for j in range(p.size)]


def eigenvalue_relation(p: Params, span: int) -> bool:
    return all(mu == shift * lam + offset for w, _, lam, mu in eigen_table(p, span) for shift, offset in [line(p, w)])


def ideal_lines(p: Params, span: int) -> bool:
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    slopes = [a - ell + 3 * j for j in range(p.size)]
    offsets = [3 * j * (ell - j + k) * (j + a + b - k + 1) for j in range(p.size)]
    return all(mu - slopes[j] * lam + offsets[j] == 0 for _, j, lam, mu in eigen_table(p, span))


def monic_eigenvalue(op, n: int) -> list:
    """sum_i [n]_i (u^i coefficient of A_i), from the Fraction coefficients."""
    out = [[Fraction(0)] * op.dim for _ in range(op.dim)]
    for i in range(op.order + 1):
        for r, row in enumerate(op.coeff_of_order(i).coeff(i)):
            for c, x in enumerate(row):
                out[r][c] += math.perm(n, i) * x
    return out


def monic_relation(d, e, p: Params, span: int) -> bool:
    """E's monic eigenvalue matrix is shift * D's + offset * I, entry by entry."""
    for n in range(span + 1):
        shift, offset = line(p, n)
        for r, (d_row, e_row) in enumerate(zip(monic_eigenvalue(d, n), monic_eigenvalue(e, n))):
            want = [shift * x for x in d_row]
            want[r] += offset
            if e_row != want:
                return False
    return True


def kernel_vector(p: Params, w: int, j: int) -> tuple:
    """The closed-form leading coefficient of column (w, j), through poch."""
    x = [Fraction(0)] * p.size
    x[j] = Fraction(1)
    for i in range(j):
        num = poch(p.beta - p.k + 1 + i, j - i)
        den = poch(p.alpha + p.beta + j + i + w - p.k + 1, j - i)
        x[i] = Fraction((-1) ** (i + j)) * math.comb(p.ell - i, p.ell - j) * num / den
    return tuple(x)


def leading(fam, w: int) -> bool:
    f = fam.poly(w)
    return f.coeff(f.degree) == tuple(kernel_vector(fam.params, w, r) for r in range(fam.params.size))


def boundary(ws, op) -> tuple:
    """check_symmetry's boundary report as (passed, entries), with the orders read from each entry's Fractions."""
    z, a2, a1 = ws.core, op.coeff_of_order(2), op.coeff_of_order(1)
    alpha, beta = ws.params.alpha, ws.params.beta
    entries = []
    for name, mp in (("second_order", z * a2), ("first_order_skew", z * a1 - a1.transpose() * z)):
        for i in range(mp.dim):
            for j in range(mp.dim):
                q = [c[i][j] for c in mp.coeffs]
                if not any(q):
                    entries.append((name, i, j, None, None, True))
                    continue
                ord0 = next(m for m, c in enumerate(q) if c != 0)
                ord1 = next(m for m in range(len(q)) if sum(math.perm(t, m) * c for t, c in enumerate(q)))
                entries.append((name, i, j, ord0, ord1, ord0 + beta > 0 and ord1 + alpha > 0))
    return all(x[-1] for x in entries), tuple(entries)


def pair_rows(pp: MatPoly, rows, den: int, cols: int) -> tuple:
    """sum_a pp_a rows[a] / den as Fractions, one division per entry."""
    if pp.is_zero():
        return linalg.zeros(pp.dim, cols)
    left = [[x for c in pp.num for x in c[i]] for i in range(pp.dim)]
    stacked = [row for r in rows[: len(pp.num)] for row in r]
    den *= pp.den
    return tuple(tuple(Fraction(x, den) for x in row) for row in linalg.int_matmul(left, stacked))


def gram(fam, w: int, w_prime: int) -> tuple:
    """The Fraction block <P_w, P_w'>: P_w paired against the moment rows of P_w'."""
    rows, den = moment_rows(fam.poly(w_prime), fam.weight, max(w, w_prime) + 1)
    return pair_rows(fam.poly(w), rows, den, fam.params.size)


def bilinear_symmetry(ws, op, max_power: int = 4) -> bool:
    """S[a][b] == S[b][a]^T, with the rows of u^b I from moment_rows of the
    monomials and each block in Fractions."""
    dim = ws.core.dim
    powers = range(max_power + 1)
    monomials = [MatPoly.from_scalar(dim, (0,) * a + (1,)) for a in powers]
    images = [op.apply(m).transpose() for m in monomials]
    rows = [moment_rows(m, ws, max(len(x.num) for x in images)) for m in monomials]
    s = [[pair_rows(x, *rows[b], dim) for b in powers] for x in images]
    return all(s[a][b] == linalg.transpose(s[b][a]) for a in powers for b in range(a + 1))


def verdicts(fam, max_w: int) -> dict:
    """The Fraction verdict of each run_suite check that decides on integer
    numerators, by check name, for the Family fam."""
    p, ws, span = fam.params, fam.weight, max(max_w, 20)
    out = {}
    for name, op in (("hyper", fam.hyper), ("companion", fam.companion)):
        out[f"boundary_{name}"] = boundary(ws, op)[0]
        out[f"bilinear_symmetry_{name}"] = bilinear_symmetry(ws, op)
    degrees = range(max_w + 1)
    blocks = {(w, wp): gram(fam, w, wp) for w in degrees for wp in degrees if w <= wp}
    for w in degrees:
        out[f"leading_coefficient_w{w}"] = leading(fam, w)
    for w, wp in blocks:
        if w < wp:
            out[f"gram_zero_w{w}_w{wp}"] = all(x == 0 for row in blocks[w, wp] for x in row)
    out["gram_norms_positive"] = all(
        (x > 0 if i == j else x == 0) for w in degrees for i, row in enumerate(blocks[w, w]) for j, x in enumerate(row)
    )
    out["eigenvalue_relation"] = eigenvalue_relation(p, span)
    out["monic_eigenvalue_relation"] = monic_relation(fam.hyper, fam.companion, p, span)
    out["ideal_lines"] = ideal_lines(p, span)
    return out
