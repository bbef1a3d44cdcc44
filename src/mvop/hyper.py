"""Construction of the orthogonal eigenfunctions of the matrix
hypergeometric operator.

A column eigenfunction with eigenvalue lam solves D F = lam F for
D = hyper_operator(p).  It is a polynomial of degree w exactly at the slots
(w, j) whose eigenvalue hyper_eigenvalue(p, w, j) is lam, and its leading
coefficient is then the explicit row j of kernel_matrix(p, w).

Distinct slots (w, j) and (w', j') can share an eigenvalue.  find_collisions
recovers the full class of slots sharing a value as exact roots of a
quadratic in w', on integers.  Every column is built downward from zero
above its top degree, one bidiagonal back-substitution per degree on
integers read from the numerators D.num of the operator D itself, with one
common denominator and one gcd per degree.  The descent never reads the
closed form kernel_matrix; run_suite's leading_coefficient_w checks hold
its top coefficients to it.  A later slot of a class is certified as an
eigenfunction of the commuting companion operator, which makes it
orthogonal to the earlier ones without a pairing.

A column leaves the descent in one format, its per-degree rows: degree i's
integer numerators over its own denominator, jointly in lowest terms.
Family.column_strings writes mvop polys' entries straight from them, and
Family.column and Family.poly assemble their MatPoly from them with one lcm
and one scaling per entry, P_w from its n columns' rows directly.

One Family holds all that a parameter set fixes, P_w but not a lone column,
which is built again if asked for again; family(p) keeps the latest.
The Params-keyed build_column, orthogonal_polynomial and gram_block read it;
gram_block lives here, not in verify, so that mvop gram and the library
sweep run without loading the checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .matpoly import MatPoly
from .exact import _check_bound, _format_ratio, exact_scalar, format_rational
from .model import Params, WeightSpec, _check_j, _cleared, companion_eigenvalue, companion_operator
from .model import hyper_eigenvalue, hyper_operator, moment_rows, pair_rows

__all__ = [
    "CollisionClass",
    "kernel_matrix",
    "find_collisions",
    "Family",
    "family",
    "build_column",
    "orthogonal_polynomial",
    "GramBlock",
    "gram_block",
]


def kernel_matrix(p: Params, w: int) -> MatPoly:
    """The paper's closed form of the leading coefficient of P_w, as a
    constant MatPoly on integers: row j is the explicit kernel element of the
    termination matrix
    w (U + w - 1) + V + hyper_eigenvalue(p, w, j), U and V of hyper_operator,
    normalized to 1 in slot j.  The descent does not read it; the
    leading_coefficient_w checks compare P_w's top coefficient with it.

    Entry (j, i < j) is (-1)^(i+j) C(ell-i, ell-j) poch(beta-k+1+i, j-i) /
    poch(alpha+beta+j+i+w-k+1, j-i), where the powers of d (see _cleared)
    cancel; entries above the diagonal vanish.  The denominator is strictly
    positive for admissible parameters, so the matrix is always defined.
    """
    _check_bound("w", w)
    d, a, b, k = _cleared(p)
    rows = [[(0, 1)] * p.size for _ in range(p.size)]
    for j in range(p.size):
        for i in range(j + 1):
            ts, sign = range(i + 1, j + 1), (-1) ** (i + j) * math.comb(p.ell - i, p.ell - j)
            rows[j][i] = sign * math.prod(b - k + t * d for t in ts), math.prod(a + b - k + (w + j + t) * d for t in ts)
    den = math.lcm(*(y for row in rows for _, y in row))
    return MatPoly._reduced(p.size, p.size, (tuple(tuple(x * (den // y) for x, y in row) for row in rows),), den)


class CollisionClass(namedtuple("CollisionClass", "lam members")):
    """All slots (w, j) sharing one eigenvalue, sorted by increasing w."""

    __slots__ = ()


def find_collisions(p: Params, lam) -> CollisionClass:
    """Complete list of slots (w', j') with hyper_eigenvalue equal to lam.

    For fixed j', hyper_eigenvalue(p, w', j') = lam is the quadratic
    w'^2 + b w' + c = 0 with b = alpha + beta + ell + j' + 1 > 0 and
    c = lam + j'(alpha + beta - k + 1 + j').  Its roots sum to -b < 0, so only
    (sqrt(b^2 - 4c) - b)/2 can be a non-negative integer, and only when the
    discriminant is the square of a rational.  It runs on integers: with d
    the lcm of the denominators of alpha, beta and k and q that of lam, the
    discriminant times (d q)^2 is an integer N, which must be a square s^2,
    and the root is (s - b d q) / (2 d q).
    """
    lam = exact_scalar(lam)
    d, a, b, k = _cleared(p)
    q = lam.denominator
    members = []
    for jp in range(p.size):
        lin = (a + b + (p.ell + jp + 1) * d) * q
        square = lin * lin - 4 * q * (lam.numerator * d * d + jp * (a + b - k + (1 + jp) * d) * d * q)
        if square < 0:
            continue
        s = math.isqrt(square)
        if s * s != square or s < lin or (s - lin) % (2 * d * q):
            continue
        w = (s - lin) // (2 * d * q)
        if hyper_eigenvalue(p, w, jp) != lam:
            raise ArithmeticError(f"quadratic root w = {w} at j = {jp} does not reproduce lam")
        members.append((w, jp))
    members.sort()
    for (w1, j1), (w2, j2) in zip(members, members[1:]):
        if not (w2 > w1 and j1 >= j2 + 2):
            raise ArithmeticError("repeated-eigenvalue structure violated")
    return CollisionClass(lam, tuple(members))


class Family:
    """Everything one parameter set fixes, kept as long as the instance and
    each part built on first use: the weight (a WeightSpec), the operators D
    and E (each held as integer numerators over one denominator), each
    P_w, and the moment rows of each P_w', computed once per degree.
    A column is not kept: column builds it on every call."""

    weight = cached_property(lambda self: WeightSpec(self.params))
    hyper = cached_property(lambda self: hyper_operator(self.params))
    companion = cached_property(lambda self: companion_operator(self.params))

    def __init__(self, params: Params):
        self.params = params
        self._polys, self._moment_rows = {}, {}

    def _descend(self, w: int, j: int, lam) -> tuple[list, list]:
        """A degree-w polynomial solution for slot (w, j), built downward from
        f_{w+1} = 0, as its rows, and the slots (i, r) below the top where a
        pivot vanished.

        With F = sum_i f_i u^i, the u^i coefficient of (D - lam) F = 0 is
        M1(i) f_{i+1} = (lam - M0(i)) f_i, read from D's numerators num:
        M1(i) = (i+1)(A_1[u^0] + i A_2[u^1]) is lower bidiagonal and
        M0(i) = A_0[u^0] + i A_1[u^1] + i(i-1) A_2[u^2] upper bidiagonal, as
        A_2 = u(1-u) I, A_1 is linear with a diagonal u^1 coefficient and A_0
        is constant.  So f_i follows by back-substitution, with pivot r equal
        to lam - hyper_eigenvalue(p, i, r).  At degree w it vanishes at row j
        alone, whose free entry is set to 1 (if the pivot there does not vanish,
        lam is not the slot's eigenvalue: ArithmeticError); f_w is then the
        kernel vector, which the descent never reads.  Below, it vanishes
        exactly at the earlier members (i, r) of the class of lam; there the
        right side must vanish too, and the free entry is set to 0.

        It runs on integers: D's numerators over its denominator L (so lam L
        must be an integer, else ArithmeticError), row r of f_i over the
        previous denominator times the nonzero pivots of rows >= r, lifted
        once per degree to their full product and reduced by one gcd.  Row i
        of the result, by ascending degree, is (f_i, den_i): f_i's integer
        numerators over den_i > 0, the n + 1 integers jointly in lowest terms.
        """
        n = self.params.size
        ((a0,), (b0, b1), (_, c1, c2)), scale = self.hyper.num, self.hyper.den
        lam = lam * scale
        if lam.denominator != 1:
            raise ArithmeticError(f"lam times the operator scale {scale} is not an integer: {lam}")
        lam = lam.numerator
        f, den, rows, zero_pivots = [0] * n, 1, [], []
        for i in range(w, -1, -1):
            g, grow, pivots = [0] * n, 1, [1] * n
            for r in range(n - 1, -1, -1):
                rhs = (b0[r][r] + i * c1[r][r]) * f[r]
                if r > 0:
                    rhs += b0[r][r - 1] * f[r - 1]
                rhs *= (i + 1) * grow
                if r < n - 1:
                    rhs += a0[r][r + 1] * g[r + 1]
                pivot = lam - a0[r][r] - i * (b1[r][r] + (i - 1) * c2[r][r])
                if pivot:
                    g[r], grow, pivots[r] = rhs, grow * pivot, pivot
                elif rhs:
                    raise ArithmeticError(f"inconsistent recursion at degree {i}, row {r} for slot ({w}, {j})")
                elif i == w and r == j:
                    g[r] = grow
                else:
                    zero_pivots.append((i, r))
            if i == w and not g[j]:
                raise ArithmeticError(f"lam = {Fraction(lam, scale)} is not the eigenvalue of slot ({w}, {j})")
            lift = 1
            for r in range(n):
                g[r] *= lift
                lift *= pivots[r]
            den *= grow
            common = math.gcd(den, *g) if den > 0 else -math.gcd(den, *g)
            f, den = [x // common for x in g], den // common
            rows.append((f, den))
        rows.reverse()
        return rows, zero_pivots

    def _rows(self, w: int, j: int) -> tuple:
        """The rows of column (w, j) (see _descend), certified where the
        descent met earlier members of the class of lam: the column is checked
        exactly to be the eigenfunction of the companion operator E for
        mu(w, j), with mu apart from theirs (else ArithmeticError).  Returns
        the rows and the column MatPoly that certification assembled, or None
        where there was none to certify.

        E commutes with D, keeps degree and is symmetric for the weight, so
        among the degree-<= w solutions of D F = lam F, whose E-eigenvalues are
        the mu of the class, one eigenvector for mu(w, j) has the column's top
        coefficient, and it is orthogonal to the earlier columns: the
        Gram-Schmidt column.  That the descent's free entries 0 land on it is
        checked, not proved.

        The mu differ: lam strictly decreases in w and in j, so an earlier member
        (w, j) of (w', j') has d = w' - w >= 1 and g = j - j' >= 1.  With
        A = alpha + beta + j' + d + ell + 2w + 1 > 1, mu(w', j') - mu(w, j) is
        3 d (g - d) A (A + g) / g, and lam(w, j) = lam(w', j') gives
        k g = g (A + j' + g - ell - d - w) - d A < 0 if d >= g (as j' + g <= ell),
        against k > 0.  So d < g, and mu strictly increases along a class.
        """
        p = self.params
        _check_bound("w", w)
        _check_j(p, j)
        rows, earlier = self._descend(w, j, hyper_eigenvalue(p, w, j))
        if earlier:
            mu = companion_eigenvalue(p, w, j)
            for slot in earlier:
                if companion_eigenvalue(p, *slot) == mu:
                    raise ArithmeticError(f"slots {slot} and ({w}, {j}) share both eigenvalues")
            column = _assembled([rows])
            if self.companion.apply(column) != column * mu:
                raise ArithmeticError(f"column ({w}, {j}) is not an eigenfunction of the companion operator")
            return rows, column
        return rows, None

    def column(self, w: int, j: int) -> MatPoly:
        """Degree-w column eigenfunction for slot (w, j), a dim x 1 MatPoly
        solved downward from zero above degree w afresh on each call (P_w
        keeps its columns as rows).  It is assembled once from its certified
        rows (see _rows) over their lcm, one scaling per entry and no gcd,
        which rows in lowest terms leave at 1 (see _assembled): a later class
        member returns the column its certification assembled.  Its leading
        coefficient, 1 in slot j and 0 in every slot after it, is the kernel
        vector, which run_suite checks against the closed form, row j of
        kernel_matrix(p, w).
        """
        rows, column = self._rows(w, j)
        return _assembled([rows]) if column is None else column

    def column_strings(self, w: int, j: int) -> list:
        """Column (w, j) as column(w, j).to_json_dict()["coeffs"] writes it,
        each entry read straight from its row (f_i, den_i), one gcd each."""
        return [[_format_ratio(x, den) for x in f] for f, den in self._rows(w, j)[0]]

    def poly(self, w: int) -> MatPoly:
        """Degree-w matrix polynomial P_w whose row j is the column (w, j),
        assembled straight from the n columns' certified rows (see _rows), with
        no column MatPoly between: one lcm over all of them, one scaling per
        entry and no gcd, which rows in lowest terms leave at 1 (see _assembled).

        Its leading coefficient is kernel_matrix(p, w), with row j that of the
        column (w, j): unit lower triangular, so the family is linearly
        independent degree by degree.
        """
        _check_bound("w", w)
        if w not in self._polys:
            self._polys[w] = _assembled([self._rows(w, j)[0] for j in range(self.params.size)])
        return self._polys[w]

    def gram_num(self, w: int, w_prime: int) -> tuple:
        """The pairing block <P_w, P_w'> as (integer matrix, denominator): for
        w <= w', P_w against the moment rows a <= w' of P_w', computed once.
        weight_core is symmetric by construction, so <P_w, P_w'> = <P_w', P_w>^T
        and a block below the diagonal is its mirror's transpose, same den."""
        left, right = self.poly(w), self.poly(w_prime)
        if w > w_prime:
            num, den = self.gram_num(w_prime, w)
            return linalg.transpose(num), den
        if w_prime not in self._moment_rows:
            self._moment_rows[w_prime] = moment_rows(right, self.weight, w_prime + 1)
        return pair_rows(left, *self._moment_rows[w_prime], self.params.size)

    def gram(self, w: int, w_prime: int):
        """The pairing block <P_w, P_w'>: gram_num as Fractions."""
        num, den = self.gram_num(w, w_prime)
        return tuple(tuple(Fraction(x, den) for x in row) for row in num)


def _assembled(columns: list) -> MatPoly:
    """The MatPoly of the given columns, each as its rows (f_m, den_m) in
    lowest terms (see Family._descend): one column gives that dim x 1 column,
    n columns give P_w, whose row c is column c.  Every entry is scaled once
    to the one lcm L of all den_m, and no gcd is taken, as it is 1: a prime
    power p^e dividing L exactly divides some den_m, whose scale L / den_m is
    then prime to p, so p dividing every scaled entry would divide den_m and
    all of f_m.  Each column's top row holds the slot's 1, so no coefficient
    is trimmed."""
    den, dim = math.lcm(*(d for rows in columns for _, d in rows)), len(columns[0][0][0])
    num = tuple(tuple(tuple(x * (den // d) for x in f) for f, d in degree) for degree in zip(*columns))
    if len(columns) == 1:
        return MatPoly._lowest(dim, 1, tuple(tuple(zip(*c)) for c in num), den)
    return MatPoly._lowest(dim, dim, num, den)


@lru_cache(maxsize=1)
def family(p: Params) -> Family:
    """The latest parameter set's Family, which the Params-keyed functions share."""
    return Family(p)


def build_column(p: Params, w: int, j: int) -> MatPoly:
    """Degree-w column eigenfunction for slot (w, j): Family.column."""
    return family(p).column(w, j)


def orthogonal_polynomial(p: Params, w: int) -> MatPoly:
    """Degree-w matrix polynomial whose row j is column (w, j): Family.poly."""
    return family(p).poly(w)


class GramBlock(namedtuple("GramBlock", "w w_prime entries")):
    """Pairing of the degree-w and degree-w_prime families; zero off the diagonal."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "w_prime": self.w_prime,
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }


def gram_block(p: Params, w: int, w_prime: int) -> GramBlock:
    """The pairing block of P_w and P_w', from the moment rows that
    family(p) shares across blocks."""
    return GramBlock(w, w_prime, family(p).gram(w, w_prime))
