import gc
import math
import random
import re
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mvop.hyper
import mvop.model
from mvop import linalg
from mvop.hyper import (
    Family,
    build_column,
    family,
    find_collisions,
    kernel_matrix,
    orthogonal_polynomial,
)
from mvop.matpoly import MatPoly
from mvop.verify import gram_block
from mvop.model import Params, WeightSpec, companion_eigenvalue, hyper_eigenvalue, hyper_operator

import dense_reference as dense
import fraction_oracle as oracle
from fraction_oracle import drift_matrix, potential_matrix, recursion_matrix
from dense_reference import bracket_seq, inner_product, poly_solution_space, termination_matrix

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)
COLLIDING = Params(0, 1, Fraction(3, 2), 2)
# w or j given as a float, a bool or a Fraction: none is an integer slot index
INEXACT = [(1.5, 0), (2.0, 0), (True, 0), (1, 1.0), (1, True), (Fraction(1), 0)]


def column_pairing(pv, qv, ws):
    """Scalar pairing of two dim x 1 columns through the matrix pairing."""
    return inner_product(pv.transpose(), qv.transpose(), ws)[0][0]


def column(vec):
    """A vector as the dim x 1 coefficient matrix of a column eigenfunction."""
    return tuple((x,) for x in vec)


def scan_collisions(p, lam):
    """Reference class of lam: for each j, scan w = 0, 1, ... while the
    strictly decreasing eigenvalue has not dropped below lam."""
    members = []
    for j in range(p.size):
        w = 0
        while hyper_eigenvalue(p, w, j) > lam:
            w += 1
        if hyper_eigenvalue(p, w, j) == lam:
            members.append((w, j))
    return tuple(sorted(members))


def bracket_column(p, w, j):
    """Reference column of the lowest slot of a class, from the bracket matrices: the value
    f0 at u = 0 solves B_w f0 = row j of kernel_matrix, and coefficient i is
    w!/i! B_i f0."""
    brackets = bracket_seq(p, hyper_eigenvalue(p, w, j), w).coeffs
    f0 = dense.solve_matrix(brackets[w], column(kernel_matrix(p, w).coeff(0)[j]))
    coeffs = [
        linalg.scale(dense.matmul(brackets[i], f0), Fraction(math.factorial(w), math.factorial(i)))
        for i in range(w + 1)
    ]
    return MatPoly(p.size, coeffs, 1)


def class_leaders(p, max_w):
    """Lowest slot of every class with more than one member, for w <= max_w."""
    leaders = set()
    for w in range(max_w + 1):
        for j in range(p.size):
            members = find_collisions(p, hyper_eigenvalue(p, w, j)).members
            if len(members) > 1:
                leaders.add(members[0])
    return sorted(leaders)


def later_slots(p, max_w):
    """Every slot with w <= max_w that is not the lowest of its class."""
    return [
        (w, j)
        for w in range(max_w + 1)
        for j in range(p.size)
        if find_collisions(p, hyper_eigenvalue(p, w, j)).members[0] != (w, j)
    ]


def orthogonalized_column(p, w, j):
    """Reference column cut out of the polynomial solution space: each basis
    value f0 of poly_solution_space gives the series with coefficients
    B_i f0 / i!, Gram-Schmidt removes the earlier columns of the class (built
    by these references too), and the leading coefficient is scaled to
    row j of kernel_matrix."""
    lam = hyper_eigenvalue(p, w, j)
    members = find_collisions(p, lam).members
    pos = members.index((w, j))
    if pos == 0:
        return bracket_column(p, w, j)
    earlier = [orthogonalized_column(p, *slot) for slot in members[:pos]]
    ws = WeightSpec(p)
    brackets = bracket_seq(p, lam, w).coeffs
    basis = poly_solution_space(p, lam, w)
    assert len(basis) == pos + 1
    reduced = []
    for f0 in basis:
        series = [
            linalg.scale(dense.matmul(brackets[i], column(f0)), Fraction(1, math.factorial(i)))
            for i in range(w + 1)
        ]
        cand = MatPoly(p.size, series, 1)
        for q in earlier:
            cand = cand - q * (column_pairing(cand, q, ws) / column_pairing(q, q, ws))
        reduced.append(cand)
    pick = next(v for v in reduced if not v.is_zero())
    assert pick.degree == w
    lead = pick.coeff(w)[j][0]
    assert pick.coeff(w) == linalg.scale(column(kernel_matrix(p, w).coeff(0)[j]), lead)
    return pick * (1 / lead)


def shifted_termination(p, w, j):
    """Second route: w (drift + w - 1) + potential + lambda."""
    eye = linalg.identity(p.size)
    lam = hyper_eigenvalue(p, w, j)
    return linalg.add(
        linalg.scale(linalg.add(drift_matrix(p), linalg.scale(eye, w - 1)), w),
        linalg.add(potential_matrix(p), linalg.scale(eye, lam)),
    )


def fraction_descent(p, w, j, lam):
    """Reference for Family._descend: the same back-substitution, one Fraction
    operation at a time."""
    c = recursion_matrix(p)
    u = drift_matrix(p)
    v = potential_matrix(p)
    n = p.size
    f = kernel_matrix(p, w).coeff(0)[j]
    coeffs = [tuple((x,) for x in f)]
    zero_pivots = []
    for i in range(w - 1, -1, -1):
        g = [0] * n
        for r in range(n - 1, -1, -1):
            rhs = (c[r][r] + i) * f[r]
            if r > 0:
                rhs += c[r][r - 1] * f[r - 1]
            rhs *= i + 1
            if r < n - 1:
                rhs -= v[r][r + 1] * g[r + 1]
            pivot = i * (u[r][r] + i - 1) + v[r][r] + lam
            if pivot:
                g[r] = rhs / pivot
            elif rhs:
                raise ArithmeticError(f"inconsistent recursion at degree {i}, row {r} for slot ({w}, {j})")
            else:
                zero_pivots.append((i, r))
        f = g
        coeffs.append(tuple((x,) for x in f))
    coeffs.reverse()
    return MatPoly(n, coeffs, 1), zero_pivots


def lowest_row(entries) -> tuple:
    """A vector of Fractions as (integer numerators, den > 0) jointly in lowest terms."""
    den = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries], den


class TestBracketSeq:
    def test_starts_at_identity(self):
        seq = bracket_seq(BASE, -2, 3)
        assert seq.coeffs[0] == linalg.identity(2)
        assert len(seq.coeffs) == 4

    def test_first_coefficient_frozen(self):
        b1 = bracket_seq(BASE, -2, 1).coeffs[1]
        assert b1 == (
            (Fraction(-1), Fraction(-1, 2)),
            (Fraction(1, 4), Fraction(1, 8)),
        )

    def test_recursion_identity(self):
        for p in GRID:
            lam = Fraction(-7, 3)
            seq = bracket_seq(p, lam, 5).coeffs
            eye = linalg.identity(p.size)
            for i in range(5):
                lhs = dense.matmul(
                    linalg.add(recursion_matrix(p), linalg.scale(eye, i)), seq[i + 1]
                )
                numerator = linalg.add(
                    linalg.scale(linalg.add(drift_matrix(p), linalg.scale(eye, i - 1)), i),
                    linalg.add(potential_matrix(p), linalg.scale(eye, lam)),
                )
                assert lhs == dense.matmul(numerator, seq[i])

    def test_termination_shows_up_as_rank_drop(self):
        # at lam = hyper_eigenvalue(1, 0) the next bracket is singular, the current one is not
        lam = hyper_eigenvalue(BASE, 1, 0)
        assert lam == -4
        seq = bracket_seq(BASE, lam, 2).coeffs
        assert dense.det(seq[1]) != 0
        assert dense.det(seq[2]) == 0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            bracket_seq(BASE, 0, -1)

    @pytest.mark.parametrize("bad", [0.5, -2.0, True, "0.5", "-2", Decimal("0.5")])
    def test_rejects_inexact_eigenvalues(self, bad):
        # Fraction("0.5") and Fraction(0.5) would otherwise both be read as 1/2
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            bracket_seq(BASE, bad, 1)


class TestTerminationMatrix:
    def test_frozen_example(self):
        assert termination_matrix(BASE, 0, 1) == (
            (Fraction(-2), Fraction(-1)),
            (Fraction(0), Fraction(0)),
        )

    def test_agrees_with_shifted_form(self):
        for p in GRID:
            for w in range(4):
                for j in range(p.size):
                    assert termination_matrix(p, w, j) == shifted_termination(p, w, j)

    def test_singularity(self):
        for p in GRID:
            for w in range(4):
                for j in range(p.size):
                    assert dense.det(termination_matrix(p, w, j)) == 0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            termination_matrix(BASE, -1, 0)
        with pytest.raises(ValueError):
            termination_matrix(BASE, 0, 5)


class TestKernelVector:
    def test_frozen_example(self):
        assert kernel_matrix(BASE, 0).coeff(0)[1] == (Fraction(-1, 2), Fraction(1))

    def test_unit_slot_and_support(self):
        for p in GRID:
            for j in range(p.size):
                x = kernel_matrix(p, 3).coeff(0)[j]
                assert x[j] == 1
                assert all(x[i] == 0 for i in range(j + 1, p.size))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(GRID),
        st.integers(min_value=0, max_value=8),
        st.data(),
    )
    def test_lies_in_kernel(self, p, w, data):
        j = data.draw(st.integers(min_value=0, max_value=p.ell))
        m = termination_matrix(p, w, j)
        assert dense.is_zero_matrix(dense.matmul(m, column(kernel_matrix(p, w).coeff(0)[j])))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            kernel_matrix(BASE, -1)


class TestFindCollisions:
    def test_generic_singleton(self):
        cls = find_collisions(BASE, -4)
        assert cls.members == ((1, 0),)

    def test_missing_eigenvalue_gives_empty_class(self):
        assert find_collisions(BASE, Fraction(-1, 3)).members == ()

    def test_collision_class(self):
        cls = find_collisions(COLLIDING, -5)
        assert cls.members == ((0, 2), (1, 0))
        assert cls.lam == -5

    def test_every_tabulated_eigenvalue_recovers_its_slot(self):
        for p in GRID:
            for w in range(5):
                for j in range(p.size):
                    members = find_collisions(p, hyper_eigenvalue(p, w, j)).members
                    assert (w, j) in members

    def test_member_gap(self):
        for p in GRID:
            for w in range(7):
                for j in range(p.size):
                    members = find_collisions(p, hyper_eigenvalue(p, w, j)).members
                    for (w1, j1), (w2, j2) in zip(members, members[1:]):
                        assert w2 > w1
                        assert j1 >= j2 + 2

    def test_agrees_with_scan(self):
        for p in GRID:
            for w in range(9):
                for j in range(p.size):
                    lam = hyper_eigenvalue(p, w, j)
                    for query in (lam, lam + Fraction(1, 3)):
                        assert find_collisions(p, query).members == scan_collisions(p, query)
            for lam in (Fraction(1), Fraction(7, 2)):
                assert find_collisions(p, lam).members == ()

    def test_rational_non_integer_roots_are_not_slots(self):
        # lam at a half-integer degree: the discriminant is a rational square
        for p in GRID:
            for w in range(5):
                for j in range(p.size):
                    half = Fraction(2 * w + 1, 2)
                    lam = -half * (half + p.alpha + p.beta + p.ell + j + 1) - j * (
                        p.alpha + p.beta - p.k + 1 + j
                    )
                    assert find_collisions(p, lam).members == scan_collisions(p, lam)
        # at j = 0 the discriminant is 25/2: a square numerator over a non-square denominator
        assert find_collisions(BASE, Fraction(-7, 8)).members == ()

    def test_companion_eigenvalue_gap_along_a_class(self):
        # consecutive members (w, j), (w + d, j - g) of a class:
        # mu gap = 3 d (g - d) A (A + g) / g with A = alpha + beta + j - g + d + ell + 2w + 1
        family = Params(Fraction(-1, 2), Fraction(8, 3), Fraction(13, 12), 4)
        pairs = set()
        for p in (COLLIDING, family, Params(0, 3, 1, 5)):
            for w in range(13):
                for j in range(p.size):
                    members = find_collisions(p, hyper_eigenvalue(p, w, j)).members
                    pairs.update((p, m1, m2) for m1, m2 in zip(members, members[1:]))
        assert len({p for p, _, _ in pairs}) == 3
        for p, (w, j), (w2, j2) in pairs:
            d, g = w2 - w, j - j2
            a = p.alpha + p.beta + j2 + d + p.ell + 2 * w + 1
            gap = companion_eigenvalue(p, w2, j2) - companion_eigenvalue(p, w, j)
            assert gap == 3 * d * (g - d) * a * (a + g) / g
            assert gap > 0

    def test_root_that_misses_lam_raises(self, monkeypatch):
        real = mvop.hyper.hyper_eigenvalue
        monkeypatch.setattr(mvop.hyper, "hyper_eigenvalue", lambda p, w, j: real(p, w, j) + 1)
        with pytest.raises(ArithmeticError, match="does not reproduce lam"):
            find_collisions(BASE, -4)

    @pytest.mark.parametrize("bad", [-4.0, False, "-4", "0.5", Decimal("-4")])
    def test_rejects_inexact_eigenvalues(self, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            find_collisions(BASE, bad)


class TestSolutionSpace:
    def test_generic_dimension_one(self):
        basis = poly_solution_space(BASE, -4, 1)
        assert len(basis) == 1

    def test_collision_dimension_follows_member_count(self):
        basis0 = poly_solution_space(COLLIDING, -5, 0)
        basis1 = poly_solution_space(COLLIDING, -5, 1)
        assert len(basis0) == 1
        assert len(basis1) == 2

    def test_dimension_matches_collision_count_on_grid(self):
        for p in GRID:
            for w in range(4):
                for j in range(p.size):
                    lam = hyper_eigenvalue(p, w, j)
                    members = find_collisions(p, lam).members
                    expected = sum(1 for wp, _ in members if wp <= w)
                    assert len(poly_solution_space(p, lam, w)) == expected

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            poly_solution_space(BASE, -4, -1)


class TestBuildColumn:
    def test_degree_zero_is_kernel_vector(self):
        for p in GRID:
            for j in range(p.size):
                col = build_column(p, 0, j)
                assert col.degree == 0
                assert col.coeff(0) == column(kernel_matrix(p, 0).coeff(0)[j])

    def test_eigenfunction_property(self):
        for p in GRID:
            op = hyper_operator(p)
            for w in range(4):
                for j in range(p.size):
                    col = build_column(p, w, j)
                    assert op.apply(col) == col * hyper_eigenvalue(p, w, j)

    def test_degree_and_leading(self):
        for p in GRID:
            for w in range(4):
                for j in range(p.size):
                    col = build_column(p, w, j)
                    assert col.degree == w
                    assert col.coeff(w) == column(kernel_matrix(p, w).coeff(0)[j])

    def test_collision_columns_frozen(self):
        first = build_column(COLLIDING, 0, 2)
        assert first.degree == 0
        assert first.coeff(0) == ((Fraction(3, 35),), (Fraction(-3, 7),), (Fraction(1),))
        second = build_column(COLLIDING, 1, 0)
        assert second.degree == 1
        assert second.coeff(1) == ((Fraction(1),), (Fraction(0),), (Fraction(0),))
        assert second.coeff(0) == ((Fraction(-12, 35),), (Fraction(-2, 7),), (Fraction(0),))

    def test_collision_columns_orthogonal(self):
        # a two-member class, a three-member one (these need ell >= 4) and a
        # four-member one (found at ell = 8, 10 and 12)
        for p, slots in (
            (COLLIDING, ((0, 2), (1, 0))),
            (Params(0, 3, 1, 5), ((4, 5), (6, 2), (7, 0))),
            (Params(Fraction(-2, 3), Fraction(11, 3), 4, 8), ((1, 8), (3, 5), (4, 3), (5, 0))),
        ):
            assert find_collisions(p, hyper_eigenvalue(p, *slots[0])).members == slots
            ws = WeightSpec(p)
            cols = [build_column(p, w, j) for w, j in slots]
            for x, cx in enumerate(cols):
                assert column_pairing(cx, cx, ws) > 0
                for cy in cols[:x]:
                    assert column_pairing(cx, cy, ws) == 0

    def test_principal_columns_match_bracket_oracle(self):
        for p in GRID:
            for w in range(9):
                for j in range(p.size):
                    if find_collisions(p, hyper_eigenvalue(p, w, j)).members[0] == (w, j):
                        assert build_column(p, w, j) == bracket_column(p, w, j)
        for p, max_w in ((COLLIDING, 8), (Params(0, 3, 1, 5), 8)):
            leaders = class_leaders(p, max_w)
            assert leaders
            for w, j in leaders:
                assert build_column(p, w, j) == bracket_column(p, w, j)

    def test_later_columns_match_orthogonalization_oracle(self):
        family = Params(Fraction(-1, 2), Fraction(8, 3), Fraction(13, 12), 4)
        for p, max_w in ((COLLIDING, 8), (family, 12)):
            later = later_slots(p, max_w)
            assert later
            for w, j in later:
                assert build_column(p, w, j) == orthogonalized_column(p, w, j)
        # the later members of the three-member class (4, 5), (6, 2), (7, 0)
        # and of the four-member class (1, 8), (3, 5), (4, 3), (5, 0)
        for p, later in (
            (Params(0, 3, 1, 5), ((6, 2), (7, 0))),
            (Params(Fraction(-2, 3), Fraction(11, 3), 4, 8), ((3, 5), (4, 3), (5, 0))),
        ):
            for w, j in later:
                assert build_column(p, w, j) == orthogonalized_column(p, w, j)

    @pytest.mark.usefixtures("fresh_family")
    def test_later_slot_off_its_companion_eigenvalue_raises(self, monkeypatch):
        # lower columns of the class added to the descent keep the D-eigenvalue
        # and the leading coefficient but mix in other companion eigenvalues
        big = Params(0, 3, 1, 5)
        lower = {
            (COLLIDING, 1, 0): [(0, 2)],
            (big, 7, 0): [(4, 5), (6, 2)],
        }
        shifts = {(p, w, j): [build_column(p, *slot) for slot in slots] for (p, w, j), slots in lower.items()}
        real = Family._descend

        def shifted(fam, w, j, lam):
            rows, earlier = real(fam, w, j, lam)
            entries = [[Fraction(x, den) for x in f] for f, den in rows]
            for m, low in enumerate(shifts.get((fam.params, w, j), ())):
                for i, c in enumerate(low.coeffs):
                    entries[i] = [x + Fraction(3, m + 2) * y for x, (y,) in zip(entries[i], c)]
            return [lowest_row(row) for row in entries], earlier

        monkeypatch.setattr(Family, "_descend", shifted)
        mvop.hyper.family.cache_clear()
        for p, w, j in lower:
            with pytest.raises(ArithmeticError, match=re.escape(f"column ({w}, {j}) is not an eigenfunction")):
                build_column(p, w, j)

    @pytest.mark.usefixtures("fresh_family")
    def test_class_sharing_a_companion_eigenvalue_raises(self, monkeypatch):
        real = mvop.hyper.companion_eigenvalue

        def merged(p, w, j):
            return real(p, 1, 0) if (p, w, j) == (COLLIDING, 0, 2) else real(p, w, j)

        monkeypatch.setattr(mvop.hyper, "companion_eigenvalue", merged)
        with pytest.raises(ArithmeticError, match=re.escape("slots (0, 2) and (1, 0) share both eigenvalues")):
            build_column(COLLIDING, 1, 0)

    def test_descent_rejects_an_inconsistent_pivot(self):
        # in D's numerators, A_0's entry at (2, 2) moved to lam(1, 1) L makes the degree-0 pivot of row 2 vanish in the descent
        # of (1, 1), where the right side, A_1's (2, 1) entry times f_1[1] = 1,
        # does not.  An entry off the diagonal cannot do this: f_{w-t} stays
        # zero in every row after j + t, a staircase that covers every
        # earlier member of a class.
        fam = Family(COLLIDING)
        (a0,), *rest = fam.hyper.num
        lam = hyper_eigenvalue(COLLIDING, 1, 1) * fam.hyper.den
        a0 = tuple(tuple(lam.numerator if r == c == 2 else x for c, x in enumerate(row)) for r, row in enumerate(a0))
        fam.hyper.__dict__["num"] = (a0,), *rest
        with pytest.raises(ArithmeticError, match="degree 0, row 2"):
            fam.column(1, 1)

    @pytest.mark.usefixtures("fresh_family")
    def test_principal_columns_skip_the_bracket_matrices(self, monkeypatch):
        # later slots included: the construction needs neither the dense
        # bracket path nor any pairing against the weight; it starts from zero,
        # so it reads neither the closed-form kernel_matrix nor a Fraction clear
        def refuse(*args, **kwargs):
            raise AssertionError("dense bracket path, pairing or closed form used to build a column")

        # the dense path and the one-call pairing now live only in dense_reference
        # the Fraction views of the closed forms are gone: callers read
        # kernel_matrix(p, w).coeff(0) and monic_matrix(op, n).coeff(0)
        gone = {
            mvop.hyper: (
                "BracketSeq",
                "bracket_seq",
                "termination_matrix",
                "poly_solution_space",
                "kernel_vector",
                "leading_coefficient",
            ),
            linalg: (
                "_integer_form",
                "SingularMatrixError",
                "solve_matrix",
                "nullspace",
                "det",
                "leading_principal_minors",
                "matmul",
                "matmul_sum",
                "sub",
                "is_zero_matrix",
            ),
            mvop.model: ("inner_product", "monic_eigenvalue", "eigenvalue_matrix"),
        }
        assert [(m.__name__, n) for m, names in gone.items() for n in names if hasattr(m, n)] == []
        monkeypatch.setattr(mvop.model.WeightSpec, "integrals", refuse)
        monkeypatch.setattr(mvop.hyper, "moment_rows", refuse)
        monkeypatch.setattr(mvop.hyper, "kernel_matrix", refuse)
        big = Params(0, 3, 1, 5)
        slots = [(COLLIDING, w, j) for w in range(4) for j in range(COLLIDING.size)]
        slots += [(big, w, j) for w, j in ((4, 5), (6, 2), (7, 0))]
        for p, w, j in slots:
            col = build_column(p, w, j)
            assert col.degree == w
            assert col.coeff(w) == column(oracle.kernel_vector(p, w, j))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            build_column(BASE, -1, 0)
        with pytest.raises(ValueError):
            build_column(BASE, 0, 9)

    @pytest.mark.parametrize("w, j", INEXACT)
    def test_rejects_inexact_slots_after_the_integer_slot_is_cached(self, w, j):
        # True and 2.0 hash like 1 and 2, so a lookup before the check would answer them
        build_column(BASE, int(w), int(j))
        with pytest.raises(ValueError, match="integer"):
            build_column(BASE, w, j)

    def test_integer_descent_matches_the_fraction_oracle(self):
        family = Params(Fraction(-1, 2), Fraction(8, 3), Fraction(13, 12), 4)
        cases = [(p, 12) for p in GRID] + [(family, 30)]  # GRID holds COLLIDING
        zero_pivots = 0
        for p, max_w in cases:
            fam = Family(p)
            for w in range(max_w + 1):
                for j in range(p.size):
                    lam = hyper_eigenvalue(p, w, j)
                    rows, earlier = fam._descend(w, j, lam)
                    col, oracle_earlier = fraction_descent(p, w, j, lam)
                    assert earlier == oracle_earlier and len(rows) == w + 1
                    for m, (f, den) in enumerate(rows):
                        assert type(den) is int and den > 0 and math.gcd(den, *f) == 1
                        assert [Fraction(x, den) for x in f] == [x for (x,) in col.coeff(m)]
                    zero_pivots += len(earlier)
        # both branches of the pivot test ran
        assert zero_pivots > 0


class TestFamily:
    @pytest.mark.usefixtures("fresh_family")
    def test_sweep_builds_no_column_twice(self, monkeypatch):
        # the benchmark sweep's sequence: every P_w, then every norm block
        real, built = Family._descend, []

        def recording(fam, w, j, lam):
            built.append((fam.params, w, j))
            return real(fam, w, j, lam)

        monkeypatch.setattr(Family, "_descend", recording)
        for p in (COLLIDING, GRID[1]):
            for w in range(7):
                orthogonal_polynomial(p, w)
            for w in range(7):
                gram_block(p, w, w)
        assert len(built) == len(set(built)) == 2 * 7 * 3

    @pytest.mark.usefixtures("fresh_family")
    def test_previous_family_is_released(self):
        first = family(COLLIDING)
        build_column(COLLIDING, 1, 0)
        assert family(COLLIDING) is first and first.column(1, 0) == build_column(COLLIDING, 1, 0)
        gone = weakref.ref(first)
        del first
        second = family(BASE)
        gc.collect()
        assert gone() is None
        assert family(BASE) is second

    @pytest.mark.usefixtures("fresh_family")
    def test_columns_are_kept_by_their_callers_alone(self):
        # (1, 0) is a later class member, certified against E on each call;
        # P_w is the family's one construction cache
        col = build_column(COLLIDING, 1, 0)
        gone = weakref.ref(col)
        assert build_column(COLLIDING, 1, 0) == col
        del col
        gc.collect()
        assert gone() is None
        assert orthogonal_polynomial(COLLIDING, 1) is orthogonal_polynomial(COLLIDING, 1)

    @pytest.mark.usefixtures("fresh_family")
    def test_column_is_assembled_once(self, monkeypatch):
        # (1, 0) is a later member of the class of (0, 2): the column that its
        # certification against E assembles is the column returned
        assert find_collisions(COLLIDING, hyper_eigenvalue(COLLIDING, 1, 0)).members == ((0, 2), (1, 0))
        real, calls = mvop.hyper._assembled, []

        def counted(columns):
            calls.append(len(columns))
            return real(columns)

        monkeypatch.setattr(mvop.hyper, "_assembled", counted)
        want = {slot: orthogonalized_column(COLLIDING, *slot) for slot in ((0, 0), (1, 0))}
        for slot in want:
            calls.clear()
            assert build_column(COLLIDING, *slot) == want[slot]
            assert calls == [1]

    def test_lam_off_the_operator_scale_raises(self):
        # every eigenvalue is an integer over the scale of the operator
        # matrices; a lam with another denominator is refused
        with pytest.raises(ArithmeticError, match="not an integer"):
            Family(BASE)._descend(1, 0, Fraction(1, 7))

    def test_lam_of_another_slot_raises(self):
        # the top pivot of (1, 0) vanishes only at its own eigenvalue; at
        # lam(1, 1) the column would be zero
        with pytest.raises(ArithmeticError, match=re.escape("lam = -15/2 is not the eigenvalue of slot (1, 0)")):
            Family(COLLIDING)._descend(1, 0, hyper_eigenvalue(COLLIDING, 1, 1))


ROUTE_POINTS = [
    (Params(Fraction(1, 2), Fraction(4, 3), Fraction(1, 2), 3), 8),  # generic: no class up to w = 8
    (COLLIDING, 10),
    (Params(0, 1, 1, 6), 8),
    (Params(0, 3, 1, 5), 7),
    (Params(Fraction(-2, 3), Fraction(11, 3), 4, 8), 5),
    (Params(Fraction(3, 2), Fraction(9, 2), 5, 12), 6),
]


@pytest.mark.usefixtures("fresh_family")
@pytest.mark.parametrize("p, max_w", ROUTE_POINTS)
def test_rows_route_matches_the_column_route(p, max_w):
    # polys writes each slot's strings from its rows, and P_w is assembled from
    # the n columns' rows; both must equal the route through each column
    # MatPoly, in the form its Fraction constructor reduces by a gcd
    fam, n = family(p), p.size
    for w in range(max_w + 1):
        cols = [fam.column(w, j) for j in range(n)]
        for j, col in enumerate(cols):
            assert col == MatPoly(n, col.coeffs, 1)
            assert fam.column_strings(w, j) == build_column(p, w, j).to_json_dict()["coeffs"]
        stacked = MatPoly(n, [[[x for (x,) in col.coeff(m)] for col in cols] for m in range(w + 1)])
        assert fam.poly(w) == stacked


def test_route_points_reach_a_class_of_four_at_ell_12():
    p, max_w = ROUTE_POINTS[-1]
    assert find_collisions(p, hyper_eigenvalue(p, 1, 10)).members == ((1, 10), (3, 7), (5, 3), (6, 0)) and max_w == 6


class TestMatrixFamily:
    def test_rows_are_columns(self):
        for p in GRID:
            for w in range(3):
                poly = orthogonal_polynomial(p, w)
                for j in range(p.size):
                    col = build_column(p, w, j)
                    for m in range(w + 1):
                        assert column(poly.coeff(m)[j]) == col.coeff(m)

    def test_leading_coefficient_closed_form(self):
        for p in GRID:
            for w in range(4):
                poly = orthogonal_polynomial(p, w)
                lead = kernel_matrix(p, w).coeff(0)
                assert poly.coeff(w) == lead
                for r in range(p.size):
                    assert lead[r] == oracle.kernel_vector(p, w, r)

    @pytest.mark.parametrize("w", [1.5, 2.0, True, Fraction(1)])
    def test_leading_coefficient_rejects_inexact_degree(self, w):
        with pytest.raises(ValueError, match="integer"):
            kernel_matrix(BASE, w)

    @pytest.mark.parametrize("w", [1.5, 2.0, True, Fraction(1)])
    def test_orthogonal_polynomial_rejects_inexact_degree(self, w):
        orthogonal_polynomial(BASE, int(w))
        with pytest.raises(ValueError, match="integer"):
            orthogonal_polynomial(BASE, w)

    def test_leading_unit_lower_triangular(self):
        for p in GRID:
            for w in range(4):
                lead = kernel_matrix(p, w).coeff(0)
                for r in range(p.size):
                    assert lead[r][r] == 1
                    assert all(lead[r][c] == 0 for c in range(r + 1, p.size))

    def test_zero_order_polynomial_has_triangular_value(self):
        p0 = orthogonal_polynomial(BASE, 0)
        assert p0.degree == 0
        assert p0.coeff(0) == ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1)))


def sample_points(seed, count):
    """count admissible points, ell cycling through 1..8; every second one
    resonant: k solves lam(w, j) = lam(w', j') for random slots j > j',
    w < w' <= 6."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        ell = len(points) % 8 + 1
        a, b = (Fraction(rng.randint(-11, 40), rng.randint(1, 12)) for _ in range(2))
        if a <= -1 or b <= -1:
            continue
        if len(points) % 2:
            jp = rng.randint(0, ell - 1)
            j, wp = rng.randint(jp + 1, ell), rng.randint(1, 6)
            w = rng.randint(0, wp - 1)
            # lam is affine in k with slope j
            base = Params(a, b, (b + 1) / 2, ell)
            rest = hyper_eigenvalue(base, w, j) - hyper_eigenvalue(base, wp, jp) - (j - jp) * base.k
            k = -rest / (j - jp)
        else:
            k = (b + 1) * Fraction(rng.randint(1, 29), 30)
        if 0 < k < b + 1:
            points.append(Params(a, b, k, ell))
    return points


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestIntegerSlotArithmetic:
    """The integer eigenvalues and collision classes against the Fraction
    versions they replaced (fraction_oracle): equal values, equal exceptions."""

    POINTS = sample_points(1515, 120)
    EIGENVALUES = ((hyper_eigenvalue, oracle.hyper_eigenvalue), (companion_eigenvalue, oracle.companion_eigenvalue))

    def test_eigenvalues_match_the_fraction_oracle(self):
        for p in self.POINTS:
            for w in range(9):
                for j in range(p.size):
                    for new, old in self.EIGENVALUES:
                        got = new(p, w, j)
                        assert type(got) is Fraction and got == old(p, w, j)

    @pytest.mark.parametrize("w, j", INEXACT + [(-1, 0), (0, -1), (0, 3), (1, "0")])
    def test_eigenvalues_raise_what_the_oracle_raises(self, w, j):
        for p in (COLLIDING, self.POINTS[1]):
            for new, old in self.EIGENVALUES:
                assert isinstance(outcome(old, p, w, j), tuple)
                assert outcome(new, p, w, j) == outcome(old, p, w, j)

    def test_classes_match_the_fraction_oracle(self):
        resonant = set()
        for p in self.POINTS:
            for w in range(7):
                for j in range(p.size):
                    lam = hyper_eigenvalue(p, w, j)
                    got = find_collisions(p, lam)
                    assert got == oracle.find_collisions(p, lam)
                    if len(got.members) > 1:
                        resonant.add(p)
        # the constructed resonances, and a few by coincidence
        assert len(resonant) > len(self.POINTS) // 2

    def test_values_off_the_spectrum_match_the_fraction_oracle(self):
        rng = random.Random(1516)
        for p in self.POINTS:
            j = rng.randint(0, p.ell)
            half = Fraction(2 * rng.randint(0, 6) + 1, 2)
            queries = [
                hyper_eigenvalue(p, 3, j) + Fraction(1, 3),  # not an eigenvalue
                # a rational square discriminant with the root w = half
                -half * (half + p.alpha + p.beta + p.ell + j + 1) - j * (p.alpha + p.beta - p.k + 1 + j),
                Fraction(rng.randint(1, 10**6), rng.randint(1, 50)),  # positive: negative discriminants
                Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**30)),  # large denominators
                hyper_eigenvalue(p, 10**12, j),  # far up the spectrum
            ]
            for lam in queries:
                assert find_collisions(p, lam) == oracle.find_collisions(p, lam)

    @pytest.mark.parametrize("bad", [-4.0, False, True, "-4", "0.5", Decimal("-4"), None])
    def test_classes_raise_what_the_oracle_raises(self, bad):
        assert outcome(find_collisions, BASE, bad) == outcome(oracle.find_collisions, BASE, bad)
        assert outcome(find_collisions, BASE, bad)[0] is TypeError

    def test_a_root_that_misses_lam_raises_as_the_oracle_does(self, monkeypatch):
        # both raise at their check that each root reproduces lam
        monkeypatch.setattr(mvop.hyper, "hyper_eigenvalue", lambda p, w, j: Fraction(1))
        monkeypatch.setattr(oracle, "hyper_eigenvalue", lambda p, w, j: Fraction(1))
        for lam in (-5, Fraction(-15, 2)):
            assert outcome(find_collisions, COLLIDING, lam) == outcome(oracle.find_collisions, COLLIDING, lam)
