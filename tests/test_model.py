import math
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mvop import linalg, matpoly
from mvop.hyper import family
from mvop.matpoly import DiffOp, MatPoly
from mvop.model import (
    Params,
    companion_eigenvalue,
    companion_operator,
    hyper_eigenvalue,
    hyper_operator,
    monic_matrix,
    slot_table,
    weight_core,
)

import dense_reference as dense
import fraction_oracle as oracle

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)

# w or j given as a float, a bool or a Fraction: none is an integer slot index
INEXACT = [(1.5, 0), (2.0, 0), (True, 0), (1, 1.0), (1, True), (Fraction(1), 0)]


# every input the CLI rejects, with its message: each is refused whether it
# comes positionally or by keyword
REJECTED = [
    ((-1, 1, 1, 1), "alpha must be > -1"),
    ((-2, 1, 1, 1), "alpha must be > -1"),
    ((0, -1, 1, 1), "beta must be > -1"),
    ((0, 1, 0, 1), "k must satisfy 0 < k < beta + 1"),
    ((0, 1, 2, 1), "k must satisfy 0 < k < beta + 1"),
    ((0, 1, 5, 2), "k must satisfy 0 < k < beta + 1"),
    ((0, 1, 1, 0), "ell must be an integer >= 1"),
    ((0, 1, 1, Fraction(3, 2)), "ell must be an integer >= 1"),
    ((0.1, 1, 1, 1), "alpha must be an exact rational, not a float"),
    ((0, 1.5, 1, 1), "beta must be an exact rational, not a float"),
    ((0, 1, 0.5, 1), "k must be an exact rational, not a float"),
    ((0, 1, 1, True), "ell must be an integer >= 1"),
    # the forms the CLI's p/q flags reject
    (("0.5", 1, 1, 1), "not an exact rational of the form p/q: '0.5'"),
    (("1e-1", 1, 1, 1), "not an exact rational of the form p/q: '1e-1'"),
    ((True, 1, 1, 1), "alpha must be an exact rational, not a bool"),
    ((0, 1, False, 1), "k must be an exact rational, not a bool"),
    (("1/0", 1, 1, 1), "zero denominator: '1/0'"),
    ((0, 1, 1, 1.0), "ell must be an integer >= 1"),
    # Arabic-Indic and fullwidth 1/2: p/q takes ASCII digits only
    (("\uff11/\uff12", 1, 1, 1), "not an exact rational of the form p/q: '\uff11/\uff12'"),
    ((0, 1, "\u0661/\u0662", 1), "not an exact rational of the form p/q: '\u0661/\u0662'"),
    # Fraction(Decimal) is exact, but Params takes only int, Fraction and p/q
    ((Decimal("0.5"), 1, 1, 1), "alpha must be an exact rational, not a Decimal"),
    ((0, Decimal("1.5"), 1, 1), "beta must be an exact rational, not a Decimal"),
    ((0, 1, Decimal("0.5"), 1), "k must be an exact rational, not a Decimal"),
]


class TestParams:
    def test_coerces_to_fractions(self):
        p = Params("1/2", 1, "1/3", 2)
        assert p.alpha == Fraction(1, 2) and isinstance(p.alpha, Fraction)
        assert p.k == Fraction(1, 3)
        assert p.size == 3

    @pytest.mark.parametrize("args, message", REJECTED)
    def test_rejects_inadmissible(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Params(*args)

    @pytest.mark.parametrize("args, message", REJECTED)
    def test_rejects_inadmissible_by_keyword(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Params(**dict(zip(("alpha", "beta", "k", "ell"), args)))

    def test_offers_no_unchecked_constructor(self):
        # not a tuple, so there is no _make or _replace that skips the checks,
        # and no length, iteration or concatenation either
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        assert not isinstance(p, tuple)
        assert [name for name in ("_make", "_replace", "__replace__", "__iter__", "__len__") if hasattr(p, name)] == []

    def test_fields_cannot_be_assigned_or_deleted(self):
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        for name in ("alpha", "beta", "k", "ell", "size", "extra"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(p, name, 1)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(p, name)
        assert p == Params(Fraction(1, 2), Fraction(3, 2), 1, 2)

    @pytest.mark.usefixtures("fresh_family")
    def test_equal_values_are_one_key(self):
        a, b = Params("1/2", "3/2", 1, 2), Params(Fraction(1, 2), Fraction(3, 2), Fraction(1), 2)
        assert a is not b and a == b and hash(a) == hash(b)
        fam = family(a)
        assert family(b) is fam and family.cache_info().hits == 1
        assert a != Params("1/2", "3/2", 1, 3)
        assert a != (a.alpha, a.beta, a.k, a.ell) and a != SimpleNamespace(**vars(a))
        assert a.__eq__(SimpleNamespace(**vars(a))) is NotImplemented

    def test_repr(self):
        assert repr(Params(Fraction(1, 2), Fraction(3, 2), 1, 2)) == (
            "Params(alpha=Fraction(1, 2), beta=Fraction(3, 2), k=Fraction(1, 1), ell=2)"
        )
        assert repr(Params("1/3", 0, "1/2", 1)) == (
            "Params(alpha=Fraction(1, 3), beta=Fraction(0, 1), k=Fraction(1, 2), ell=1)"
        )

    def test_as_dict(self):
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        assert p.as_dict() == {"alpha": "1/2", "beta": "3/2", "k": "1", "ell": 2}


def read_hyper(p: Params) -> tuple:
    """(C, U, V) read back from hyper_operator(p) = u(1-u) d^2 + (C - u U) d - V."""
    op = hyper_operator(p)
    a1, a0 = op.coeff_of_order(1), op.coeff_of_order(0)
    return a1.coeff(0), (-a1).coeff(1), (-a0).coeff(0)


def read_companion(p: Params) -> tuple:
    """(Q0, Q1, R0, R1) read back from companion_operator(p), whose A2 is
    (1-u)(Q0 + u Q1) and whose A1 is R0 + u R1."""
    op = companion_operator(p)
    a2, a1 = op.coeff_of_order(2), op.coeff_of_order(1)
    return a2.coeff(0), (-a2).coeff(2), a1.coeff(0), a1.coeff(1)


class TestStructureMatrices:
    def test_recursion_matrix_base(self):
        assert read_hyper(BASE)[0] == ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(4)))

    def test_drift_matrix_base(self):
        assert read_hyper(BASE)[1] == linalg.diagonal([4, 5])

    def test_potential_matrix_base(self):
        assert read_hyper(BASE)[2] == ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(2)))

    def test_potential_kills_first_unit_vector(self):
        for p in GRID:
            e0 = tuple((Fraction(i == 0),) for i in range(p.size))
            assert dense.is_zero_matrix(dense.matmul(read_hyper(p)[2], e0))

    def test_recursion_shifts_invertible(self):
        # the series recursion divides by C + i for every i >= 0
        for p in GRID:
            for i in range(8):
                shifted = linalg.add(read_hyper(p)[0], linalg.scale(linalg.identity(p.size), i))
                assert dense.det(shifted) != 0


def closed_form_core_rank_two(p: Params) -> MatPoly:
    """Independent route for ell = 1: the 2 x 2 weight core written out by hand."""
    assert p.ell == 1
    b, k = p.beta, p.k
    z00 = (k + (b - k + 1), -k)
    z01 = (0, b - k + 1)
    z11 = (0, 0, b - k + 1)
    coeffs = []
    for m in range(3):
        row0 = [z00[m] if m < len(z00) else 0, z01[m] if m < len(z01) else 0]
        row1 = [z01[m] if m < len(z01) else 0, z11[m]]
        coeffs.append([row0, row1])
    return MatPoly(2, coeffs)


class TestWeightCore:
    def test_rank_two_closed_form(self):
        for p in [BASE, Params(Fraction(1, 2), Fraction(3, 2), Fraction(3, 4), 1)]:
            assert weight_core(p) == closed_form_core_rank_two(p)

    def test_rank_two_determinant(self):
        # det Z = k (beta - k + 1) u^2 (1 - u)
        for p in [BASE, Params(2, Fraction(5, 2), Fraction(1, 3), 1)]:
            z = weight_core(p)
            det = z.entry(0, 0), z.entry(1, 1), z.entry(0, 1)

            def poly_mul(a, b):
                out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        out[i + j] += x * y
                return out

            lhs = poly_mul(det[0], det[1])
            rhs = poly_mul(det[2], det[2])
            got = [x - y for x, y in zip(lhs, rhs)] + list(lhs[len(rhs):])
            c = p.k * (p.beta - p.k + 1)
            assert got == [0, 0, c, -c]

    def test_symmetric_and_degree_bounded(self):
        # the symmetry checks and the Gram blocks below the diagonal rely on Z = Z^T
        for p in GRID + [Params(0, 1, 1, 6), Params(Fraction(1, 2), Fraction(3, 2), 1, 10)]:
            z = weight_core(p)
            assert z == z.transpose()
            assert z.degree <= 2 * p.ell

    @staticmethod
    def _nonzero_and_band(p):
        z = weight_core(p)
        nonzero = {(c, i, j) for c, zc in enumerate(z.num) for i, row in enumerate(zc) for j, x in enumerate(row) if x}
        band = {(c, i, j) for i in range(p.size) for j in range(p.size) for c in range(i + j, p.ell + min(i, j) + 1)}
        return nonzero, band

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_nonzero_entries_are_the_band(self, ell):
        # moment_rows reads only the core's nonzero entries, Z_c[i][j] with
        # i + j <= c <= ell + min(i, j); at a generic point none inside vanishes
        nonzero, band = self._nonzero_and_band(Params(Fraction(1, 2), Fraction(3, 2), 1, ell))
        assert nonzero == band

    @pytest.mark.parametrize("p", [Params(0, 1, Fraction(3, 2), 2), Params(0, 1, 1, 6)], ids=str)
    def test_nonzero_entries_lie_in_the_band_at_resonant_points(self, p):
        nonzero, band = self._nonzero_and_band(p)
        assert nonzero <= band

    def test_value_at_zero_concentrates(self):
        for p in GRID:
            z0 = weight_core(p).evaluate(0)
            assert z0[0][0] > 0
            for i in range(p.size):
                for j in range(p.size):
                    if (i, j) != (0, 0):
                        assert z0[i][j] == 0

    def test_entry_recurrence(self):
        # (i+1) z[i+1][j] - (j+1) z[i][j+1] = u (j - i) z[i][j]
        for p in GRID:
            z = weight_core(p)
            width = int(z.degree) + 2

            def padded(seq):
                return list(seq) + [Fraction(0)] * (width - len(seq))

            for i in range(p.ell):
                for j in range(p.ell):
                    lhs = [
                        (i + 1) * a - (j + 1) * b
                        for a, b in zip(padded(z.entry(i + 1, j)), padded(z.entry(i, j + 1)))
                    ]
                    rhs = padded([Fraction(0)] + [(j - i) * c for c in z.entry(i, j)])
                    assert lhs == rhs

    def test_positive_definite_inside_interval(self):
        for p in GRID:
            for u0 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                minors = dense.leading_principal_minors(weight_core(p).evaluate(u0))
                assert all(m > 0 for m in minors)


class TestOperators:
    def test_companion_blocks_base(self):
        q0, q1, r0, r1 = read_companion(BASE)
        assert q0 == ((0, 0), (3, 0))
        assert q1 == linalg.diagonal([-1, 2])
        assert r0 == ((1, 0), (-7, 5))
        assert r1 == ((4, 3), (0, -10))

    def test_companion_q1_diagonal_rank_three(self):
        p = Params(1, 1, Fraction(1, 2), 2)
        assert read_companion(p)[1] == linalg.diagonal([-1, 2, 5])

    def test_companion_zero_order_is_scaled_hyper(self):
        for p in GRID:
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            lhs = companion_operator(p).coeff_of_order(0)
            rhs = hyper_operator(p).coeff_of_order(0) * scalar
            assert lhs == rhs

    def test_companion_leading_factorization(self):
        # Q0 and Q1 are read from A2's two ends, so this holds its middle
        # coefficient to Q1 - Q0 (A2 vanishes at u = 1) and its degree to 2
        for p in GRID:
            q0, q1, _, _ = read_companion(p)
            expect = MatPoly.from_scalar(p.size, (1, -1)) * MatPoly(p.size, (q0, q1))
            assert companion_operator(p).coeff_of_order(2) == expect

    def test_degree_bounds(self):
        for p in GRID:
            assert hyper_operator(p).is_degree_bounded()
            assert companion_operator(p).is_degree_bounded()


# the points the integer construction is held to its Fraction oracle at:
# ell = 1..10, two resonant points, both seed-0 sweep-resonant points and one more
ORACLE_POINTS = [Params(Fraction(1, 2), Fraction(3, 2), 1, ell) for ell in range(1, 11)] + [
    Params(0, 1, Fraction(3, 2), 2),
    Params(0, 1, 1, 6),
    Params(Fraction(-1, 2), Fraction(8, 3), Fraction(13, 12), 4),
    Params(Fraction(5, 2), Fraction(7, 3), Fraction(11, 18), 4),
    Params(Fraction(5, 2), Fraction(2, 3), Fraction(1, 2), 3),
]

# every arithmetic operator of Fraction; comparisons and construction are not counted
FRACTION_ARITHMETIC = (
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ __floordiv__ __rfloordiv__"
    " __mod__ __rmod__ __divmod__ __rdivmod__ __pow__ __rpow__ __neg__ __pos__ __abs__"
).split()


def numerators(coeffs) -> tuple:
    return tuple((c.num, c.den) for c in coeffs)


class TestIntegerConstruction:
    @pytest.mark.parametrize("p", ORACLE_POINTS, ids=str)
    def test_matches_fraction_oracle(self, p):
        got, want = weight_core(p), oracle.weight_core(p)
        assert (got.num, got.den) == (want.num, want.den)
        assert numerators(hyper_operator(p).coeffs) == numerators(oracle.hyper_coeffs(p))
        assert numerators(companion_operator(p).coeffs) == numerators(oracle.companion_coeffs(p))

    @pytest.mark.parametrize("p", ORACLE_POINTS, ids=str)
    def test_operators_hold_the_lcm_clearing(self, p):
        # each operator holds the oracle's Fraction entries of A_0, A_1, A_2
        # cleared by the lcm of all of their denominators
        ops = hyper_operator(p), companion_operator(p)
        refs = [[c.coeffs for c in reversed(coeffs)] for coeffs in (oracle.hyper_coeffs(p), oracle.companion_coeffs(p))]
        for op, ref in zip(ops, refs):
            den = math.lcm(*(x.denominator for a in ref for m in a for row in m for x in row))
            num = tuple(tuple(tuple(tuple(int(x * den) for x in row) for row in m) for m in a) for a in ref)
            assert (op.num, op.den) == (num, den)
        # so is their product, rebuilt from the MatPoly views of its coefficients
        prod = ops[0].compose(ops[1])
        assert DiffOp.from_ascending(p.size, reversed(prod.coeffs)) == prod
        assert [prod.coeff_of_order(t).coeffs for t in range(prod.order + 1)] == oracle.compose(*refs)

    def test_companion_builds_without_a_matrix_product(self, monkeypatch):
        # A2 = (1-u)(Q0 + u Q1) is written by its three coefficients, not as
        # a product with the identity multiple 1 - u
        calls, real = [], matpoly._product_sum
        monkeypatch.setattr(matpoly, "_product_sum", lambda *args: calls.append(args) or real(*args))
        companion_operator(Params(Fraction(1, 2), Fraction(3, 2), 1, 10))
        assert calls == []
        assert MatPoly.from_scalar(2, (1, 1)) * MatPoly.from_scalar(2, (1,))  # the counter sees a product
        assert len(calls) == 1

    def test_builds_without_fraction_arithmetic(self, monkeypatch):
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 10)
        calls = []
        for name in FRACTION_ARITHMETIC:

            def counted(*args, name=name, original=getattr(Fraction, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        weight_core(p)
        hyper_operator(p)
        companion_operator(p)
        assert calls == []
        assert Fraction(1, 2) * 3 == Fraction(3, 2)  # the counter sees Fraction arithmetic
        assert calls == ["__mul__"]


class TestEigenvalues:
    def test_frozen_values(self):
        assert hyper_eigenvalue(BASE, 1, 0) == -4
        assert hyper_eigenvalue(BASE, 0, 1) == -2
        assert companion_eigenvalue(BASE, 0, 1) == -10
        assert companion_eigenvalue(BASE, 1, 0) == 4

    def test_eigenvalue_matrix(self):
        assert linalg.diagonal(hyper_eigenvalue(BASE, 1, j) for j in range(2)) == linalg.diagonal([-4, -7])
        assert linalg.diagonal(companion_eigenvalue(BASE, 0, j) for j in range(2)) == linalg.diagonal([0, -10])

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hyper_eigenvalue(BASE, -1, 0)
        with pytest.raises(ValueError):
            companion_eigenvalue(BASE, 0, 2)

    @pytest.mark.parametrize("w, j", INEXACT)
    def test_hyper_eigenvalue_rejects_inexact_slots(self, w, j):
        with pytest.raises(ValueError, match="integer"):
            hyper_eigenvalue(BASE, w, j)

    @pytest.mark.parametrize("w, j", INEXACT)
    def test_companion_eigenvalue_rejects_inexact_slots(self, w, j):
        with pytest.raises(ValueError, match="integer"):
            companion_eigenvalue(BASE, w, j)

    def test_scalar_relation(self):
        # mu = (alpha + 2 ell + 3k + 3w) lambda + 3w (ell + k + w)(w + alpha + beta + ell + 1)
        for p in GRID:
            a, b, k, ell = p.alpha, p.beta, p.k, p.ell
            for w in range(12):
                for j in range(p.size):
                    lam = hyper_eigenvalue(p, w, j)
                    mu = companion_eigenvalue(p, w, j)
                    assert mu == (a + 2 * ell + 3 * k + 3 * w) * lam + 3 * w * (ell + k + w) * (
                        w + a + b + ell + 1
                    )

    def test_hyper_strictly_decreasing_in_w(self):
        for p in GRID:
            for j in range(p.size):
                vals = [hyper_eigenvalue(p, w, j) for w in range(25)]
                assert all(x > y for x, y in zip(vals, vals[1:]))


class TestMonicEigenvalue:
    def test_hyper_route(self):
        # sum of weighted coefficient tops equals -n(U + n - 1) - V
        for p in GRID:
            for n in range(6):
                got = monic_matrix(hyper_operator(p), n).coeff(0)
                shifted = linalg.add(oracle.drift_matrix(p), linalg.scale(linalg.identity(p.size), n - 1))
                expect = dense.sub(linalg.scale(shifted, -n), oracle.potential_matrix(p))
                assert got == expect

    def test_companion_route(self):
        for p in GRID:
            q0, q1, r0, r1 = oracle.companion_blocks(p)
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            for n in range(6):
                got = monic_matrix(companion_operator(p), n).coeff(0)
                expect = linalg.add(
                    linalg.scale(q1, -n * (n - 1)),
                    dense.sub(linalg.scale(r1, n), linalg.scale(oracle.potential_matrix(p), scalar)),
                )
                assert got == expect

    def test_diagonal_matches_scalar_eigenvalues(self):
        for p in GRID:
            for n in range(6):
                gam = monic_matrix(hyper_operator(p), n).coeff(0)
                for j in range(p.size):
                    assert gam[j][j] == hyper_eigenvalue(p, n, j)

    def test_matrix_relation(self):
        # same affine relation as the scalar one, with the identity carrying the shift
        for p in GRID:
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            for n in range(8):
                lhs = monic_matrix(companion_operator(p), n).coeff(0)
                gam = monic_matrix(hyper_operator(p), n).coeff(0)
                shift = 3 * n * (p.ell + p.k + n) * (n + p.alpha + p.beta + p.ell + 1)
                rhs = linalg.add(
                    linalg.scale(gam, scalar + 3 * n),
                    linalg.scale(linalg.identity(p.size), shift),
                )
                assert lhs == rhs

    def test_rejects_degree_violations(self):
        bad = DiffOp(2, (MatPoly.zero(2), MatPoly.from_scalar(2, (0, 0, 1)), MatPoly.zero(2)))
        with pytest.raises(ValueError):
            monic_matrix(bad, 2)
        with pytest.raises(ValueError):
            monic_matrix(hyper_operator(BASE), -1)

    @pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2)])
    def test_rejects_non_integer_degrees(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            monic_matrix(hyper_operator(BASE), bad)

    def test_reads_the_numerators_alone(self, monkeypatch):
        # each operator is cleared once, when it is built: monic_matrix reads
        # its numerators over its denominator, never a MatPoly view of a
        # coefficient, however many degrees are asked for
        p = GRID[1]
        ops = (hyper_operator(p), companion_operator(p))
        want = [[oracle.monic_eigenvalue(op, n) for op in ops] for n in range(21)]

        def refuse(*args):
            raise AssertionError("a coefficient of the operator was read back as a MatPoly")

        monkeypatch.setattr(DiffOp, "coeffs", property(refuse))
        monkeypatch.setattr(DiffOp, "coeff_of_order", refuse)
        got = [[[list(row) for row in monic_matrix(op, n).coeff(0)] for op in ops] for n in range(21)]
        assert got == want


class TestSlotTable:
    def test_ordering_and_values(self):
        table = slot_table(BASE, 1)
        assert [(w, j) for w, j, _, _ in table] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert table[1] == (0, 1, -2, -10)

    def test_numerators_over_d(self):
        # lambda d and mu d^2, d = 6 the lcm of the parameters' denominators
        p = Params(Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), 2)
        want = [(w, j, oracle.hyper_eigenvalue(p, w, j) * 6, oracle.companion_eigenvalue(p, w, j) * 36) for w in range(4) for j in range(3)]
        assert slot_table(p, 3) == want

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            slot_table(BASE, -1)
