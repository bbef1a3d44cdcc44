import re
from fractions import Fraction

import pytest

from mvop import linalg
from mvop.matpoly import DiffOp, MatPoly
from mvop.model import (
    EigenPair,
    Params,
    companion_blocks,
    companion_eigenvalue,
    companion_operator,
    drift_matrix,
    eigen_table,
    eigenvalue_matrix,
    hyper_eigenvalue,
    hyper_operator,
    monic_eigenvalue,
    potential_matrix,
    recursion_matrix,
    weight_core,
)

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)


class TestParams:
    def test_coerces_to_fractions(self):
        p = Params("1/2", 1, "1/3", 2)
        assert p.alpha == Fraction(1, 2) and isinstance(p.alpha, Fraction)
        assert p.k == Fraction(1, 3)
        assert p.size == 3

    @pytest.mark.parametrize(
        "args, message",
        [
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
        ],
    )
    def test_rejects_inadmissible(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Params(*args)

    def test_as_dict(self):
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        assert p.as_dict() == {"alpha": "1/2", "beta": "3/2", "k": "1", "ell": 2}


class TestStructureMatrices:
    def test_recursion_matrix_base(self):
        assert recursion_matrix(BASE) == ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(4)))

    def test_drift_matrix_base(self):
        assert drift_matrix(BASE) == linalg.diagonal([4, 5])

    def test_potential_matrix_base(self):
        assert potential_matrix(BASE) == ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(2)))

    def test_potential_kills_first_unit_vector(self):
        for p in GRID:
            e0 = tuple(Fraction(i == 0) for i in range(p.size))
            assert not any(linalg.matvec(potential_matrix(p), e0))

    def test_recursion_shifts_invertible(self):
        # the series recursion divides by recursion_matrix + i for every i >= 0
        for p in GRID:
            for i in range(8):
                shifted = linalg.add(recursion_matrix(p), linalg.scale(linalg.identity(p.size), i))
                assert linalg.det(shifted) != 0


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
        for p in GRID:
            z = weight_core(p)
            assert z == z.transpose()
            assert z.degree <= 2 * p.ell

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
                minors = linalg.leading_principal_minors(weight_core(p).evaluate(u0))
                assert all(m > 0 for m in minors)


class TestOperators:
    def test_hyper_coefficients(self):
        op = hyper_operator(BASE)
        assert op.order == 2
        assert op.coeff_of_order(2) == MatPoly.from_scalar(2, (0, 1, -1))
        assert op.coeff_of_order(1) == MatPoly(
            2, [recursion_matrix(BASE), linalg.scale(drift_matrix(BASE), -1)]
        )
        assert op.coeff_of_order(0) == MatPoly.constant(linalg.scale(potential_matrix(BASE), -1))

    def test_companion_blocks_base(self):
        q0, q1, r0, r1 = companion_blocks(BASE)
        assert q0 == ((0, 0), (3, 0))
        assert q1 == linalg.diagonal([-1, 2])
        assert r0 == ((1, 0), (-7, 5))
        assert r1 == ((4, 3), (0, -10))

    def test_companion_q1_diagonal_rank_three(self):
        p = Params(1, 1, Fraction(1, 2), 2)
        _, q1, _, _ = companion_blocks(p)
        assert q1 == linalg.diagonal([-1, 2, 5])

    def test_companion_zero_order_is_scaled_hyper(self):
        for p in GRID:
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            lhs = companion_operator(p).coeff_of_order(0)
            rhs = hyper_operator(p).coeff_of_order(0) * scalar
            assert lhs == rhs

    def test_companion_leading_factorization(self):
        for p in GRID:
            q0, q1, _, _ = companion_blocks(p)
            expect = MatPoly.from_scalar(p.size, (1, -1)) * MatPoly(p.size, (q0, q1))
            assert companion_operator(p).coeff_of_order(2) == expect

    def test_degree_bounds(self):
        for p in GRID:
            assert hyper_operator(p).is_degree_bounded()
            assert companion_operator(p).is_degree_bounded()


class TestEigenvalues:
    def test_frozen_values(self):
        assert hyper_eigenvalue(BASE, 1, 0) == -4
        assert hyper_eigenvalue(BASE, 0, 1) == -2
        assert companion_eigenvalue(BASE, 0, 1) == -10
        assert companion_eigenvalue(BASE, 1, 0) == 4

    def test_eigenvalue_matrix(self):
        assert eigenvalue_matrix(BASE, 1, "hyper") == linalg.diagonal([-4, -7])
        assert eigenvalue_matrix(BASE, 0, "companion") == linalg.diagonal([0, -10])
        with pytest.raises(ValueError):
            eigenvalue_matrix(BASE, 1, "both")

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hyper_eigenvalue(BASE, -1, 0)
        with pytest.raises(ValueError):
            companion_eigenvalue(BASE, 0, 2)

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
                got = monic_eigenvalue(hyper_operator(p), n)
                shifted = linalg.add(drift_matrix(p), linalg.scale(linalg.identity(p.size), n - 1))
                expect = linalg.sub(linalg.scale(shifted, -n), potential_matrix(p))
                assert got == expect

    def test_companion_route(self):
        for p in GRID:
            q0, q1, r0, r1 = companion_blocks(p)
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            for n in range(6):
                got = monic_eigenvalue(companion_operator(p), n)
                expect = linalg.add(
                    linalg.scale(q1, -n * (n - 1)),
                    linalg.sub(linalg.scale(r1, n), linalg.scale(potential_matrix(p), scalar)),
                )
                assert got == expect

    def test_diagonal_matches_scalar_eigenvalues(self):
        for p in GRID:
            for n in range(6):
                gam = monic_eigenvalue(hyper_operator(p), n)
                for j in range(p.size):
                    assert gam[j][j] == hyper_eigenvalue(p, n, j)

    def test_matrix_relation(self):
        # same affine relation as the scalar one, with the identity carrying the shift
        for p in GRID:
            scalar = p.alpha + 2 * p.ell + 3 * p.k
            for n in range(8):
                lhs = monic_eigenvalue(companion_operator(p), n)
                gam = monic_eigenvalue(hyper_operator(p), n)
                shift = 3 * n * (p.ell + p.k + n) * (n + p.alpha + p.beta + p.ell + 1)
                rhs = linalg.add(
                    linalg.scale(gam, scalar + 3 * n),
                    linalg.scale(linalg.identity(p.size), shift),
                )
                assert lhs == rhs

    def test_rejects_degree_violations(self):
        bad = DiffOp(2, (MatPoly.zero(2), MatPoly.from_scalar(2, (0, 0, 1)), MatPoly.zero(2)))
        with pytest.raises(ValueError):
            monic_eigenvalue(bad, 2)
        with pytest.raises(ValueError):
            monic_eigenvalue(hyper_operator(BASE), -1)


class TestEigenTable:
    def test_ordering_and_values(self):
        table = eigen_table(BASE, 1)
        assert [(e.w, e.j) for e in table] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert table[1] == EigenPair(0, 1, Fraction(-2), Fraction(-10))

    def test_as_dict(self):
        row = eigen_table(BASE, 0)[1]
        assert row.as_dict() == {"w": 0, "j": 1, "lambda": "-2", "mu": "-10"}

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            eigen_table(BASE, -1)
