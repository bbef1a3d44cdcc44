from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvop import linalg
from mvop.hyper import (
    bracket_seq,
    build_column,
    find_collisions,
    kernel_vector,
    leading_coefficient,
    orthogonal_polynomial,
    poly_solution_space,
    termination_matrix,
)
from mvop.model import (
    Params,
    drift_matrix,
    hyper_eigenvalue,
    hyper_operator,
    potential_matrix,
    recursion_matrix,
)
from mvop.verify import vec_inner_product, weight_spec

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)
COLLIDING = Params(0, 1, Fraction(3, 2), 2)


def column(vec):
    """A vector as the dim x 1 coefficient matrix of a column eigenfunction."""
    return tuple((x,) for x in vec)


def shifted_termination(p, w, j):
    """Second route: w (drift + w - 1) + potential + lambda."""
    eye = linalg.identity(p.size)
    lam = hyper_eigenvalue(p, w, j)
    return linalg.add(
        linalg.scale(linalg.add(drift_matrix(p), linalg.scale(eye, w - 1)), w),
        linalg.add(potential_matrix(p), linalg.scale(eye, lam)),
    )


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
                lhs = linalg.matmul(
                    linalg.add(recursion_matrix(p), linalg.scale(eye, i)), seq[i + 1]
                )
                numerator = linalg.add(
                    linalg.scale(linalg.add(drift_matrix(p), linalg.scale(eye, i - 1)), i),
                    linalg.add(potential_matrix(p), linalg.scale(eye, lam)),
                )
                assert lhs == linalg.matmul(numerator, seq[i])

    def test_termination_shows_up_as_rank_drop(self):
        # at lam = hyper_eigenvalue(1, 0) the next bracket is singular, the current one is not
        lam = hyper_eigenvalue(BASE, 1, 0)
        assert lam == -4
        seq = bracket_seq(BASE, lam, 2).coeffs
        assert linalg.det(seq[1]) != 0
        assert linalg.det(seq[2]) == 0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            bracket_seq(BASE, 0, -1)


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
                    assert linalg.det(termination_matrix(p, w, j)) == 0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            termination_matrix(BASE, -1, 0)
        with pytest.raises(ValueError):
            termination_matrix(BASE, 0, 5)


class TestKernelVector:
    def test_frozen_example(self):
        assert kernel_vector(BASE, 0, 1) == (Fraction(-1, 2), Fraction(1))

    def test_unit_slot_and_support(self):
        for p in GRID:
            for j in range(p.size):
                x = kernel_vector(p, 3, j)
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
        assert not any(linalg.matvec(m, kernel_vector(p, w, j)))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            kernel_vector(BASE, -1, 0)
        with pytest.raises(ValueError):
            kernel_vector(BASE, 0, 3)


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

    def test_w_bound_guard(self):
        with pytest.raises(RuntimeError):
            find_collisions(BASE, -10**6, w_bound=5)


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
                assert col.coeff(0) == column(kernel_vector(p, 0, j))

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
                    assert col.coeff(w) == column(kernel_vector(p, w, j))

    def test_collision_columns_frozen(self):
        first = build_column(COLLIDING, 0, 2)
        assert first.degree == 0
        assert first.coeff(0) == ((Fraction(3, 35),), (Fraction(-3, 7),), (Fraction(1),))
        second = build_column(COLLIDING, 1, 0)
        assert second.degree == 1
        assert second.coeff(1) == ((Fraction(1),), (Fraction(0),), (Fraction(0),))
        assert second.coeff(0) == ((Fraction(-12, 35),), (Fraction(-2, 7),), (Fraction(0),))

    def test_collision_columns_orthogonal(self):
        # a two-member class, and a three-member one (these need ell >= 4)
        for p, slots in (
            (COLLIDING, ((0, 2), (1, 0))),
            (Params(0, 3, 1, 5), ((4, 5), (6, 2), (7, 0))),
        ):
            assert find_collisions(p, hyper_eigenvalue(p, *slots[0])).members == slots
            ws = weight_spec(p)
            cols = [build_column(p, w, j) for w, j in slots]
            for x, cx in enumerate(cols):
                assert vec_inner_product(cx, cx, ws) > 0
                for cy in cols[:x]:
                    assert vec_inner_product(cx, cy, ws) == 0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            build_column(BASE, -1, 0)
        with pytest.raises(ValueError):
            build_column(BASE, 0, 9)


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
                lead = leading_coefficient(p, w)
                assert poly.coeff(w) == lead
                for r in range(p.size):
                    assert lead[r] == kernel_vector(p, w, r)

    def test_leading_unit_lower_triangular(self):
        for p in GRID:
            for w in range(4):
                lead = leading_coefficient(p, w)
                for r in range(p.size):
                    assert lead[r][r] == 1
                    assert all(lead[r][c] == 0 for c in range(r + 1, p.size))

    def test_zero_order_polynomial_has_triangular_value(self):
        p0 = orthogonal_polynomial(BASE, 0)
        assert p0.degree == 0
        assert p0.coeff(0) == ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1)))
