from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvop import linalg
from mvop.matpoly import NEG_INF, DiffOp, MatPoly

entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matpoly(dim, max_deg=3):
    mat = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return st.lists(mat, min_size=0, max_size=max_deg + 1).map(lambda cs: MatPoly(dim, cs))


def bounded_op(dim, max_order=2):
    """Operators whose coefficient degrees stay at or below the derivative order."""

    def build(order):
        coeff_lists = [
            st.lists(
                st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
                min_size=0,
                max_size=j + 1,
            )
            for j in range(order + 1)
        ]
        return st.tuples(*coeff_lists).map(
            lambda cs: DiffOp.from_ascending(dim, [MatPoly(dim, c) for c in cs])
        )

    return st.integers(0, max_order).flatmap(build)


def column(f, r):
    """Column r of f as a dim x 1 MatPoly."""
    return MatPoly(f.dim, [[[row[r]] for row in c] for c in f.coeffs], 1)


def test_trims_trailing_zero_coefficients():
    z = [[0, 0], [0, 0]]
    one = [[1, 0], [0, 1]]
    f = MatPoly(2, [one, z, z])
    assert f.degree == 0
    assert f == MatPoly.identity(2)


def test_column_count_defaults_to_square():
    c = [[[1, 2], [3, 4]], [[0, 1], [1, 0]]]
    assert MatPoly(2, c) == MatPoly(2, c, 2)
    assert hash(MatPoly(2, c)) == hash(MatPoly(2, c, 2))
    assert MatPoly.zero(2) == MatPoly.zero(2, 2) != MatPoly.zero(2, 1)


def test_zero_polynomial_degree_sentinel():
    assert MatPoly.zero(3).degree == NEG_INF
    assert MatPoly.zero(3, 1).degree == NEG_INF
    assert NEG_INF < 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MatPoly(2, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    with pytest.raises(ValueError):
        MatPoly.identity(2) + MatPoly.identity(3)
    with pytest.raises(ValueError):
        MatPoly(2, [[[1], [2], [3]]], 1)


def test_coefficient_must_have_dim_rows_and_cols_columns():
    with pytest.raises(ValueError):
        MatPoly(2, [[[1], [2]]])
    with pytest.raises(ValueError):
        MatPoly(2, [[[1, 2], [3, 4]]], 1)
    with pytest.raises(ValueError):
        MatPoly(2, [[[1], [2]]], 1) + MatPoly.zero(2)
    assert MatPoly(2, [[[1], [2]]], 1).cols == 1


def test_product_checks_inner_dimensions():
    col = MatPoly(2, [[[1], [2]]], 1)
    with pytest.raises(ValueError):
        col * MatPoly.identity(2)
    with pytest.raises(ValueError):
        col * col
    assert MatPoly.zero(2, 1) * MatPoly.identity(1) == MatPoly.zero(2, 1)
    assert col.transpose() * col == MatPoly(1, [[[5]]])
    assert col * col.transpose() == MatPoly(2, [[[1, 2], [2, 4]]])


def test_product_of_monomials():
    u = MatPoly.from_scalar(2, (0, 1))
    assert (u * u).coeffs == MatPoly.from_scalar(2, (0, 0, 1)).coeffs
    assert (u * MatPoly.zero(2)).is_zero()


def test_mul_scalar_poly_matches_identity_product():
    f = MatPoly(2, [[[1, 2], [3, 4]], [[0, 1], [1, 0]]])
    s = (Fraction(1), Fraction(-2), Fraction(1, 3))
    assert f.mul_scalar_poly(s) == f * MatPoly.from_scalar(2, s)


def test_derivative_and_evaluate():
    f = MatPoly.from_scalar(2, (5, 0, 3))
    assert f.derivative() == MatPoly.from_scalar(2, (0, 6))
    assert MatPoly.constant([[7, 0], [0, 7]]).derivative().is_zero()
    assert f.evaluate(Fraction(1, 2)) == linalg.scale(linalg.identity(2), Fraction(23, 4))


def test_entry_extraction():
    f = MatPoly(2, [[[0, 1], [0, 0]], [[0, 2], [0, 0]]])
    assert f.entry(0, 1) == (Fraction(1), Fraction(2))
    assert f.entry(1, 0) == ()


@settings(max_examples=60)
@given(matpoly(2), matpoly(2))
def test_transpose_antihomomorphism(f, g):
    assert (f * g).transpose() == g.transpose() * f.transpose()


@settings(max_examples=60)
@given(matpoly(2), matpoly(2), matpoly(2))
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(bounded_op(2), matpoly(2), matpoly(2))
def test_apply_and_product_act_column_by_column(op, f, g):
    image = op.apply(f)
    product = f * g
    for r in range(2):
        assert column(image, r) == op.apply(column(f, r))
        assert column(product, r) == f * column(g, r)


def test_monomial_factory():
    f = MatPoly.monomial(2, [[0, 1], [0, 0]], 3)
    assert f.degree == 3
    assert f.coeff(3)[0][1] == 1
    with pytest.raises(ValueError):
        MatPoly.monomial(2, [[0, 1], [0, 0]], -1)


def test_json_dict_schema():
    f = MatPoly(2, [[[1, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 0]]])
    d = f.to_json_dict()
    assert d == {"dim": 2, "coeffs": [["1", "0", "0", "1"], ["1/2", "0", "0", "0"]]}
    assert MatPoly.zero(2).to_json_dict() == {"dim": 2, "coeffs": []}


def test_column_roundtrip_and_arith():
    v = MatPoly(2, [[[1], [0]], [[Fraction(1, 2)], [-1]]], 1)
    assert v.to_json_dict()["coeffs"] == [["1", "0"], ["1/2", "-1"]]
    assert (v - v).is_zero()
    assert (v * Fraction(2)).coeff(1) == ((Fraction(1),), (Fraction(-2),))
    assert v.evaluate(1) == ((Fraction(3, 2),), (Fraction(-1),))
    assert v.derivative() == MatPoly(2, [[[Fraction(1, 2)], [-1]]], 1)
    assert v.transpose() == MatPoly(1, [[[1, 0]], [[Fraction(1, 2), -1]]], 2)
    assert v.mul_scalar_poly((0, 1)) == MatPoly(2, [[[0], [0]], [[1], [0]], [[Fraction(1, 2)], [-1]]], 1)


def test_operator_identity_and_coeff_access():
    ident = DiffOp.identity(2)
    assert ident.order == 0
    f = MatPoly.from_scalar(2, (1, 1))
    assert ident.apply(f) == f
    assert ident.coeff_of_order(5).is_zero()


def test_operator_requires_coefficients():
    with pytest.raises(ValueError):
        DiffOp(2, ())
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.identity(3),))


def test_operator_requires_square_coefficients():
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.zero(2, 1),))
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2, 3)))
    with pytest.raises(ValueError):
        DiffOp.identity(2).apply(MatPoly.zero(3, 1))


def test_apply_derivative_operator():
    ddu = DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2)))
    f = MatPoly.from_scalar(2, (0, 0, 0, 1))
    assert ddu.apply(f) == MatPoly.from_scalar(2, (0, 0, 3))
    v = MatPoly(2, [[[0], [0]], [[1], [2]]], 1)
    assert ddu.apply(v) == MatPoly.constant([[1], [2]])
    assert ddu.apply(MatPoly.constant([[1], [2]])) == MatPoly.zero(2, 1)


def test_apply_rejects_other_types():
    with pytest.raises(TypeError):
        DiffOp.identity(2).apply("nope")


def test_compose_first_order_with_multiplication():
    # d/du after multiplication by u: u d/du + 1
    ddu = DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2)))
    mul_u = DiffOp(2, (MatPoly.from_scalar(2, (0, 1)),))
    prod = ddu.compose(mul_u)
    assert prod.order == 1
    assert prod.coeff_of_order(1) == MatPoly.from_scalar(2, (0, 1))
    assert prod.coeff_of_order(0) == MatPoly.identity(2)


@settings(max_examples=40, deadline=None)
@given(bounded_op(2), bounded_op(2), matpoly(2))
def test_compose_agrees_with_sequential_apply(op1, op2, f):
    assert op1.compose(op2).apply(f) == op1.apply(op2.apply(f))


@settings(max_examples=40, deadline=None)
@given(bounded_op(2), bounded_op(2))
def test_compose_preserves_degree_bound(op1, op2):
    assert op1.is_degree_bounded() and op2.is_degree_bounded()
    assert op1.compose(op2).is_degree_bounded()


@settings(max_examples=40, deadline=None)
@given(bounded_op(2), matpoly(2))
def test_degree_bounded_apply_never_raises_degree(op, f):
    assert op.apply(f).degree <= f.degree


def test_is_degree_bounded_detects_violation():
    op = DiffOp(2, (MatPoly.from_scalar(2, (0, 0, 1)), MatPoly.zero(2), MatPoly.zero(2)))
    assert op.order == 2
    assert op.is_degree_bounded()
    bad = DiffOp(2, (MatPoly.zero(2), MatPoly.from_scalar(2, (0, 0, 1)), MatPoly.zero(2)))
    assert not bad.is_degree_bounded()


def test_operator_subtraction_and_zero():
    ddu = DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2)))
    diff = ddu - ddu
    assert diff.order == 1
    assert diff.is_zero()
    ident = DiffOp.identity(2)
    padded = ddu - ident
    assert padded.order == 1
    assert padded.coeff_of_order(0) == -MatPoly.identity(2)
