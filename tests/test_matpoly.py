import math
import re
from decimal import Decimal
from operator import add, sub
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mvop import linalg
from mvop.matpoly import DiffOp, MatPoly

import fraction_oracle as oracle

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
    assert f == MatPoly.from_scalar(2, (1,))


def test_column_count_defaults_to_square():
    c = [[[1, 2], [3, 4]], [[0, 1], [1, 0]]]
    assert MatPoly(2, c) == MatPoly(2, c, 2)
    assert hash(MatPoly(2, c)) == hash(MatPoly(2, c, 2))
    assert MatPoly.zero(2) == MatPoly.zero(2, 2) != MatPoly.zero(2, 1)


@pytest.mark.parametrize("bad", [0.1, False, "1", Decimal("0.1")])
def test_rejects_inexact_coefficients(bad):
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        MatPoly(1, [[[bad]]])
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        MatPoly.constant([[1, bad]])
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        MatPoly.from_scalar(2, [1, bad])
    one = MatPoly.from_scalar(1, (1,))
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        one * MatPoly.from_scalar(one.cols, [bad])


def test_zero_polynomial_degree_sentinel():
    assert MatPoly.zero(3).degree == -1
    assert MatPoly.zero(3, 1).degree == -1


@pytest.mark.parametrize("dim", [0, 3])
@pytest.mark.parametrize("scalars", [(), (0, 0), (1,), (0, 0, 1, -2, 1), (Fraction(1, 2), -3, Fraction(-5, 6))])
def test_from_scalar_is_the_identity_times_each_coefficient(dim, scalars):
    # the integer build against the Fraction identity matrices it replaced
    want = MatPoly(dim, [linalg.scale(linalg.identity(dim), c) for c in scalars])
    assert MatPoly.from_scalar(dim, scalars) == want


@pytest.mark.parametrize("dim", [-1, 1.5, True, "2"])
def test_from_scalar_checks_dim_before_the_coefficients(dim):
    # as the constructor does, so a bad dim is a ValueError whatever the coefficients
    for scalars in ((1,), (0.5,)):
        with pytest.raises(ValueError, match="dim must be"):
            MatPoly.from_scalar(dim, scalars)
    with pytest.raises(ValueError, match="dim must be"):
        MatPoly.zero(dim)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MatPoly(2, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    with pytest.raises(ValueError):
        MatPoly.from_scalar(2, (1,)) + MatPoly.from_scalar(3, (1,))
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
        col * MatPoly.from_scalar(2, (1,))
    with pytest.raises(ValueError):
        col * col
    assert MatPoly.zero(2, 1) * MatPoly.from_scalar(1, (1,)) == MatPoly.zero(2, 1)
    assert col.transpose() * col == MatPoly(1, [[[5]]])
    assert col * col.transpose() == MatPoly(2, [[[1, 2], [2, 4]]])


def test_product_of_monomials():
    u = MatPoly.from_scalar(2, (0, 1))
    assert (u * u).coeffs == MatPoly.from_scalar(2, (0, 0, 1)).coeffs
    assert (u * MatPoly.zero(2)).is_zero()


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


@pytest.mark.parametrize(
    "power, message",
    [(-1, "power must be >= 0"), (True, "not bool"), ("2", "not str"), (1.5, "not float")],
)
def test_monomial_power_must_be_a_count(power, message):
    # a count is a non-negative int: a bool, a string or a float is refused
    with pytest.raises(ValueError, match=message):
        MatPoly.monomial(2, [[0, 1], [0, 0]], power)


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
    assert v * MatPoly.from_scalar(v.cols, (0, 1)) == MatPoly(2, [[[0], [0]], [[1], [0]], [[Fraction(1, 2)], [-1]]], 1)


def test_operator_identity_and_coeff_access():
    ident = DiffOp(2, (MatPoly.from_scalar(2, (1,)),))
    assert ident.order == 0
    f = MatPoly.from_scalar(2, (1, 1))
    assert ident.apply(f) == f
    assert ident.coeff_of_order(5).is_zero()


def test_operator_requires_coefficients():
    with pytest.raises(ValueError):
        DiffOp(2, ())
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.from_scalar(3, (1,)),))


def test_operator_requires_square_coefficients():
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.zero(2, 1),))
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2, 3)))
    with pytest.raises(ValueError):
        DiffOp(2, (MatPoly.from_scalar(2, (1,)),)).apply(MatPoly.zero(3, 1))


def test_apply_derivative_operator():
    ddu = DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2)))
    f = MatPoly.from_scalar(2, (0, 0, 0, 1))
    assert ddu.apply(f) == MatPoly.from_scalar(2, (0, 0, 3))
    v = MatPoly(2, [[[0], [0]], [[1], [2]]], 1)
    assert ddu.apply(v) == MatPoly.constant([[1], [2]])
    assert ddu.apply(MatPoly.constant([[1], [2]])) == MatPoly.zero(2, 1)


def test_apply_rejects_other_types():
    with pytest.raises(TypeError):
        DiffOp(2, (MatPoly.from_scalar(2, (1,)),)).apply("nope")


def test_compose_first_order_with_multiplication():
    # d/du after multiplication by u: u d/du + 1
    ddu = DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2)))
    mul_u = DiffOp(2, (MatPoly.from_scalar(2, (0, 1)),))
    prod = ddu.compose(mul_u)
    assert prod.order == 1
    assert prod.coeff_of_order(1) == MatPoly.from_scalar(2, (0, 1))
    assert prod.coeff_of_order(0) == MatPoly.from_scalar(2, (1,))


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
    ddu = DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2)))
    diff = ddu - ddu
    assert diff.order == 1
    assert diff.is_zero()
    ident = DiffOp(2, (MatPoly.from_scalar(2, (1,)),))
    padded = ddu - ident
    assert padded.order == 1
    assert padded.coeff_of_order(0) == -MatPoly.from_scalar(2, (1,))


# Property tests of the integer layer against fraction_oracle, the per-entry
# Fraction arithmetic it replaced.  Entries mix small and large denominators,
# so sums and products meet different denominators.
wide_entry = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)


def raw(rows, cols, max_len=4):
    """Coefficient lists of a rows x cols polynomial, trailing zeros allowed."""
    mat = st.lists(st.lists(wide_entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    zero = st.just([[Fraction(0)] * cols for _ in range(rows)])
    return st.lists(st.one_of(mat, zero), max_size=max_len)


def assert_reduced(f):
    """The one stored form: den > 0, no common factor with every numerator,
    a nonzero top coefficient, and num = (), den = 1 for zero."""
    assert f.den > 0
    if not f.num:
        assert f.den == 1
        return
    assert math.gcd(f.den, *(x for c in f.num for row in c for x in row)) == 1
    assert any(x for row in f.num[-1] for x in row)
    assert all(type(x) is int for c in f.num for row in c for x in row)


@st.composite
def same_shape(draw, count):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [MatPoly(rows, draw(raw(rows, cols)), cols) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_constructor_trims_and_reads_back_the_fractions(rows, cols, data):
    cs = data.draw(raw(rows, cols))
    f = MatPoly(rows, cs, cols)
    assert_reduced(f)
    assert f.coeffs == oracle.trim(cs)
    assert f.to_json_dict()["coeffs"] == [[str(x) for row in c for x in row] for c in oracle.trim(cs)]


@settings(max_examples=80, deadline=None)
@given(same_shape(2), wide_entry)
def test_linear_operations_match_the_oracle(pair, s):
    f, g = pair
    for got, want in [
        (f + g, oracle.add(f.coeffs, g.coeffs)),
        (f - g, oracle.sub(f.coeffs, g.coeffs)),
        (-f, oracle.neg(f.coeffs)),
        (f * s, oracle.scale(f.coeffs, s)),
        (3 * f, oracle.scale(f.coeffs, 3)),
        (f.derivative(), oracle.derivative(f.coeffs)),
        (f.transpose(), oracle.transpose(f.coeffs)),
    ]:
        assert_reduced(got)
        assert got.coeffs == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_product_matches_the_oracle(rows, inner, cols, data):
    f = MatPoly(rows, data.draw(raw(rows, inner)), inner)
    g = MatPoly(inner, data.draw(raw(inner, cols)), cols)
    product = f * g
    assert_reduced(product)
    assert product.coeffs == oracle.mul(f.coeffs, g.coeffs)
    s = data.draw(st.lists(wide_entry, max_size=3))
    assert (f * MatPoly.from_scalar(f.cols, s)).coeffs == oracle.mul_scalar_poly(f.coeffs, s)


def operator(dim, max_order=2):
    """Operators with coefficients of any degree, the oracle's list alongside."""
    order = st.integers(0, max_order)
    return order.flatmap(lambda n: st.lists(raw(dim, dim, 3), min_size=n + 1, max_size=n + 1)).map(
        lambda cs: (DiffOp.from_ascending(dim, [MatPoly(dim, c) for c in cs]), [oracle.trim(c) for c in cs])
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.data())
def test_apply_matches_the_oracle(dim, cols, data):
    op, ref = data.draw(operator(dim))
    f = MatPoly(dim, data.draw(raw(dim, cols)), cols)
    image = op.apply(f)
    assert_reduced(image)
    assert image.coeffs == oracle.apply(ref, f.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.data())
def test_compose_matches_the_oracle(dim, data):
    (op1, ref1), (op2, ref2) = data.draw(operator(dim)), data.draw(operator(dim))
    product = op1.compose(op2)
    assert product.order == op1.order + op2.order
    for c in product.coeffs:
        assert_reduced(c)
    # the lcm of the coefficients' denominators leaves the operator's form reduced too
    assert math.gcd(product.den, *(x for a in product.num for c in a for row in c for x in row)) == 1
    assert [product.coeff_of_order(t).coeffs for t in range(product.order + 1)] == oracle.compose(ref1, ref2)


@settings(max_examples=60, deadline=None)
@given(same_shape(2), st.integers(2, 10**6))
def test_equal_polynomials_over_different_denominators_are_one_value(pair, k):
    f, g = pair
    routes = [f * Fraction(1, k) * k, (f + g) - g, f * k * Fraction(1, k), -(-f)]
    for other in routes:
        assert other == f
        assert hash(other) == hash(f)
        assert (other.num, other.den) == (f.num, f.den)
    # dividing by k cancels only what k shares with the numerators
    assert (f * Fraction(1, k)).den == f.den * k // math.gcd(k, *(x for c in f.num for row in c for x in row))


def test_zero_polynomial_and_trailing_zero_trimming():
    one = [[Fraction(1, 3), 0], [0, Fraction(-5, 6)]]
    zero = [[0, 0], [0, 0]]
    f = MatPoly(2, [one, zero, zero])
    assert f == MatPoly(2, [one]) and f.degree == 0 and len(f.num) == 1
    assert (f.num, f.den) == ((((2, 0), (0, -5)),), 6)
    for z in (f - f, f * 0, MatPoly(2, [zero, zero]), MatPoly.constant(zero).derivative(), f.derivative()):
        assert z == MatPoly.zero(2) and hash(z) == hash(MatPoly.zero(2))
        assert (z.num, z.den, z.degree) == ((), 1, -1)
    # a product of nonzero polynomials whose top coefficient cancels
    nil = MatPoly(2, [zero, [[0, 1], [0, 0]]])
    assert (nil * nil).is_zero()
    assert (MatPoly.from_scalar(2, (1,)) + nil * nil).degree == 0


@pytest.mark.parametrize("bad", [0.5, -4.0, True, "0.5", "1/2", Decimal("0.5")])
def test_evaluate_rejects_inexact_points(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        MatPoly.from_scalar(2, (1,)).evaluate(bad)


@pytest.mark.parametrize(
    "i, j", [(-1, -1), (-1, 0), (0, -1), (2, 0), (0, 1), (5, 5), (True, 0), (0, False), (0.5, 0), ("1", 0)]
)
def test_entry_rejects_indices_outside_the_matrix(i, j):
    f = MatPoly(2, [[[1], [2]], [[3], [4]]], 1)
    with pytest.raises(ValueError):
        f.entry(i, j)
    assert f.entry(1, 0) == (2, 4)


@pytest.mark.parametrize("bad", [True, 0.5, 1.0, "1", -1])
def test_coeff_rejects_non_index_powers(bad):
    f = MatPoly(2, [[[1], [2]], [[3], [4]]], 1)
    with pytest.raises(ValueError):
        f.coeff(bad)
    assert f.coeff(1) == ((3,), (4,))
    assert f.coeff(2) == ((0,), (0,))


@pytest.mark.parametrize("bad", [True, 0.5, 1.0, "1", -1])
def test_coeff_of_order_rejects_non_index_orders(bad):
    op = DiffOp(1, (MatPoly(1, [[[1]]]), MatPoly(1, [[[2]], [[3]]])))
    with pytest.raises(ValueError):
        op.coeff_of_order(bad)
    assert op.coeff_of_order(1) == MatPoly(1, [[[1]]])
    assert op.coeff_of_order(2).is_zero()



@pytest.mark.parametrize(
    "build",
    [
        lambda: MatPoly(-1, []),
        lambda: MatPoly(True, [[[1]]]),
        lambda: MatPoly(2.0, []),
        lambda: MatPoly(1, [[[1]]], False),
        lambda: MatPoly(2, [], -1),
        lambda: MatPoly(2, [], "2"),
        lambda: MatPoly.zero(-1),
        lambda: MatPoly.zero(2, 1.0),
        lambda: MatPoly.constant(()),
        lambda: MatPoly.monomial(2, (), 1),
        lambda: DiffOp(2.0, (MatPoly.zero(2),)),
        lambda: DiffOp(True, (MatPoly.zero(1),)),
        lambda: DiffOp(-1, (MatPoly.zero(1),)),
    ],
    ids=[
        "dim-negative",
        "dim-bool",
        "dim-float",
        "cols-bool",
        "cols-negative",
        "cols-str",
        "zero-dim-negative",
        "zero-cols-float",
        "constant-no-rows",
        "monomial-no-rows",
        "diffop-dim-float",
        "diffop-dim-bool",
        "diffop-dim-negative",
    ],
)
def test_shapes_must_be_counts(build):
    # dim and cols are non-negative ints, as indices are; a coefficient
    # matrix with no rows has no column count to read
    with pytest.raises(ValueError):
        build()


def test_arithmetic_with_other_types_raises_type_error():
    f = MatPoly(1, [[[1]], [[2]]])
    op = DiffOp(1, (f,))
    for value in (f, op):
        for other in (1, Fraction(1, 2), "1", None):
            for combine in (add, sub):
                with pytest.raises(TypeError):
                    combine(value, other)
                with pytest.raises(TypeError):
                    combine(other, value)
    assert f + f == f * 2 and (op - op).is_zero()
    with pytest.raises(TypeError):
        f + op
    with pytest.raises(TypeError):
        op - f


def _values():
    f = MatPoly(2, (((1, Fraction(1, 2)), (0, 3)), ((0, 1), (2, 0))))
    op = DiffOp(1, (MatPoly(1, [[[1]]]), MatPoly(1, [[[Fraction(1, 3)]], [[2]]])))
    return f, op


@pytest.mark.parametrize("index, names", [(0, ("dim", "cols", "num", "den", "degree")), (1, ("dim", "num", "den", "coeffs", "order"))])
def test_fields_cannot_be_assigned_or_deleted(index, names):
    value = _values()[index]
    before = repr(value)
    for name in names + ("extra",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
    assert repr(value) == before


def test_equal_values_compare_and_hash_equal():
    (f, op), (g, op2) = _values(), _values()
    assert f is not g and f == g and hash(f) == hash(g) and not f != g
    assert op is not op2 and op == op2 and hash(op) == hash(op2)
    assert f != f * 2 and op != -op


def test_other_classes_compare_unequal():
    f, op = _values()
    fields = SimpleNamespace(**vars(f))
    assert f != fields and f != (f.dim, f.cols, f.num, f.den) and f != op
    assert f.__eq__(fields) is NotImplemented and op.__eq__(f) is NotImplemented
    assert MatPoly.zero(1) != DiffOp(1, (MatPoly.zero(1),)) and MatPoly.zero(1) != 0


def test_repr():
    f, op = _values()
    assert repr(f) == "MatPoly(dim=2, cols=2, num=(((2, 1), (0, 6)), ((0, 2), (4, 0))), den=2)"
    assert repr(MatPoly.zero(2, 1)) == "MatPoly(dim=2, cols=1, num=(), den=1)"
    # A_0 = 1/3 + 2u and A_1 = 1 over the lcm 3 of their denominators
    assert repr(op) == "DiffOp(dim=1, num=((((1,),), ((6,),)), (((3,),),)), den=3)"
