import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvop import linalg
from mvop.matpoly import MatPoly

import dense_reference as dense

entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def square(n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        linalg.freeze_matrix
    )


def any_square():
    return st.integers(1, 4).flatmap(square)


def column(v):
    """A vector as a one-column matrix."""
    return tuple((x,) for x in v)


def reference_rank(a):
    # plain Fraction row reduction, independent of the fraction-free path
    m = [list(row) for row in a]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def test_solve_known_system():
    a = linalg.freeze_matrix([[2, 1], [1, 3]])
    x = dense.solve_matrix(a, ((5,), (10,)))
    assert x == ((Fraction(1),), (Fraction(3),))


def test_solve_singular_raises():
    a = linalg.freeze_matrix([[1, 2], [2, 4]])
    with pytest.raises(dense.SingularMatrixError):
        dense.solve_matrix(a, ((1,), (1,)))


def test_solve_matrix_known():
    a = linalg.freeze_matrix([[2, 0], [1, 4]])
    b = linalg.identity(2)
    x = dense.solve_matrix(a, b)
    assert dense.matmul(a, x) == linalg.identity(2)


def test_nullspace_known():
    a = linalg.freeze_matrix([[1, 2], [2, 4]])
    assert dense.nullspace(a) == [(Fraction(-2), Fraction(1))]
    assert dense.nullspace(linalg.identity(3)) == []
    assert dense.nullspace(linalg.zeros(2)) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_nullspace_rectangular():
    a = linalg.freeze_matrix([[1, 1, 1]])
    basis = dense.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert dense.matmul(a, column(v)) == linalg.zeros(1, 1)


@settings(max_examples=150)
@given(any_square())
def test_nullspace_vectors_lie_in_kernel(a):
    basis = dense.nullspace(a)
    n = len(a)
    assert len(basis) == n - reference_rank(a)
    for v in basis:
        assert dense.matmul(a, column(v)) == linalg.zeros(n, 1)
    # each basis vector owns a unit slot that the others vanish on
    units = []
    for v in basis:
        slots = [
            i
            for i, x in enumerate(v)
            if x == 1 and all(w[i] == 0 for w in basis if w is not v)
        ]
        assert slots
        units.append(slots[0])
    assert len(set(units)) == len(basis)


def permanent_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += sign * term
    return total


@settings(max_examples=100)
@given(square(3))
def test_det_matches_permutation_expansion(a):
    assert dense.det(a) == permanent_det(a)


def test_leading_principal_minors():
    a = linalg.freeze_matrix([[2, 1], [1, 2]])
    assert dense.leading_principal_minors(a) == [Fraction(2), Fraction(3)]


@settings(max_examples=60)
@given(square(3), square(3))
def test_transpose_of_product(a, b):
    assert linalg.transpose(dense.matmul(a, b)) == dense.matmul(
        linalg.transpose(b), linalg.transpose(a)
    )


@settings(max_examples=60)
@given(any_square())
def test_solve_reproduces_product(a):
    n = len(a)
    if dense.det(a) == 0:
        return
    x = tuple((Fraction(i + 1, 2),) for i in range(n))
    b = dense.matmul(a, x)
    assert dense.solve_matrix(a, b) == x


# --- the integer product kernel against literal Fraction loops ---

# primes far above any denominator the other entries produce, so their lcms grow
LARGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 10**9 + 7)
scalar = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from(LARGE_PRIMES)),
)


def matrix(n, m):
    """n x m tuples mixing int and Fraction entries, with some all-zero rows
    and some all-int rows."""
    row = st.one_of(
        st.just([0] * m),
        st.lists(st.integers(-9, 9), min_size=m, max_size=m),
        st.lists(scalar, min_size=m, max_size=m),
    )
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: tuple(map(tuple, rows)))


@st.composite
def product_terms(draw):
    """Pairs (L_k, R_k) of shapes n x m_k and m_k x p, with m_k varying by term."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 3))
        terms.append((draw(matrix(n, m)), draw(matrix(m, p))))
    return [a for a, _ in terms], [b for _, b in terms]


def literal_product_sum(lefts, rights):
    n, p = len(lefts[0]), len(rights[0][0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for a, b in zip(lefts, rights):
        for i in range(n):
            for j in range(p):
                for t in range(len(b)):
                    out[i][j] += Fraction(a[i][t]) * Fraction(b[t][j])
    return tuple(map(tuple, out))


def assert_lowest_terms(mat):
    for row in mat:
        for x in row:
            assert type(x) is Fraction
            assert x.denominator > 0
            assert math.gcd(x.numerator, x.denominator) == 1


@settings(max_examples=200)
@given(product_terms())
def test_matmul_sum_matches_literal_loops(terms):
    lefts, rights = terms
    out = dense.matmul_sum(lefts, rights)
    assert out == literal_product_sum(lefts, rights)
    assert_lowest_terms(out)
    for a, b in zip(lefts, rights):
        one = dense.matmul(a, b)
        assert one == literal_product_sum([a], [b])
        assert_lowest_terms(one)


@st.composite
def matpoly_pair(draw):
    dim, inner, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ps = draw(st.lists(matrix(dim, inner), max_size=4))
    qs = draw(st.lists(matrix(inner, cols), max_size=4))
    return MatPoly(dim, ps, inner), MatPoly(inner, qs, cols)


@settings(max_examples=150)
@given(matpoly_pair())
def test_matpoly_product_matches_literal_loops(pair):
    f, g = pair
    n = max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    out = [[[Fraction(0)] * g.cols for _ in range(f.dim)] for _ in range(n)]
    for a, fa in enumerate(f.coeffs):
        for b, gb in enumerate(g.coeffs):
            for i in range(f.dim):
                for j in range(g.cols):
                    for t in range(f.cols):
                        out[a + b][i][j] += fa[i][t] * gb[t][j]
    product = f * g
    assert product == MatPoly(f.dim, out, g.cols)
    for c in product.coeffs:
        assert_lowest_terms(c)


def test_matmul_sum_clears_each_term_over_a_common_denominator():
    # the second term alone carries the large denominators on both sides
    big = 2**61 - 1
    lefts = [((Fraction(1, 2),),), ((Fraction(1, big),),)]
    rights = [((3,),), ((Fraction(big, 3),),)]
    assert dense.matmul_sum(lefts, rights) == ((Fraction(3, 2) + Fraction(1, 3),),)


@pytest.mark.parametrize(
    "lefts, rights",
    [
        ([((1, 2),)], [((3,),)]),
        ([((1,),), ((1, 2),)], [((3,),), ((3,),)]),
        ([((1,),), ((1,), (2,))], [((3,),), ((3,),)]),
        ([((1,),), ((1,),)], [((3, 4),), ((3,),)]),
    ],
)
def test_matmul_sum_rejects_mismatched_shapes(lefts, rights):
    with pytest.raises(ValueError):
        dense.matmul_sum(lefts, rights)


def test_matmul_rejects_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        dense.matmul(((1, 2),), ((3,),))


def test_add_rejects_mismatched_shapes():
    # zip would truncate: ((1, 2),) + ((3,),) read as ((4,),)
    with pytest.raises(ValueError):
        linalg.add(((1, 2),), ((3,),))
    with pytest.raises(ValueError):
        linalg.add(((1,), (2,)), ((3,),))


def test_sub_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        dense.sub(((1,), (2,)), ((3,),))
    with pytest.raises(ValueError):
        dense.sub(((1,),), ((3, 4),))


def test_matmul_sum_rejects_unequal_term_counts():
    with pytest.raises(ValueError):
        dense.matmul_sum([((1,),), ((2,),)], [((3,),)])


def test_matmul_sum_rejects_empty_term_list():
    with pytest.raises(ValueError):
        dense.matmul_sum([], [])


def test_freeze_keeps_fraction_entries_and_converts_ints():
    x = Fraction(2, 3)
    frozen = linalg.freeze_matrix([[x, 4]])
    assert frozen[0][0] is x
    assert type(frozen[0][1]) is Fraction and frozen[0][1] == 4


@pytest.mark.parametrize("bad", [0.5, True, "1/2", Decimal("0.5")])
def test_freeze_rejects_inexact_entries(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        linalg.freeze_matrix([[1, bad]])
