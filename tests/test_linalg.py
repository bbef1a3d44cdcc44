import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvop import linalg

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
    x = linalg.solve_matrix(a, ((5,), (10,)))
    assert x == ((Fraction(1),), (Fraction(3),))


def test_solve_singular_raises():
    a = linalg.freeze_matrix([[1, 2], [2, 4]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve_matrix(a, ((1,), (1,)))


def test_solve_matrix_known():
    a = linalg.freeze_matrix([[2, 0], [1, 4]])
    b = linalg.identity(2)
    x = linalg.solve_matrix(a, b)
    assert linalg.matmul(a, x) == linalg.identity(2)


def test_nullspace_known():
    a = linalg.freeze_matrix([[1, 2], [2, 4]])
    assert linalg.nullspace(a) == [(Fraction(-2), Fraction(1))]
    assert linalg.nullspace(linalg.identity(3)) == []
    assert linalg.nullspace(linalg.zeros(2)) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_nullspace_rectangular():
    a = linalg.freeze_matrix([[1, 1, 1]])
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert linalg.matmul(a, column(v)) == linalg.zeros(1, 1)


@settings(max_examples=150)
@given(any_square())
def test_nullspace_vectors_lie_in_kernel(a):
    basis = linalg.nullspace(a)
    n = len(a)
    assert len(basis) == n - reference_rank(a)
    for v in basis:
        assert linalg.matmul(a, column(v)) == linalg.zeros(n, 1)
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
    assert linalg.det(a) == permanent_det(a)


def test_leading_principal_minors():
    a = linalg.freeze_matrix([[2, 1], [1, 2]])
    assert linalg.leading_principal_minors(a) == [Fraction(2), Fraction(3)]


@settings(max_examples=60)
@given(square(3), square(3))
def test_transpose_of_product(a, b):
    assert linalg.transpose(linalg.matmul(a, b)) == linalg.matmul(
        linalg.transpose(b), linalg.transpose(a)
    )


@settings(max_examples=60)
@given(any_square())
def test_solve_reproduces_product(a):
    n = len(a)
    if linalg.det(a) == 0:
        return
    x = tuple((Fraction(i + 1, 2),) for i in range(n))
    b = linalg.matmul(a, x)
    assert linalg.solve_matrix(a, b) == x
