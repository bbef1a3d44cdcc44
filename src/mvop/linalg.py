"""Exact matrices over Fraction entries: constructors and one product kernel.

Matrices are tuples of row tuples, immutable and hashable, so results can be
cached and compared structurally.  Entries are int or Fraction only
(exact_scalar).  MatPoly products and pair_rows run on one integer kernel,
int_matmul, on operands already cleared to integers over a denominator that
the caller keeps, so nothing here clears a Fraction matrix.  The sums that
read only a band or a window of terms (moment_rows over the core's band,
WeightSpec.integrals, monic_matrix) are written out where they arise.
Nothing here solves a linear system: the library only ever back-substitutes
against bidiagonal or unit triangular matrices, next to where they arise.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .exact import exact_scalar

Matrix = tuple


def freeze_matrix(rows) -> Matrix:
    return tuple(tuple(map(exact_scalar, row)) for row in rows)


def zeros(n: int, m: int | None = None) -> Matrix:
    return ((Fraction(0),) * (n if m is None else m),) * n


def identity(n: int) -> Matrix:
    return diagonal((Fraction(1),) * n)


def diagonal(entries) -> Matrix:
    """Square matrix with the given diagonal: only those entries are checked,
    and every off-diagonal entry is one shared Fraction(0)."""
    entries = [exact_scalar(x) for x in entries]
    zero = (Fraction(0),) * len(entries)
    return tuple(zero[:i] + (x,) + zero[i + 1 :] for i, x in enumerate(entries))


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def scale(a: Matrix, q) -> Matrix:
    q = exact_scalar(q)
    return tuple(tuple(q * x for x in row) for row in a)


def int_matmul(a, b) -> Matrix:
    """Product of two integer matrices, given as sequences of rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))

