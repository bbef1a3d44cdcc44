"""Matrix polynomials over exact rationals, square or rectangular, plus
differential operators with square matrix-polynomial coefficients acting from
the left.  A vector-valued polynomial is a matrix polynomial with one column.

A MatPoly holds integer coefficient matrices num by ascending power, trailing
zeros trimmed, over one denominator den > 0 reduced against all of them by
one gcd (the zero polynomial is num = (), den = 1).  That form is unique, so
structural equality is exact polynomial equality.  All arithmetic runs on
the integers; Fractions are built only where a caller reads entries (coeffs,
coeff), and to_json_dict writes its strings from num and den.  A DiffOp
holds the same form for all of its coefficients at once, over the lcm of
their denominators, which apply, compose, model.monic_matrix and the descent
of hyper all read.
The degree of the zero polynomial is -1.  All values are immutable: a
Frozen class compares, hashes and prints by its fields.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest

from . import linalg
from .exact import _check_bound, _format_ratio, exact_scalar

__all__ = ["MatPoly", "DiffOp"]


class Frozen:
    """Base of the immutable value classes, whose constructors write their
    fields, named in _fields, through __dict__.  A value equals one of its
    own class with equal fields, hashes by them and prints as
    Name(field=value, ...); assigning or deleting an attribute raises."""

    _fields = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _trimmed(items, is_zero) -> tuple:
    n = len(items)
    while n > 0 and is_zero(items[n - 1]):
        n -= 1
    return tuple(items[:n])


def _is_zero_matrix(c) -> bool:
    return not any(map(any, c))


def _scaled(mats, s: int, g: int = 1):
    """Integer matrices times s, divided exactly by g."""
    if s == 1 == g:
        return mats
    return tuple(tuple(tuple(x * s // g for x in row) for row in c) for c in mats)


def _derived(mats):
    """Integer coefficient matrices of the derivative, over the same denominator."""
    return tuple(tuple(tuple(x * m for x in row) for row in c) for m, c in enumerate(mats) if m >= 1)


def _product_sum(terms, rows: int, cols: int) -> list:
    """Integer coefficients of the sum over (ls, rs) in terms of the products
    ls * rs, each one integer product of lefts side by side times rights stacked."""
    top = max((len(ls) + len(rs) - 1 for ls, rs in terms if ls and rs), default=0)
    zero = ((0,) * cols,) * rows
    out = []
    for n in range(top):
        left, stacked = [[] for _ in range(rows)], []
        for ls, rs in terms:
            for a in range(max(0, n - len(rs) + 1), min(n, len(ls) - 1) + 1):
                for row, part in zip(left, ls[a]):
                    row.extend(part)
                stacked.extend(rs[n - a])
        out.append(linalg.int_matmul(left, stacked) if stacked else zero)
    return out


class MatPoly(Frozen):
    """Matrix-valued polynomial in one variable u, dim rows by cols columns:
    sum over m of num[m] u^m / den.  MatPoly(dim, coeffs, cols) takes int or
    Fraction coefficient matrices by ascending power; cols defaults to dim, so
    MatPoly(dim, coeffs) is square and a column eigenfunction is dim x 1.
    """

    _fields = ("dim", "cols", "num", "den")

    def __init__(self, dim: int, coeffs=(), cols: int | None = None):
        cols = dim if cols is None else cols
        _check_bound("dim", dim)
        _check_bound("cols", cols)
        frozen = [linalg.freeze_matrix(c) for c in coeffs]
        if any(len(c) != dim or any(len(row) != cols for row in c) for c in frozen):
            raise ValueError("coefficient matrices must be dim x cols")
        den = math.lcm(*(x.denominator for c in frozen for row in c for x in row))
        num = [tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in c) for c in frozen]
        self.__dict__.update(MatPoly._reduced(dim, cols, num, den).__dict__)

    @classmethod
    def _reduced(cls, dim: int, cols: int, num, den: int) -> MatPoly:
        """Trusted constructor, with no entry check: integer coefficient
        matrices over den > 0, trimmed and divided by one gcd."""
        num = _trimmed(num, _is_zero_matrix)
        g = math.gcd(den, *(x for c in num for row in c for x in row)) if den != 1 else 1
        return cls._lowest(dim, cols, num if g == 1 else _scaled(num, 1, g), den // g)

    @classmethod
    def _lowest(cls, dim: int, cols: int, num: tuple, den: int) -> MatPoly:
        """Trusted constructor of the form itself, with no check: integer
        coefficient matrices as tuples, the top one nonzero, over den > 0
        that has no common factor with all of their entries."""
        out = object.__new__(cls)
        out.__dict__.update(dim=dim, cols=cols, num=num, den=den)
        return out

    @classmethod
    def from_scalar(cls, dim: int, scalar_coeffs) -> MatPoly:
        """Scalar polynomial times the identity matrix, over the lcm of the coefficients' denominators."""
        _check_bound("dim", dim)
        cs, zero = [exact_scalar(c) for c in scalar_coeffs], (0,) * dim
        den = math.lcm(*(c.denominator for c in cs))
        xs = (c.numerator * (den // c.denominator) for c in cs)
        return cls._reduced(dim, dim, [tuple(zero[:i] + (x,) + zero[i + 1 :] for i in range(dim)) for x in xs], den)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    @property
    def coeffs(self) -> tuple:
        """Coefficient matrices of Fractions, by ascending power."""
        return tuple(map(self.coeff, range(len(self.num))))

    def coeff(self, m: int):
        _check_bound("power", m)
        if m < len(self.num):
            return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num[m])
        return linalg.zeros(self.dim, self.cols)

    def _combined(self, other: MatPoly, sign: int) -> MatPoly:
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, MatPoly):
            return NotImplemented
        if (self.dim, self.cols) != (other.dim, other.cols):
            raise ValueError("shape mismatch")
        den, zero = math.lcm(self.den, other.den), ((0,) * self.cols,) * self.dim
        s, t = den // self.den, sign * (den // other.den)
        out = [
            tuple(tuple(x * s + y * t for x, y in zip(rp, rq)) for rp, rq in zip(cp, cq))
            for cp, cq in zip_longest(self.num, other.num, fillvalue=zero)
        ]
        return MatPoly._reduced(self.dim, self.cols, out, den)

    def __add__(self, other: MatPoly) -> MatPoly:
        return self._combined(other, 1)

    def __sub__(self, other: MatPoly) -> MatPoly:
        return self._combined(other, -1)

    def __neg__(self) -> MatPoly:
        return MatPoly._reduced(self.dim, self.cols, _scaled(self.num, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, MatPoly):
            if self.cols != other.dim:
                raise ValueError("inner dimension mismatch")
            out = _product_sum([(self.num, other.num)], self.dim, other.cols)
            return MatPoly._reduced(self.dim, other.cols, out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            q = exact_scalar(other)
            return MatPoly._reduced(self.dim, self.cols, _scaled(self.num, q.numerator), self.den * q.denominator)
        return NotImplemented

    __rmul__ = __mul__  # a scalar on the left; a MatPoly there is its own __mul__

    def transpose(self) -> MatPoly:
        return MatPoly._reduced(self.cols, self.dim, tuple(tuple(zip(*c)) for c in self.num), self.den)

    def derivative(self) -> MatPoly:
        return MatPoly._reduced(self.dim, self.cols, _derived(self.num), self.den)

    def to_json_dict(self) -> dict:
        """Entries as lowest-terms 'p' or 'p/q' strings, as format_rational
        writes them, one gcd each; each coefficient matrix flattened by rows."""
        den = self.den
        return {"dim": self.dim, "coeffs": [[_format_ratio(x, den) for row in c for x in row] for c in self.num]}


class DiffOp(Frozen):
    """Differential operator sum_j A_j(u) d^j/du^j, each A_j a square matrix polynomial.

    num[j] holds the integer coefficient matrices of A_j by ascending power,
    for j = 0 .. order, over one denominator den, the lcm of the coefficients'
    own denominators: a reduced, unique form, so == is operator equality.
    DiffOp(dim, coeffs) clears MatPoly coefficients given leading order first;
    coeff_of_order reads A_j back.  The operator multiplies a dim x n
    matrix polynomial from the left, so it acts column by column.  Order is
    structural (a zero A_j is () in num), so a commutator keeps its shape.
    """

    _fields = ("dim", "num", "den")

    def __init__(self, dim: int, coeffs=()):
        _check_bound("dim", dim)
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("an operator needs at least its order-zero coefficient")
        for c in cs:
            if not isinstance(c, MatPoly) or c.dim != dim or c.cols != dim:
                raise ValueError("coefficients must be dim x dim MatPoly")
        den = math.lcm(*(c.den for c in cs))
        self.__dict__.update(dim=dim, num=tuple(_scaled(c.num, den // c.den) for c in reversed(cs)), den=den)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def coeff_of_order(self, j: int) -> MatPoly:
        _check_bound("order", j)
        return MatPoly._reduced(self.dim, self.dim, self.num[j] if j <= self.order else (), self.den)

    def is_degree_bounded(self) -> bool:
        """True when deg A_j <= j for every order j, the class closed under composition."""
        return all(len(a) <= j + 1 for j, a in enumerate(self.num))

    def apply(self, f: MatPoly) -> MatPoly:
        """Apply to a dim x n MatPoly: sum_j A_j(u) f^(j)(u), each output
        coefficient one integer sum over every (order, power) term."""
        if not isinstance(f, MatPoly):
            raise TypeError("apply expects a MatPoly")
        if f.dim != self.dim:
            raise ValueError("dimension mismatch")
        terms, g = [], f.num
        for a in self.num:
            terms.append((a, g))
            g = _derived(g)
        return MatPoly._reduced(self.dim, f.cols, _product_sum(terms, self.dim, f.cols), self.den * f.den)

    def compose(self, other: DiffOp) -> DiffOp:
        """Operator product self(other(.)), expanded by the Leibniz rule.

        The term A_i d^i applied after B_j d^j contributes
        C(i, m) A_i B_j^(m) at order i + j - m for 0 <= m <= i; each order's
        coefficient is one integer sum over all of its terms, and the
        product's integer form over self.den * other.den is divided by one gcd.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den, terms = self.den * other.den, [[] for _ in range(self.order + other.order + 1)]
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                for m in range(i + 1):
                    terms[i + j - m].append((_scaled(a, math.comb(i, m)), b))
                    b = _derived(b)
        num = [_trimmed(_product_sum(t, self.dim, self.dim), _is_zero_matrix) for t in terms]
        g = math.gcd(den, *(x for a in num for c in a for row in c for x in row))
        out = object.__new__(DiffOp)
        out.__dict__.update(dim=self.dim, num=tuple(_scaled(a, 1, g) for a in num), den=den // g)
        return out
