"""Matrix polynomials over exact rationals, square or rectangular, plus
differential operators with square matrix-polynomial coefficients acting from
the left.  A vector-valued polynomial is a matrix polynomial with one column.

Coefficients are stored by ascending power with trailing zeros trimmed, so
structural equality is exact polynomial equality.  The degree of the zero
polynomial is the sentinel float('-inf'), which compares correctly against
integer degrees.  All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exact import format_rational

__all__ = ["MatPoly", "DiffOp", "NEG_INF"]

NEG_INF = float("-inf")


def _trimmed(items, is_zero) -> tuple:
    n = len(items)
    while n > 0 and is_zero(items[n - 1]):
        n -= 1
    return tuple(items[:n])


@dataclass(frozen=True)
class MatPoly:
    """Matrix-valued polynomial in one variable u, dim rows by cols columns.

    cols defaults to dim, so MatPoly(dim, coeffs) is square; a column
    eigenfunction is a dim x 1 MatPoly.
    """

    dim: int
    coeffs: tuple = ()
    cols: int | None = None

    def __post_init__(self):
        cols = self.dim if self.cols is None else self.cols
        frozen = [linalg.freeze_matrix(c) for c in self.coeffs]
        for c in frozen:
            if len(c) != self.dim or any(len(row) != cols for row in c):
                raise ValueError("coefficient matrices must be dim x cols")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "coeffs", _trimmed(frozen, linalg.is_zero_matrix))

    @classmethod
    def zero(cls, dim: int, cols: int | None = None) -> MatPoly:
        return cls(dim, (), cols)

    @classmethod
    def constant(cls, mat) -> MatPoly:
        mat = linalg.freeze_matrix(mat)
        return cls(len(mat), (mat,), len(mat[0]))

    @classmethod
    def identity(cls, dim: int) -> MatPoly:
        return cls(dim, (linalg.identity(dim),))

    @classmethod
    def from_scalar(cls, dim: int, scalar_coeffs) -> MatPoly:
        """Scalar polynomial times the identity matrix."""
        return cls(dim, tuple(linalg.scale(linalg.identity(dim), c) for c in scalar_coeffs))

    @classmethod
    def monomial(cls, dim: int, mat, power: int) -> MatPoly:
        if power < 0:
            raise ValueError("power must be non-negative")
        mat = linalg.freeze_matrix(mat)
        return cls(dim, (linalg.zeros(dim, len(mat[0])),) * power + (mat,), len(mat[0]))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int):
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return linalg.zeros(self.dim, self.cols)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def entry(self, i: int, j: int) -> tuple:
        """Scalar coefficient sequence of one entry, ascending, trimmed."""
        return _trimmed([c[i][j] for c in self.coeffs], lambda x: x == 0)

    def _with(self, coeffs) -> MatPoly:
        return MatPoly(self.dim, coeffs, self.cols)

    def __add__(self, other: MatPoly) -> MatPoly:
        if (self.dim, self.cols) != (other.dim, other.cols):
            raise ValueError("shape mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return self._with(tuple(linalg.add(self.coeff(m), other.coeff(m)) for m in range(n)))

    def __sub__(self, other: MatPoly) -> MatPoly:
        return self + (-other)

    def __neg__(self) -> MatPoly:
        return self._with(tuple(linalg.scale(c, -1) for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, MatPoly):
            if self.cols != other.dim:
                raise ValueError("inner dimension mismatch")
            if self.is_zero() or other.is_zero():
                return MatPoly.zero(self.dim, other.cols)
            ps, qs = self.coeffs, other.coeffs
            out = []
            for m in range(len(ps) + len(qs) - 1):
                pairs = range(max(0, m - len(qs) + 1), min(m, len(ps) - 1) + 1)
                out.append(linalg.matmul_sum([ps[a] for a in pairs], [qs[m - a] for a in pairs]))
            return MatPoly(self.dim, tuple(out), other.cols)
        if isinstance(other, (int, Fraction)):
            return self._with(tuple(linalg.scale(c, other) for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def mul_scalar_poly(self, scalar_coeffs) -> MatPoly:
        """Multiply by a scalar polynomial given by ascending coefficients."""
        return self * MatPoly.from_scalar(self.cols, scalar_coeffs)

    def transpose(self) -> MatPoly:
        return MatPoly(self.cols, tuple(linalg.transpose(c) for c in self.coeffs), self.dim)

    def derivative(self) -> MatPoly:
        return self._with(tuple(linalg.scale(c, m) for m, c in enumerate(self.coeffs) if m >= 1))

    def evaluate(self, u0):
        u0 = Fraction(u0)
        total = linalg.zeros(self.dim, self.cols)
        for c in reversed(self.coeffs):
            total = linalg.add(linalg.scale(total, u0), c)
        return total

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "coeffs": [[format_rational(x) for row in c for x in row] for c in self.coeffs],
        }


@dataclass(frozen=True)
class DiffOp:
    """Differential operator sum_j A_j(u) d^j/du^j with MatPoly coefficients.

    Coefficients are square, stored leading order first, order zero last.
    The operator acts on a dim x n matrix polynomial by left multiplication
    of the coefficients, so it acts column by column.  Order is structural: it is preserved by arithmetic
    even when leading coefficients vanish, so a commutator keeps its shape.
    """

    dim: int
    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs:
            raise ValueError("an operator needs at least its order-zero coefficient")
        for c in cs:
            if not isinstance(c, MatPoly) or c.dim != self.dim or c.cols != self.dim:
                raise ValueError("coefficients must be dim x dim MatPoly")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def identity(cls, dim: int) -> DiffOp:
        return cls(dim, (MatPoly.identity(dim),))

    @classmethod
    def from_ascending(cls, dim: int, coeffs_ascending) -> DiffOp:
        return cls(dim, tuple(reversed(tuple(coeffs_ascending))))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff_of_order(self, j: int) -> MatPoly:
        if 0 <= j <= self.order:
            return self.coeffs[self.order - j]
        return MatPoly.zero(self.dim)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_degree_bounded(self) -> bool:
        """True when deg A_j <= j for every order j, the class closed under composition."""
        return all(self.coeff_of_order(j).degree <= j for j in range(self.order + 1))

    def apply(self, f: MatPoly) -> MatPoly:
        """Apply to a dim x n MatPoly: sum_j A_j(u) f^(j)(u)."""
        if not isinstance(f, MatPoly):
            raise TypeError("apply expects a MatPoly")
        if f.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = MatPoly.zero(self.dim, f.cols)
        g = f
        for j in range(self.order + 1):
            a = self.coeff_of_order(j)
            if not a.is_zero() and not g.is_zero():
                out = out + a * g
            g = g.derivative()
        return out

    def compose(self, other: DiffOp) -> DiffOp:
        """Operator product self(other(.)), expanded by the Leibniz rule.

        The term A_i d^i applied after B_j d^j contributes
        C(i, m) A_i B_j^(m) at order i + j - m for 0 <= m <= i.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        total = self.order + other.order
        acc = [MatPoly.zero(self.dim) for _ in range(total + 1)]
        for i in range(self.order + 1):
            ai = self.coeff_of_order(i)
            if ai.is_zero():
                continue
            for j in range(other.order + 1):
                bj = other.coeff_of_order(j)
                for m in range(i + 1):
                    if bj.is_zero():
                        break
                    acc[i + j - m] = acc[i + j - m] + (ai * bj) * math.comb(i, m)
                    bj = bj.derivative()
        return DiffOp.from_ascending(self.dim, acc)

    def __add__(self, other: DiffOp) -> DiffOp:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        top = max(self.order, other.order)
        return DiffOp.from_ascending(
            self.dim, [self.coeff_of_order(j) + other.coeff_of_order(j) for j in range(top + 1)]
        )

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp(self.dim, tuple(-c for c in self.coeffs))
