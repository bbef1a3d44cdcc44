"""Exact rational scalars: rising factorials, generalized binomials, strict
p/q parsing and lowest-terms formatting.

The rationals here are Fractions, and only format_rational and
_format_ratio turn one into a str; no floating point enters at any stage:
every rational argument passes exact_scalar, which takes int and Fraction
only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "exact_scalar",
    "poch",
    "gen_binom",
    "parse_rational",
    "format_rational",
]

RationalLike = Fraction | int


def exact_scalar(x) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; floats, bools and
    strings (decimal ones included) raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact int or Fraction")


def _check_bound(name: str, value: int) -> None:
    """A count or degree bound such as max_w: an int (not a bool) that is >= 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def poch(z: RationalLike, r: int) -> Fraction:
    """Rising factorial z(z+1)...(z+r-1); the empty product is 1."""
    _check_bound("r", r)
    z = exact_scalar(z)
    out = Fraction(1)
    for i in range(r):
        out *= z + i
    return out


def gen_binom(z: RationalLike, r: int) -> Fraction:
    """Binomial coefficient with arbitrary rational upper argument.

    Equals poch(z - r + 1, r) / r!, so it vanishes exactly when z is an
    integer with 0 <= z < r.
    """
    _check_bound("r", r)
    return poch(exact_scalar(z) - r + 1, r) / math.factorial(r)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly; decimals and scientific notation are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational of the form p/q: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _format_ratio(num: int, den: int) -> str:
    """The rational num/den, for integers num and den > 0, as 'p' or 'p/q' in
    lowest terms: the one place that form is written, one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_rational(q: RationalLike) -> str:
    """Render a rational as 'p' or 'p/q' in lowest terms with positive denominator."""
    q = exact_scalar(q)
    return _format_ratio(q.numerator, q.denominator)

