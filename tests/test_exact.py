import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mvop.exact import _format_ratio, format_rational, gen_binom, parse_rational, poch
from mvop.model import Params, WeightSpec

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_poch_frozen_values():
    assert poch(5, 0) == 1
    assert poch(Fraction(-7, 3), 0) == 1
    assert poch(1, 3) == 6
    assert poch(Fraction(1, 2), 2) == Fraction(3, 4)
    assert poch(-2, 4) == 0


def test_poch_rejects_negative_length():
    with pytest.raises(ValueError):
        poch(1, -1)


@given(rationals, st.integers(0, 8), st.integers(0, 8))
def test_poch_splits_multiplicatively(z, r, s):
    assert poch(z, r + s) == poch(z, r) * poch(z + r, s)


def test_gen_binom_frozen_values():
    assert gen_binom(5, 2) == 10
    assert gen_binom(Fraction(3, 2), 2) == Fraction(3, 8)
    assert gen_binom(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert gen_binom(Fraction(7, 4), 0) == 1


@given(st.integers(0, 12), st.integers(0, 12))
def test_gen_binom_matches_integer_binomials(z, r):
    if z >= r:
        assert gen_binom(z, r) == math.comb(z, r)
    else:
        assert gen_binom(z, r) == 0


def test_parse_rational_accepts_exact_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7 ") == 7
    assert parse_rational("+2") == 2
    assert parse_rational("6/4") == Fraction(3, 2)


# the last two are Arabic-Indic and fullwidth 1/2, which int() would read
@pytest.mark.parametrize("bad", ["1.5", "", "a", "1/0", "1e3", "1/2/3", "--1", "0x1", "\u0661/\u0662", "\uff11/\uff12"])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(), st.integers(min_value=1))
def test_format_ratio_writes_only_what_json_leaves_unescaped(num, den):
    # mvop polys quotes these strings itself, which is json's quoting only for '-', '/' and digits
    s = _format_ratio(num, den)
    assert re.fullmatch(r"-?\d+(/\d+)?", s, re.ASCII)
    assert json.dumps(s) == '"' + s + '"'
    assert Fraction(s) == Fraction(num, den)


def test_format_rational_lowest_terms():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(2) == "2"


def test_moment_ratio_frozen_values():
    # integer-exponent oracle: the m-th moment of u^beta on (0,1) is 1/(beta+m+1),
    # so at alpha = 0 row m of the integrals of the core is H_m = sum_c (beta+1)/(beta+m+c+1) Z_c
    for beta, k, m in ((0, Fraction(1, 2), 2), (1, 1, 1), (3, 1, 4), (1, Fraction(1, 2), 0)):
        ws = WeightSpec(Params(0, beta, k, 1))
        rows, den = ws.integrals(ws.core, m + 1)
        num = rows[m]
        zs = ws.core.coeffs
        want = [
            [sum(Fraction(beta + 1, beta + m + c + 1) * z[i][j] for c, z in enumerate(zs)) for j in range(2)]
            for i in range(2)
        ]
        assert [[Fraction(x, den) for x in row] for row in num] == want


# a float, a bool or a string would otherwise be read as a number: 0.5 as a
# float, 0.1 as its binary expansion, True as 1
INEXACT = [0.5, 0.1, True, "1/2", Decimal("0.5")]


@pytest.mark.parametrize("bad", INEXACT)
def test_poch_rejects_inexact_arguments(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        poch(bad, 2)


@pytest.mark.parametrize("bad", INEXACT)
def test_gen_binom_rejects_inexact_arguments(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        gen_binom(bad, 1)


@pytest.mark.parametrize("bad", INEXACT)
def test_format_rational_rejects_inexact_values(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        format_rational(bad)


# a count given as a bool would otherwise run as 0 or 1, and one given as a
# float or a Fraction would fail inside range()
COUNTS = [True, False, 2.0, Fraction(2)]


@pytest.mark.parametrize("bad", COUNTS)
def test_poch_rejects_non_integer_counts(bad):
    with pytest.raises(ValueError, match="r must be an integer"):
        poch(2, bad)


@pytest.mark.parametrize("bad", COUNTS)
def test_gen_binom_rejects_non_integer_counts(bad):
    with pytest.raises(ValueError, match="r must be an integer"):
        gen_binom(3, bad)

