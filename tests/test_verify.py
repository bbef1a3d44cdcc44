import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import mvop.hyper
from mvop import linalg
from mvop.hyper import CollisionClass, Family, build_column, find_collisions, orthogonal_polynomial
from mvop import model, verify
from mvop.matpoly import DiffOp, MatPoly

import dense_reference as dense
import fraction_oracle as oracle
from dense_reference import inner_product
from mvop.model import (
    Params,
    WeightSpec,
    companion_eigenvalue,
    companion_operator,
    hyper_eigenvalue,
    hyper_operator,
    slot_table,
    weight_core,
)
from mvop.verify import (
    CheckResult,
    VerificationReport,
    check_bilinear_symmetry,
    check_boundary,
    check_commute,
    check_eigen,
    check_ideal,
    check_symmetry_reduced,
    decompose_in_basis,
    gram_block,
    run_suite,
)

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)


def column_pairing(pv, qv, ws):
    """Scalar pairing of two dim x 1 columns through the matrix pairing."""
    return inner_product(pv.transpose(), qv.transpose(), ws)[0][0]


def literal_double_sum(pp, qq, ws):
    """sum over a, b of P_a H_{a+b} Q_b^T, one coefficient pair at a time, with
    H_m from the dense Fraction construction rather than the weight's integrals."""
    total = linalg.zeros(pp.dim, qq.dim)
    for a, pa in enumerate(pp.coeffs):
        for b, qb in enumerate(qq.coeffs):
            term = dense.matmul(dense.matmul(pa, dense.moment_matrix(ws, a + b)), linalg.transpose(qb))
            total = linalg.add(total, term)
    return total


def as_fractions(num, den):
    return tuple(tuple(Fraction(x, den) for x in row) for row in num)


class TestMomentTable:
    # GRID plus one point whose alpha, beta and k have different denominators
    POINTS = GRID + [Params(Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), 3)]

    def test_integer_table_matches_the_dense_fraction_construction(self):
        # H_m is row m of the integrals of the core, over the lcm of every ratio read
        for p in self.POINTS:
            ws = WeightSpec(p)
            for m in range(2 * 8 + 2 * p.ell + 1):
                rows, den = ws.integrals(ws.core, m + 1)
                num = rows[m]
                ratios = [dense.moment_ratio(p, c) for c in range(m + len(ws.core.num))]
                assert den == ws.core.den * math.lcm(*(r.denominator for r in ratios))
                assert all(type(x) is int for row in num for x in row)
                assert as_fractions(num, den) == dense.moment_matrix(ws, m)

    @given(
        st.fractions(min_value=Fraction(-9, 10), max_value=4, max_denominator=10),
        st.fractions(min_value=Fraction(-9, 10), max_value=4, max_denominator=10),
        st.integers(0, 12),
    )
    def test_table_matches_the_closed_form_at_random_exponents(self, alpha, beta, m):
        # the weight grows its ratios by a recurrence; the oracle uses the
        # closed form, at any admissible exponents
        ws = WeightSpec(Params(alpha, beta, (beta + 1) / 2, 1))
        rows, den = ws.integrals(ws.core, m + 1)
        assert as_fractions(rows[m], den) == dense.moment_matrix(ws, m)

    def test_integrals_match_the_gamma_function_oracle(self):
        # independent oracle: ratio(n) as a quotient of Gamma functions, which
        # sympy simplifies to a rational, on a rectangular Y at a point whose
        # alpha, beta and k have different denominators; a zero Y and n = 0 too
        sympy = pytest.importorskip("sympy")
        p = self.POINTS[-1]
        a, b = (sympy.Rational(x.numerator, x.denominator) for x in (p.alpha, p.beta))
        gamma = sympy.gamma

        def ratio(n):
            r = sympy.gammasimp(gamma(b + 1 + n) * gamma(a + b + 2) / (gamma(b + 1) * gamma(a + b + 2 + n)))
            assert r.is_Rational
            return Fraction(int(r.p), int(r.q))

        y = MatPoly(2, [[[1, Fraction(-2, 3), 0], [5, 0, Fraction(1, 4)]], linalg.zeros(2, 3), [[0, 7, -1], [2, 3, 1]]], 3)
        n = 6
        ratios = [ratio(c) for c in range(n + len(y.num) - 1)]
        rows, den = WeightSpec(p).integrals(y, n)
        want = [
            tuple(
                tuple(sum(ratios[row + m] * c[i][j] for m, c in enumerate(y.coeffs)) for j in range(3)) for i in range(2)
            )
            for row in range(n)
        ]
        assert [as_fractions(r, den) for r in rows] == want
        assert den == math.lcm(*(r.denominator for r in ratios)) * y.den
        assert WeightSpec(p).integrals(MatPoly.zero(2, 3), 4) == ([((0, 0, 0), (0, 0, 0))] * 4, 1)
        assert WeightSpec(p).integrals(y, 0) == ([], y.den)

    @pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2)])
    def test_index_must_be_an_integer(self, bad):
        ws = WeightSpec(BASE)
        with pytest.raises(ValueError, match="n must be an integer"):
            ws.integrals(ws.core, bad)
        with pytest.raises(ValueError, match="n must be >= 0"):
            ws.integrals(ws.core, -1)

    @pytest.mark.usefixtures("fresh_family")
    def test_corrupt_ratio_fails_the_pairing_checks(self):
        # negative control: ratio(2) off by 1/7, seeded before first use (and
        # carried up by the recurrence) breaks every Gram block and the
        # bilinear symmetry, and nothing that reads no pairing
        p = GRID[1]
        ws = mvop.hyper.family(p).weight
        ws._ratios = [Fraction(1), dense.moment_ratio(p, 1), dense.moment_ratio(p, 2) + Fraction(1, 7)]
        failed = {c.name: c.witness for c in run_suite(p, max_w=3).checks if c.status == "fail"}
        assert {name: w for name, w in failed.items() if name.startswith("gram_zero_")} == {
            "gram_zero_w0_w1": "nonzero block at (0, 1): entry (0, 0) is -5/14",
            "gram_zero_w0_w2": "nonzero block at (0, 2): entry (0, 0) is 495/1568",
            "gram_zero_w0_w3": "nonzero block at (0, 3): entry (0, 0) is -1573/8960",
            "gram_zero_w1_w2": "nonzero block at (1, 2): entry (0, 0) is -1485/12544",
            "gram_zero_w1_w3": "nonzero block at (1, 3): entry (0, 0) is 143/2560",
            "gram_zero_w2_w3": "nonzero block at (2, 3): entry (0, 0) is -42471/2007040",
        }
        assert failed["gram_norms_positive"] == "norm block entry (w, i, j) = (0, 0, 1) is -5/14"
        assert failed["bilinear_symmetry_hyper"] == failed["bilinear_symmetry_companion"] == "defect on monomials"
        assert all(name.startswith(("gram_", "bilinear_symmetry_")) for name in failed)

    def test_gram_never_reclears_an_operand(self):
        # once the polynomials exist, new blocks, new moment rows and growing
        # ratios run on integers that are already cleared: the library has no
        # Fraction-matrix clear left, which lives beside its users in the dense reference
        assert not hasattr(linalg, "_integer_form") and hasattr(dense, "_integer_form")
        p = GRID[1]
        fam = Family(p)
        polys = [fam.poly(w) for w in range(6)]
        fam.gram(0, 0)
        expected = {(w, wp): literal_double_sum(polys[w], polys[wp], fam.weight) for w in range(6) for wp in range(6)}
        assert len(fam.weight._ratios) == 2 * p.ell + 1  # ratio(0..2 ell), for the block (0, 0)
        assert {(w, wp): fam.gram(w, wp) for w in range(6) for wp in range(6)} == expected
        assert len(fam.weight._ratios) == 2 * 5 + 2 * p.ell + 1


class TestInnerProduct:
    def test_identity_pairing_frozen(self):
        ws = WeightSpec(BASE)
        got = inner_product(MatPoly.from_scalar(2, (1,)), MatPoly.from_scalar(2, (1,)), ws)
        assert got == (
            (Fraction(4, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1, 2)),
        )

    def test_agrees_with_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        pp = MatPoly(3, [linalg.identity(3), [[1, 2, 0], [0, -1, 3], [Fraction(1, 2), 0, 1]]])
        qq = MatPoly(3, [[[0, 1, 0], [2, 0, 0], [0, 0, 1]], linalg.zeros(3), linalg.identity(3)])
        exact = inner_product(pp, qq, WeightSpec(p))
        core = weight_core(p)

        def mpq(x):
            return mpmath.mpf(x.numerator) / x.denominator

        def value(poly, u):
            terms = (mpmath.matrix([[mpq(x) for x in row] for row in c]) * u**m for m, c in enumerate(poly.coeffs))
            return sum(terms, mpmath.zeros(3))

        with mpmath.workdps(40):
            alpha, beta = mpq(p.alpha), mpq(p.beta)
            zeroth = mpmath.beta(beta + 1, alpha + 1)
            for i, j in ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)):

                def integrand(u):
                    product = value(pp, u) * value(core, u) * value(qq, u).T
                    return (1 - u) ** alpha * u**beta * product[i, j]

                got = mpmath.quad(integrand, [0, 1]) / zeroth
                want = mpq(exact[i][j])
                assert abs(got - want) < mpmath.mpf(10) ** -30 * max(1, abs(want))

    def test_vector_route_agrees_with_matrix_route(self):
        ws = WeightSpec(BASE)
        pv = MatPoly(2, [[[1], [0]], [[0], [2]]], 1)
        qv = MatPoly(2, [[[Fraction(1, 2)], [-1]]], 1)
        as_rows_p = MatPoly(2, [[[1, 0], [0, 0]], [[0, 2], [0, 0]]])
        as_rows_q = MatPoly(2, [[[Fraction(1, 2), -1], [0, 0]]])
        block = inner_product(as_rows_p, as_rows_q, ws)
        assert column_pairing(pv, qv, ws) == block[0][0]

    def test_vec_inner_product_symmetric(self):
        ws = WeightSpec(BASE)
        pv = MatPoly(2, [[[1], [2]], [[3], [0]]], 1)
        qv = MatPoly(2, [[[0], [1]], [[1], [1]], [[2], [0]]], 1)
        assert column_pairing(pv, qv, ws) == column_pairing(qv, pv, ws)
        assert column_pairing(pv, MatPoly.zero(2, 1), ws) == 0

    def test_zero_polynomial_pairs_to_zero_without_a_product(self, monkeypatch):
        def no_product(left, right):
            raise AssertionError("a zero polynomial needs no product")

        ws = WeightSpec(BASE)
        monkeypatch.setattr(linalg, "int_matmul", no_product)
        assert model.moment_rows(MatPoly.zero(3, 2), ws, 2) == ([linalg.zeros(2, 3)] * 2, 1)
        assert model.pair_rows(MatPoly.zero(1, 2), [], 1, 3) == (((0, 0, 0),), 1)
        assert inner_product(MatPoly.zero(2), MatPoly.from_scalar(2, (1,)), ws) == linalg.zeros(2)

    @pytest.mark.parametrize("bad", [-1, True, 2.0, "2"])
    @pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
    def test_moment_rows_count_is_checked(self, bad, zero):
        # the zero polynomial's shortcut must not answer for a bad count
        qq = MatPoly.zero(2) if zero else MatPoly.from_scalar(2, (1, 2))
        with pytest.raises(ValueError, match="n must be"):
            model.moment_rows(qq, WeightSpec(BASE), bad)

    def test_dimension_guards(self):
        ws = WeightSpec(BASE)
        with pytest.raises(ValueError):
            inner_product(MatPoly.from_scalar(3, (1,)), MatPoly.from_scalar(3, (1,)), ws)
        with pytest.raises(ValueError):
            column_pairing(MatPoly.zero(3, 1), MatPoly.zero(3, 1), ws)
        with pytest.raises(ValueError):
            ws.integrals(ws.core, -1)

    def test_arguments_need_the_weight_dim_as_column_count(self):
        ws = WeightSpec(BASE)
        with pytest.raises(ValueError):
            inner_product(MatPoly.zero(2, 3), MatPoly.from_scalar(2, (1,)), ws)
        with pytest.raises(ValueError):
            inner_product(MatPoly.from_scalar(2, (1,)), MatPoly.zero(2, 1), ws)
        row = MatPoly(1, [[[1, 0]]], 2)
        assert inner_product(row, MatPoly.from_scalar(2, (1,)), ws) == ((Fraction(4, 3), Fraction(2, 3)),)


class TestGram:
    def test_degree_zero_block_frozen(self):
        block = gram_block(BASE, 0, 0)
        assert block.entries == (
            (Fraction(4, 3), Fraction(0)),
            (Fraction(0), Fraction(1, 6)),
        )

    def test_off_diagonal_blocks_vanish(self):
        for p in GRID:
            for w in range(3):
                for wp in range(w + 1, 4):
                    assert dense.is_zero_matrix(gram_block(p, w, wp).entries)

    def test_diagonal_blocks_are_diagonal_positive(self):
        for p in GRID:
            for w in range(3):
                entries = gram_block(p, w, w).entries
                for i in range(p.size):
                    for j in range(p.size):
                        if i == j:
                            assert entries[i][j] > 0
                        else:
                            assert entries[i][j] == 0

    def test_as_dict(self):
        d = gram_block(BASE, 0, 0).as_dict()
        assert d == {"w": 0, "w_prime": 0, "entries": [["4/3", "0"], ["0", "1/6"]]}

    def test_blocks_match_literal_double_sum(self):
        # reference: literal_double_sum, with H_m from the dense construction
        def rows_of(poly, lo, hi):
            return MatPoly(hi - lo, [c[lo:hi] for c in poly.coeffs], poly.cols)

        for p in GRID:
            ws = WeightSpec(p)
            for w in range(7):
                for wp in range(7):
                    pw, pwp = orthogonal_polynomial(p, w), orthogonal_polynomial(p, wp)
                    assert gram_block(p, w, wp).entries == literal_double_sum(pw, pwp, ws)
                    # rectangular: the first rows of P_w against the last rows of P_wp
                    pp, qq = rows_of(pw, 0, 1 + w % p.size), rows_of(pwp, wp % p.size, p.size)
                    assert inner_product(pp, qq, ws) == literal_double_sum(pp, qq, ws)

    @pytest.mark.parametrize("ell", [6, 10])
    def test_large_ell_blocks_match_literal_double_sum(self, ell):
        # the band of the core grows with ell, beyond GRID's ell <= 2: P_2's
        # norm block, and two random degree-2 polynomials whose block is dense
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, ell)
        fam, rng = Family(p), random.Random(ell)

        def rand_poly():
            rows = range(p.size)
            coeffs = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows] for _ in rows] for _ in range(3)]
            return MatPoly(p.size, coeffs)

        pp, qq = rand_poly(), rand_poly()
        assert fam.gram(2, 2) == literal_double_sum(fam.poly(2), fam.poly(2), fam.weight)
        assert inner_product(pp, qq, fam.weight) == literal_double_sum(pp, qq, fam.weight)

    @staticmethod
    def _count_rows(monkeypatch):
        real = mvop.hyper.moment_rows
        calls = []

        def counting(qq, ws, n):
            calls.append((qq.degree, n))
            return real(qq, ws, n)

        monkeypatch.setattr(mvop.hyper, "moment_rows", counting)
        return calls

    @pytest.mark.usefixtures("fresh_family")
    def test_suite_computes_rows_once_per_degree(self, monkeypatch):
        # each P_w' is paired against u^a I once per run, not once per block
        calls = self._count_rows(monkeypatch)
        assert run_suite(BASE, max_w=4).passed
        assert sorted(calls) == [(w, w + 1) for w in range(5)]

    def test_rows_are_computed_once_per_degree_in_any_order(self, monkeypatch):
        # a block below the diagonal is its mirror's transpose, so a wider
        # left factor reads the rows of its own degree, never more rows of P_3
        expected = [gram_block(BASE, w, 3).entries for w in (1, 0, 5, 4)]
        calls = self._count_rows(monkeypatch)
        fam = Family(BASE)
        assert [fam.gram(w, 3) for w in (1, 0, 5, 4)] == expected
        assert calls == [(3, 4), (5, 6), (4, 5)]

    @pytest.mark.parametrize("p", [BASE, GRID[3]], ids=str)
    def test_full_square_in_either_order_reads_each_degree_once(self, monkeypatch, p):
        # the oracle pairs P_w against the rows of P_w' directly for every
        # (w, w'), with no transpose; both orders give its blocks and build
        # the rows of each P_w' once, with w' + 1 of them
        square = [(w, wp) for w in range(6) for wp in range(6)]
        ref = Family(p)
        want = {(w, wp): oracle.gram(ref, w, wp) for w, wp in square}
        calls = self._count_rows(monkeypatch)
        forward, backward = Family(p), Family(p)
        got_forward = {(w, wp): forward.gram(w, wp) for w, wp in square}
        assert sorted(calls) == [(wp, wp + 1) for wp in range(6)]
        calls.clear()
        got_backward = {(w, wp): backward.gram(w, wp) for w, wp in reversed(square)}
        assert sorted(calls) == [(wp, wp + 1) for wp in range(6)]
        assert got_forward == got_backward == want
        assert forward._moment_rows == backward._moment_rows

    def test_block_below_the_diagonal_is_its_mirrors_transpose(self):
        # the blocks of an orthogonal family vanish off the diagonal, where a
        # missing transpose would not show; seeded polynomials that are not
        # orthogonal give nonzero blocks that are not symmetric
        rng = random.Random(26)
        p = GRID[1]
        fam = Family(p)

        def entries():
            return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p.size)] for _ in range(p.size)]

        for w in range(4):
            fam._polys[w] = MatPoly(p.size, [entries() for _ in range(w + 1)])
        for w in range(4):
            for wp in range(w):
                block = fam.gram(w, wp)
                assert block == oracle.gram(fam, w, wp) == linalg.transpose(fam.gram(wp, w))
                assert block != linalg.transpose(block)

    @pytest.mark.parametrize("w, wp", [("x", 1), (1, True), (True, 0), (0, "1")])
    def test_indices_are_checked_before_they_are_compared(self, w, wp):
        # a str or bool index raises ValueError, not the TypeError of w > w'
        with pytest.raises(ValueError, match="w must be an integer"):
            Family(BASE).gram(w, wp)


class TestSymmetryReduced:
    def test_residuals_vanish_for_both_operators(self):
        for p in GRID:
            ws = WeightSpec(p)
            for op in (hyper_operator(p), companion_operator(p)):
                r1, r2, r3 = check_symmetry_reduced(ws, op)
                assert r1.is_zero() and r2.is_zero() and r3.is_zero()

    def test_zero_order_perturbation_hits_only_third_residual(self):
        ws = WeightSpec(BASE)
        op = hyper_operator(BASE)
        bump = MatPoly.constant([[0, 1], [0, 0]])
        perturbed = DiffOp(
            2, (op.coeff_of_order(2), op.coeff_of_order(1), op.coeff_of_order(0) + bump)
        )
        r1, r2, r3 = check_symmetry_reduced(ws, perturbed)
        assert r1.is_zero() and r2.is_zero()
        assert not r3.is_zero()

    def test_first_order_perturbation_hits_second_residual(self):
        ws = WeightSpec(BASE)
        op = hyper_operator(BASE)
        bump = MatPoly.constant([[0, 1], [0, 0]])
        perturbed = DiffOp(
            2, (op.coeff_of_order(2), op.coeff_of_order(1) + bump, op.coeff_of_order(0))
        )
        r1, r2, _ = check_symmetry_reduced(ws, perturbed)
        assert r1.is_zero()
        assert not r2.is_zero()

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            check_symmetry_reduced(WeightSpec(BASE), DiffOp(2, (MatPoly.from_scalar(2, (1,)),)))

    @pytest.mark.parametrize(
        "p",
        [
            BASE,
            Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
            Params(Fraction(5, 2), Fraction(2, 3), Fraction(1, 2), 3),
            Params(0, 1, Fraction(3, 2), 2),
            Params(0, 1, 1, 4),
        ],
    )
    def test_residuals_match_sympy_on_the_true_weight(self, p):
        # Re-derive the residuals from W = rho Z with rho = (1-u)^alpha u^beta
        # itself: sympy differentiates rho and clears u^2 (1-u)^2 / rho, which
        # checks the hand-expanded c0, c1 and c2 of the residuals; the matrix
        # polynomial algebra runs in the Fraction oracle, apart from MatPoly.
        sp = pytest.importorskip("sympy")
        u = sp.Symbol("u", positive=True)
        alpha, beta = (sp.Rational(x.numerator, x.denominator) for x in (p.alpha, p.beta))
        rho = (1 - u) ** alpha * u**beta
        clear = (1 - u) ** (2 - alpha) * u ** (2 - beta)
        # c_n = rho^(n) u^2 (1-u)^2 / rho, which must come out a polynomial
        c0, c1, c2 = (
            [Fraction(int(x.p), int(x.q)) for x in reversed(sp.Poly(sp.expand(sp.simplify(rho.diff(u, n) * clear)), u).all_coeffs())]
            for n in range(3)
        )
        assert c0 == [0, 0, 1, -2, 1]
        ws = WeightSpec(p)
        z = ws.core.coeffs

        def times(m, c):
            return oracle.mul_scalar_poly(m, c)

        def d1(m):  # (rho m)' u^2 (1-u)^2 / rho
            return oracle.add(times(m, c1), times(oracle.derivative(m), c0))

        def d2(m):  # (rho m)'' u^2 (1-u)^2 / rho
            dm = oracle.derivative(m)
            return oracle.add(oracle.add(times(m, c2), times(dm, [2 * x for x in c1])), times(oracle.derivative(dm), c0))

        op = companion_operator(p)
        bump = MatPoly.constant([[Fraction(i + 2 * j + 1, 3) for j in range(p.size)] for i in range(p.size)])
        perturbed = [
            DiffOp(p.size, tuple(c + bump if j == k else c for j, c in enumerate(op.coeffs))) for k in range(3)
        ]
        for op in [hyper_operator(p), op] + perturbed:
            a2, a1, a0 = (op.coeff_of_order(j).coeffs for j in (2, 1, 0))
            za2, za1 = oracle.mul(z, a2), oracle.mul(z, a1)
            aw = [oracle.mul(oracle.transpose(a), z) for a in (a2, a1, a0)]
            e1 = times(oracle.sub(aw[0], za2), c0)
            e2 = oracle.sub(times(oracle.add(aw[1], za1), c0), oracle.scale(d1(za2), 2))
            e3 = oracle.sub(oracle.add(times(oracle.sub(aw[2], oracle.mul(z, a0)), c0), d1(za1)), d2(za2))
            assert [r.coeffs for r in check_symmetry_reduced(ws, op)] == [e1, e2, e3]

    def test_each_core_product_is_formed_once(self, monkeypatch):
        # Z = Z^T, so A_j^T Z is read as (Z A_j)^T: each check forms Z A2, Z A1
        # and Z A0 once, with the core on the left, and the scalar
        # factors c_n are built from their coefficients, not as products
        real, products = MatPoly.__mul__, []

        def counted(x, y):
            if isinstance(y, MatPoly):
                products.append((x, y))
            return real(x, y)

        monkeypatch.setattr(MatPoly, "__mul__", counted)
        for p in GRID:
            ws = WeightSpec(p)
            for op in (hyper_operator(p), companion_operator(p)):
                for check, with_core, most in ((check_symmetry_reduced, 3, 9), (check_boundary, 3, 3)):
                    products.clear()
                    check(ws, op)
                    assert sum(x is ws.core for x, _ in products) == with_core
                    assert not any(y is ws.core for _, y in products)
                    assert len(products) <= most

    @pytest.mark.usefixtures("fresh_family")
    @pytest.mark.parametrize("p", GRID, ids=str)
    def test_suite_forms_each_core_product_once_per_operator(self, monkeypatch, p):
        # symmetry_reduced_* and boundary_* read one Z A2, Z A1 and Z A0 per
        # operator: 3 core products each, not the 3 + 3 of the public checks
        real, products = MatPoly.__mul__, []

        def counted(x, y):
            products.append(x)
            return real(x, y)

        core = mvop.hyper.family(p).weight.core
        monkeypatch.setattr(MatPoly, "__mul__", counted)
        assert run_suite(p, max_w=2).passed
        assert sum(x is core for x in products) == 2 * 3

    @pytest.mark.usefixtures("fresh_family")
    def test_suite_witnesses_are_the_public_checks(self):
        # the suite's shared products give the verdicts and witnesses of
        # check_symmetry_reduced and check_boundary on a skew first-order term
        fam = mvop.hyper.family(BASE)
        d = fam.hyper
        fam.hyper = DiffOp(2, (d.coeff_of_order(2), MatPoly.constant([[0, 1], [0, 0]]), d.coeff_of_order(0)))
        residuals, report = check_symmetry_reduced(fam.weight, fam.hyper), check_boundary(fam.weight, fam.hyper)
        bad = [i + 1 for i, r in enumerate(residuals) if not r.is_zero()]
        failing = [f"{x.block}[{x.row}][{x.col}]" for x in report.entries if not x.ok]
        assert bad and failing
        checks = {c.name: c for c in run_suite(BASE, max_w=1).checks}
        assert checks["symmetry_reduced_hyper"] == ("symmetry_reduced_hyper", "fail", f"nonzero residuals: {bad}")
        assert checks["boundary_hyper"] == ("boundary_hyper", "fail", f"failing entries: {failing}")
        assert checks["symmetry_reduced_companion"].status == checks["boundary_companion"].status == "pass"


class TestBoundary:
    def test_passes_for_both_operators(self):
        for p in GRID:
            ws = WeightSpec(p)
            for op in (hyper_operator(p), companion_operator(p)):
                report = check_boundary(ws, op)
                assert report.passed
                assert all(e.ok for e in report.entries)

    def test_entry_bookkeeping(self):
        ws = WeightSpec(BASE)
        report = check_boundary(ws, hyper_operator(BASE))
        blocks = {e.block for e in report.entries}
        assert blocks == {"second_order", "first_order_skew"}
        assert len(report.entries) == 8
        for e in report.entries:
            if e.order_at_zero is None:
                assert e.order_at_one is None and e.ok

    def test_detects_violations(self):
        # a constant skew first-order term leaves entries of Z alone at u = 1,
        # where alpha = 0 gives no help from the scalar factor
        ws = WeightSpec(BASE)
        op = hyper_operator(BASE)
        perturbed = DiffOp(
            2,
            (
                op.coeff_of_order(2),
                MatPoly.constant([[0, 1], [0, 0]]),
                op.coeff_of_order(0),
            ),
        )
        report = check_boundary(ws, perturbed)
        assert not report.passed
        assert any(not e.ok for e in report.entries)

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            check_boundary(WeightSpec(BASE), DiffOp(2, (MatPoly.from_scalar(2, (1,)),)))


class TestBilinearSymmetry:
    def test_holds_for_both_operators(self):
        ws = WeightSpec(BASE)
        assert check_bilinear_symmetry(ws, hyper_operator(BASE), max_power=3)
        assert check_bilinear_symmetry(ws, companion_operator(BASE), max_power=3)

    def test_plain_derivative_fails(self):
        ws = WeightSpec(BASE)
        ddu = DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2)))
        assert not check_bilinear_symmetry(ws, ddu, max_power=2)

    def test_agrees_with_column_gram_matrix(self):
        # reference: G[(a, r), (b, t)] = <op(u^a e_r), u^b e_t>, one column pair at a time
        ws = WeightSpec(BASE)
        op = hyper_operator(BASE)
        rng = random.Random(11)
        verdicts = set()
        for trial in range(6):
            # a multiple of the identity keeps the operator symmetric; a generic bump breaks it
            bump = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
            if trial % 2 == 0:
                bump = linalg.scale(linalg.identity(2), bump[0][0])
            perturbed = DiffOp(
                2, (op.coeff_of_order(2), op.coeff_of_order(1), op.coeff_of_order(0) + MatPoly.constant(bump))
            )
            # max_power 0 leaves only the diagonal block S[0][0]; the Fraction
            # form of the check gives the same verdicts
            for max_power in (0, 2):
                units = [
                    MatPoly.monomial(2, [[int(i == r)] for i in range(2)], a)
                    for a in range(max_power + 1)
                    for r in range(2)
                ]
                gram = [[column_pairing(perturbed.apply(f), g, ws) for g in units] for f in units]
                expected = all(gram[x][y] == gram[y][x] for x in range(len(units)) for y in range(x))
                assert check_bilinear_symmetry(ws, perturbed, max_power=max_power) == expected
                assert oracle.bilinear_symmetry(ws, perturbed, max_power=max_power) == expected
                verdicts.add((max_power, expected))
        assert verdicts == {(0, True), (0, False), (2, True), (2, False)}

    def test_refuses_an_operator_it_cannot_decide(self):
        # g, of degree 9, has sum_i g_i int u^(m+i) z_01 (1-u)^alpha u^beta = 0
        # for m <= 8; g(u) E_00 added to D's order-0 coefficient breaks
        # symmetry, but the defect on monomials of degree <= 4 pairs u^(a+b) g
        # with a + b <= 8 only, so the sample cannot see it there
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 1)
        ws = WeightSpec(p)
        z01 = [c[0][1] for c in ws.core.coeffs]
        moments = [
            [sum(z * dense.moment_ratio(p, m + i + c) for c, z in enumerate(z01)) for i in range(10)] for m in range(9)
        ]
        (g,) = dense.nullspace(moments)
        op = hyper_operator(p)
        bump = MatPoly(2, [[[x, 0], [0, 0]] for x in g])
        perturbed = DiffOp(2, (op.coeff_of_order(2), op.coeff_of_order(1), op.coeff_of_order(0) + bump))
        assert not perturbed.is_degree_bounded()
        r1, r2, r3 = check_symmetry_reduced(ws, perturbed)
        assert r1.is_zero() and r2.is_zero() and not r3.is_zero()
        assert check_boundary(ws, perturbed).passed
        # the Fraction form without the guard: the sample passes up to max_power 4
        assert [oracle.bilinear_symmetry(ws, perturbed, m) for m in (3, 4, 5)] == [True, True, False]
        for max_power in (3, 4, 5):
            with pytest.raises(ValueError, match="coefficient degrees must not exceed the derivative order"):
                check_bilinear_symmetry(ws, perturbed, max_power=max_power)

    @pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2)])
    def test_max_power_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="max_power must be an integer"):
            check_bilinear_symmetry(WeightSpec(BASE), hyper_operator(BASE), bad)


class TestEigenAndCommutation:
    def test_eigen_small_degrees(self):
        for p in GRID:
            for w in range(3):
                assert check_eigen(p, w)

    @pytest.mark.parametrize("index", [0, 1], ids=["hyper_eigenvalue", "companion_eigenvalue"])
    def test_shifted_slot_eigenvalue_fails_only_its_degree(self, monkeypatch, index):
        # one slot's eigenvalue moved by 1 (lambda d by d, or mu d^2 by d^2)
        # breaks the eigenfunction identity at that slot's degree and nowhere else
        real = verify._slot

        def shifted(p, w, j, cleared):
            out = list(real(p, w, j, cleared))
            if (w, j) == (3, 1):
                out[index] += cleared[0] ** (index + 1)
            return tuple(out)

        p = GRID[1]
        monkeypatch.setattr(verify, "_slot", shifted)
        assert [w for w in range(6) if not check_eigen(p, w)] == [3]
        failed = [c.name for c in run_suite(p, max_w=5).checks if c.status == "fail"]
        assert [n for n in failed if n.startswith("eigenfunctions_")] == ["eigenfunctions_w3"]

    def test_operators_commute(self):
        for p in GRID:
            assert check_commute(p)

    def test_commutator_detects_perturbation(self):
        d = hyper_operator(BASE)
        e = companion_operator(BASE)
        ddu = DiffOp(2, (MatPoly.from_scalar(2, (1,)), MatPoly.zero(2)))
        perturbed = DiffOp(2, (e.coeff_of_order(2), e.coeff_of_order(1) + ddu.coeff_of_order(1), e.coeff_of_order(0)))
        assert not (d.compose(perturbed) - perturbed.compose(d)).is_zero()

    @pytest.mark.usefixtures("fresh_family")
    def test_check_commute_rejects_a_perturbed_companion(self):
        # E plus d/du no longer commutes with D; check_commute compares the two
        # products instead of testing their difference for zero
        fam = mvop.hyper.family(BASE)
        e = fam.companion
        ddu = MatPoly.from_scalar(2, (1,))
        fam.companion = DiffOp(2, (e.coeff_of_order(2), e.coeff_of_order(1) + ddu, e.coeff_of_order(0)))
        assert not check_commute(BASE)
        report = run_suite(BASE, max_w=1)
        assert ("commutation", "fail", "nonzero commutator") in report.checks

    def test_composed_operator_eigenvalue_is_product(self):
        for p in GRID[:2]:
            de = hyper_operator(p).compose(companion_operator(p))
            for w in range(3):
                pt = orthogonal_polynomial(p, w).transpose()
                lam = linalg.diagonal(hyper_eigenvalue(p, w, j) for j in range(p.size))
                mu = linalg.diagonal(companion_eigenvalue(p, w, j) for j in range(p.size))
                assert de.apply(pt) == pt * MatPoly.constant(dense.matmul(mu, lam))


class TestDecomposition:
    def test_family_member_is_its_own_expansion(self):
        parts = decompose_in_basis(orthogonal_polynomial(BASE, 3).transpose(), BASE)
        assert len(parts) == 4
        assert parts[3] == linalg.identity(2)
        for d in range(3):
            assert dense.is_zero_matrix(parts[d])

    def test_zero_polynomial(self):
        assert decompose_in_basis(MatPoly.zero(2), BASE) == []

    @pytest.mark.usefixtures("fresh_family")
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_a_leading_coefficient_off_the_triangle_is_refused(self, d):
        # the back-substitution reads only the strict upper triangle of
        # P_d^T's leading coefficient; give it one nonzero entry below the
        # diagonal (above it in P_d) and the peel must leave degree d standing
        p = GRID[1]
        fam = mvop.hyper.family(p)
        real = fam.poly(d)
        skew = [[0] * p.size for _ in range(p.size)]
        skew[0][p.ell] = 1
        fam._polys[d] = real + MatPoly.monomial(p.size, skew, d)
        assert fam.poly(d).transpose().leading()[p.ell][0] != 0
        h = orthogonal_polynomial(p, 2).transpose() + MatPoly.monomial(p.size, linalg.identity(p.size), d)
        with pytest.raises(ArithmeticError, match=f"residual keeps degree {d} after peeling"):
            decompose_in_basis(h, p)

    def test_random_reconstruction(self):
        rng = random.Random(7)
        for p in (BASE, GRID[1]):
            for _ in range(4):
                degree = rng.randint(0, 3)
                coeffs = [
                    [
                        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(p.size)]
                        for _ in range(p.size)
                    ]
                    for _ in range(degree + 1)
                ]
                h = MatPoly(p.size, coeffs)
                parts = decompose_in_basis(h, p)
                rebuilt = MatPoly.zero(p.size)
                for d, a_d in enumerate(parts):
                    rebuilt = rebuilt + orthogonal_polynomial(p, d).transpose() * MatPoly.constant(
                        a_d
                    )
                assert rebuilt == h

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            decompose_in_basis(MatPoly.from_scalar(3, (1,)), BASE)

    def test_requires_square_input(self):
        with pytest.raises(ValueError):
            decompose_in_basis(MatPoly(2, [[[1], [0]]], 1), BASE)


class TestIdeal:
    def test_pairs_on_their_lines(self):
        for p in GRID:
            assert check_ideal(p, 20) is True

    def test_last_pair_off_its_line_fails(self, monkeypatch):
        # the last slot's mu numerator (mu d^2) off by one
        real = verify.slot_table

        def bumped(p, max_w):
            *slots, (w, j, lam, mu) = real(p, max_w)
            return [*slots, (w, j, lam, mu + 1)]

        monkeypatch.setattr(verify, "slot_table", bumped)
        assert [check_ideal(p, 20) for p in GRID] == [False] * len(GRID)


class TestSuite:
    @pytest.mark.usefixtures("fresh_family")
    def test_suite_builds_each_part_once(self, monkeypatch):
        # one Family serves every check: each column descends once, and the
        # weight core and both operators are built once
        counts = {}

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(Family, "_descend")
        counting(mvop.hyper, "hyper_operator")
        counting(mvop.hyper, "companion_operator")
        counting(model, "weight_core")
        assert run_suite(Params(Fraction(1, 2), Fraction(3, 2), 1, 3), max_w=8).passed
        assert counts == {"_descend": 36, "hyper_operator": 1, "companion_operator": 1, "weight_core": 1}

    @pytest.mark.usefixtures("fresh_family")
    def test_operators_are_read_as_numerators(self, monkeypatch):
        # D and E are held as integer numerators over one denominator, which
        # apply, compose, the monic eigenvalues and the descent all read
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 3)
        assert run_suite(p, max_w=8).passed
        fam = mvop.hyper.family(p)
        assert 9 not in fam._polys

        # with the MatPoly views of the coefficients refused, the numerators
        # alone still build and certify P_9 and decide that D and E commute
        def refuse(*args):
            raise AssertionError("a coefficient of an operator was read back as a MatPoly")

        with monkeypatch.context() as patch:
            patch.setattr(DiffOp, "coeffs", property(refuse))
            patch.setattr(DiffOp, "coeff_of_order", refuse)
            assert check_eigen(p, 9) and check_commute(p)

        # a fresh Family builds the same D
        fresh = Family(p)
        assert fresh.hyper == fam.hyper

    def test_relation_witnesses_name_the_first_failing_degree(self, monkeypatch):
        # mu off by 1 at every slot of w = 3 (d^2 on its numerator) breaks the
        # eigenvalue relation there, and the affine lines, which read the same
        # slot table; the identity added to the monic eigenvalue matrices of
        # n = 3 breaks the monic relation there
        real_table, real_monic = verify.slot_table, verify.monic_matrix

        def bumped_table(p, max_w):
            d = model._cleared(p)[0]
            return [(w, j, lam, mu + d * d if w == 3 else mu) for w, j, lam, mu in real_table(p, max_w)]

        def bumped_monic(op, n):
            out = real_monic(op, n)
            return out + MatPoly.constant(linalg.identity(op.dim)) if n == 3 else out

        monkeypatch.setattr(verify, "slot_table", bumped_table)
        monkeypatch.setattr(verify, "monic_matrix", bumped_monic)
        report = run_suite(BASE, max_w=1)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "eigenvalue_relation": "eigenvalue relation fails at w = 3",
            "monic_eigenvalue_relation": "monic eigenvalue relation fails at n = 3",
            "ideal_lines": "eigenvalue pair off its line at (w, j) = (3, 0)",
        }

    def test_ideal_witness_names_the_first_slot_off_its_line(self, monkeypatch):
        # mu off by one (d^2 on its numerator) at (w, j) = (1, 1) and at every
        # slot of w = 3: the witness names the first of them in (w, j) order
        real = verify.slot_table

        def bumped(p, max_w):
            d = model._cleared(p)[0]
            return [(w, j, lam, mu + d * d if (w, j) == (1, 1) or w == 3 else mu) for w, j, lam, mu in real(p, max_w)]

        monkeypatch.setattr(verify, "slot_table", bumped)
        report = run_suite(BASE, max_w=1)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "eigenvalue_relation": "eigenvalue relation fails at w = 1",
            "ideal_lines": "eigenvalue pair off its line at (w, j) = (1, 1)",
        }

    def test_relation_compares_the_entries_off_the_diagonal(self, monkeypatch):
        # the monic eigenvalue matrices are bidiagonal: one entry above the
        # diagonal changed at one degree breaks the relation there
        real = verify.monic_matrix

        def skewed(op, n):
            bump = MatPoly.constant([[int((r, c) == (0, 1)) for c in range(op.dim)] for r in range(op.dim)])
            return real(op, n) + bump if n == 2 else real(op, n)

        monkeypatch.setattr(verify, "monic_matrix", skewed)
        report = run_suite(BASE, max_w=1)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "monic_eigenvalue_relation": "monic eigenvalue relation fails at n = 2",
        }

    @pytest.mark.parametrize("p", GRID, ids=str)
    def test_cubic_defect_in_the_monic_matrices_fails_at_n_3(self, monkeypatch, p):
        # n(n-1)(n-2) I added to every monic eigenvalue matrix vanishes at
        # n <= 2, so the relation is caught at n = 3, its first failing degree
        real = verify.monic_matrix

        def bumped(op, n):
            return real(op, n) + MatPoly.constant(linalg.identity(op.dim)) * (n * (n - 1) * (n - 2))

        monkeypatch.setattr(verify, "monic_matrix", bumped)
        report = run_suite(p, max_w=1)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "monic_eigenvalue_relation": "monic eigenvalue relation fails at n = 3",
        }

    @pytest.mark.parametrize("p", GRID, ids=str)
    def test_quadratic_defect_in_mu_fails_at_w_2(self, monkeypatch, p):
        # w(w-1) added to every mu (d^2 on its numerator) vanishes at w <= 1,
        # so the relation is caught at w = 2, and the affine lines fail too
        real = verify.slot_table

        def bumped(q, max_w):
            d = model._cleared(q)[0]
            return [(w, j, lam, mu + w * (w - 1) * d * d) for w, j, lam, mu in real(q, max_w)]

        monkeypatch.setattr(verify, "slot_table", bumped)
        report = run_suite(p, max_w=1)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "eigenvalue_relation": "eigenvalue relation fails at w = 2",
            "ideal_lines": "eigenvalue pair off its line at (w, j) = (2, 0)",
        }

    @pytest.mark.parametrize("p", GRID + [Params(0, 1, 1, 6)], ids=str)
    def test_relation_sides_are_polynomials_of_low_degree(self, p):
        # run_suite decides the eigenvalue relations at degrees 0..3 alone,
        # which holds for every degree because monic_matrix is quadratic in n
        # and _slot's lambda d and mu d^2 are quadratic in w: every third
        # finite difference vanishes
        def third_difference(f, n):
            return f(n + 3) - f(n + 2) * 3 + f(n + 1) * 3 - f(n)

        fam = Family(p)
        for op in (fam.hyper, fam.companion):
            assert all(third_difference(lambda n: model.monic_matrix(op, n), n).is_zero() for n in range(31))
        cleared = model._cleared(p)
        for j in range(p.size):
            for side in (0, 1):
                assert all(third_difference(lambda w: model._slot(p, w, j, cleared)[side], w) == 0 for w in range(31))

    @pytest.mark.usefixtures("fresh_family")
    def test_leading_coefficient_checks_hold_the_descent_to_the_closed_form(self, monkeypatch):
        # the descent starts from zero and never reads kernel_matrix, so one
        # entry below the diagonal of the closed form changed at w = 3 fails
        # the leading coefficient check of that degree and nothing else
        real = verify.kernel_matrix

        def skewed(p, w):
            bump = MatPoly.constant([[int((r, c) == (2, 0)) for c in range(p.size)] for r in range(p.size)])
            return real(p, w) + bump if w == 3 else real(p, w)

        monkeypatch.setattr(verify, "kernel_matrix", skewed)
        report = run_suite(GRID[3], max_w=4)
        assert {c.name: c.witness for c in report.checks if c.status == "fail"} == {
            "leading_coefficient_w3": "leading coefficient differs at w = 3",
        }

    def test_decomposition_with_a_wrong_part_reports_a_mismatch(self, monkeypatch):
        # the first A_d off by the identity leaves the top degree of its
        # residual standing, so the peeling raises
        real, calls = verify._unit_upper_solve, []

        def skewed(*args):
            calls.append(args)
            out = real(*args)
            return out + MatPoly.from_scalar(out.dim, (1,)) if len(calls) == 1 else out

        monkeypatch.setattr(verify, "_unit_upper_solve", skewed)
        report = run_suite(BASE, max_w=2)
        assert calls
        assert [(c.name, c.witness) for c in report.checks if c.status == "fail"] == [
            ("decomposition_random", "reconstruction mismatch")
        ]

    def test_full_report_passes(self):
        report = run_suite(BASE, max_w=2)
        assert report.passed
        assert report.max_w == 2
        names = [c.name for c in report.checks]
        assert "symmetry_reduced_hyper" in names
        assert "bilinear_symmetry_companion" in names
        assert "gram_zero_w0_w2" in names
        assert "decomposition_random" in names
        assert len(names) == len(set(names))

    def test_as_dict_shape(self):
        report = run_suite(BASE, max_w=1)
        d = report.as_dict()
        assert d["params"] == {"alpha": "0", "beta": "1", "k": "1", "ell": 1}
        assert d["max_w"] == 1
        assert d["passed"] is True
        assert all(c["status"] == "pass" for c in d["checks"])
        assert all("witness" not in c for c in d["checks"])

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            run_suite(BASE, max_w=-1)
        # an empty range must not pass vacuously
        with pytest.raises(ValueError):
            check_bilinear_symmetry(WeightSpec(BASE), hyper_operator(BASE), max_power=-1)
        with pytest.raises(ValueError):
            check_ideal(BASE, -3)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", Fraction(2)])
    @pytest.mark.parametrize("call", [run_suite, check_ideal, slot_table], ids=lambda f: f.__name__)
    def test_degree_bounds_must_be_integers(self, call, bad):
        # the CLI rejects these, so the library does too; a negative bound
        # keeps its own message
        with pytest.raises(ValueError, match="must be an integer"):
            call(BASE, bad)
        with pytest.raises(ValueError, match="must be >= 0"):
            call(BASE, -1)

    def test_report_passed_property(self):
        good = CheckResult("a", "pass")
        bad = CheckResult("b", "fail", "witness text")
        assert VerificationReport(BASE, 0, (good,)).passed
        assert not VerificationReport(BASE, 0, (good, bad)).passed
        assert bad.as_dict() == {"name": "b", "status": "fail", "witness": "witness text"}

    def test_crashed_check_names_the_exception_type(self):
        def thunk():
            raise ZeroDivisionError("division by zero")

        assert verify._result("c", thunk) == CheckResult("c", "fail", "error: ZeroDivisionError: division by zero")
        assert verify._result("d", lambda: (True, "unused")) == CheckResult("d", "pass")

    @staticmethod
    def _patch_block(monkeypatch, at, entry, value):
        # the suite reads every Gram block through the Family of its
        # parameters, as integers over one denominator: the patched block
        # moves to a denominator that also carries value's, and the entry
        # becomes value
        real = Family.gram_num

        def skewed(fam, w, wp):
            block, den = real(fam, w, wp)
            if (w, wp) != at:
                return block, den
            entries = [[x * value.denominator for x in row] for row in block]
            entries[entry[0]][entry[1]] = value.numerator * den
            return tuple(map(tuple, entries)), den * value.denominator

        monkeypatch.setattr(Family, "gram_num", skewed)

    def test_norm_block_with_off_diagonal_entry_fails(self, monkeypatch):
        self._patch_block(monkeypatch, (1, 1), (0, 1), Fraction(1, 7))
        report = run_suite(BASE, max_w=2)
        norms = next(c for c in report.checks if c.name == "gram_norms_positive")
        assert norms.status == "fail"
        assert norms.witness == "norm block entry (w, i, j) = (1, 0, 1) is 1/7"

    def test_nonzero_off_diagonal_block_names_its_entry(self, monkeypatch):
        self._patch_block(monkeypatch, (0, 2), (1, 0), Fraction(-2, 5))
        report = run_suite(BASE, max_w=2)
        failed = [c for c in report.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["gram_zero_w0_w2"]
        assert failed[0].witness == "nonzero block at (0, 2): entry (1, 0) is -2/5"

    @pytest.mark.parametrize(
        "p",
        [Params(Fraction(-2, 3), Fraction(11, 3), 4, 8), Params(Fraction(-3, 4), Fraction(7, 4), 2, 10)],
        ids=str,
    )
    def test_passes_with_a_class_of_four(self, p):
        # the largest classes found up to ell = 12 have four members
        assert find_collisions(p, hyper_eigenvalue(p, 1, 8)).members == ((1, 8), (3, 5), (4, 3), (5, 0))
        assert run_suite(p, max_w=5).passed

    def test_class_missing_a_later_member_fails(self, monkeypatch):
        # lam = -5 is shared by (0, 2) and (1, 0) at GRID[3]; dropping the
        # later member must be caught at (1, 0)
        real = verify.find_collisions

        def shrunk(p, lam):
            found = real(p, lam)
            return CollisionClass(found.lam, tuple(m for m in found.members if m != (1, 0)))

        monkeypatch.setattr(verify, "find_collisions", shrunk)
        report = run_suite(GRID[3], max_w=3)
        check = next(c for c in report.checks if c.name == "collision_classes")
        assert check.status == "fail"
        assert check.witness == "slot (1, 0) missing from its class"


# the run_suite checks that decide on integer numerators, by name prefix
REWRITTEN = (
    "boundary_",
    "bilinear_symmetry_",
    "leading_coefficient_w",
    "gram_",
    "eigenvalue_relation",
    "monic_eigenvalue_relation",
    "ideal_lines",
)


class TestFractionOracle:
    # GRID[3] is the resonant Params(0, 1, 3/2, 2); Params(0, 1, 1, 6) is resonant too
    POINTS = GRID + [Params(0, 1, 1, 6)]

    @staticmethod
    def _verdicts(p, max_w):
        report = run_suite(p, max_w)
        got = {c.name: c.status == "pass" for c in report.checks if c.name.startswith(REWRITTEN)}
        return got, oracle.verdicts(mvop.hyper.family(p), max_w)

    @pytest.mark.usefixtures("fresh_family")
    @pytest.mark.parametrize("p", POINTS, ids=str)
    def test_integer_verdicts_are_the_fraction_verdicts(self, p):
        got, want = self._verdicts(p, 8)
        assert got == want
        assert all(want.values())

    @pytest.mark.parametrize("p", POINTS, ids=str)
    def test_integer_forms_are_the_fraction_forms(self, p):
        fam = Family(p)
        for op in (fam.hyper, fam.companion):
            assert tuple(check_boundary(fam.weight, op)) == oracle.boundary(fam.weight, op)
            for n in (0, 1, 5):
                assert [list(row) for row in model.monic_matrix(op, n).coeff(0)] == oracle.monic_eigenvalue(op, n)
        for w in range(4):
            want = [oracle.kernel_vector(p, w, j) for j in range(p.size)]
            assert list(mvop.hyper.kernel_matrix(p, w).coeff(0)) == want
            assert [fam.gram(w, wp) for wp in range(4)] == [oracle.gram(fam, w, wp) for wp in range(4)]
        d = model._cleared(p)[0]
        assert slot_table(p, 6) == [(w, j, lam * d, mu * d * d) for w, j, lam, mu in oracle.eigen_table(p, 6)]

    @pytest.mark.usefixtures("fresh_family")
    @pytest.mark.parametrize("p", [GRID[1], Params(0, 1, 1, 6)], ids=str)
    def test_perturbed_zero_order_coefficient_of_d_fails_in_both(self, p):
        # one entry below the diagonal of D's zero-order coefficient, which the
        # descent never reads: the family stays, while D is no longer
        # symmetric nor on the monic eigenvalue relation with E
        fam = mvop.hyper.family(p)
        d = fam.hyper
        bump = MatPoly.constant([[int((i, j) == (p.ell, 0)) for j in range(p.size)] for i in range(p.size)])
        fam.hyper = DiffOp(p.size, (d.coeff_of_order(2), d.coeff_of_order(1), d.coeff_of_order(0) + bump))
        got, want = self._verdicts(p, 4)
        assert got == want
        assert {name for name, ok in want.items() if not ok} == {"bilinear_symmetry_hyper", "monic_eigenvalue_relation"}



class TestFractionFree:
    COUNTED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__eq__")

    @pytest.mark.usefixtures("fresh_family")
    def test_rewritten_checks_do_no_fraction_arithmetic(self, monkeypatch):
        # with P_w and the moment rows for w <= 8 built, the checks that
        # decide on integer numerators call no Fraction arithmetic or
        # comparison at a passing point; the counters run per check
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 3)
        fam = mvop.hyper.family(p)
        for w in range(9):
            for wp in range(w, 9):
                fam.gram(w, wp)
        counts, running = {}, []

        def counting(real):
            def counted(*args):
                if running:
                    counts[running[-1]] = counts.get(running[-1], 0) + 1
                return real(*args)

            return counted

        def tracked(real):
            def result(name, thunk):
                running.append(name)
                try:
                    return real(name, thunk)
                finally:
                    running.pop()

            return result

        with monkeypatch.context() as patch:
            for name in self.COUNTED:
                patch.setattr(Fraction, name, counting(getattr(Fraction, name)))
            patch.setattr(verify, "_result", tracked(verify._result))
            report = run_suite(p, max_w=8)
        assert report.passed
        rewritten = [c.name for c in report.checks if c.name.startswith(REWRITTEN)]
        assert len(rewritten) == 2 + 2 + 9 + 36 + 1 + 3
        assert {name: counts.get(name, 0) for name in rewritten} == dict.fromkeys(rewritten, 0)
        # the counters do see the checks that still run on Fractions
        assert counts["symmetry_reduced_hyper"] > 0
