import random
from fractions import Fraction

import pytest

from mvop import linalg
from mvop.hyper import build_column, orthogonal_polynomial
from mvop import verify
from mvop.matpoly import DiffOp, MatPoly
from mvop.model import (
    Params,
    companion_operator,
    eigenvalue_matrix,
    hyper_operator,
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
    inner_product,
    run_suite,
    vec_inner_product,
    weight_spec,
)

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

BASE = Params(0, 1, 1, 1)


class TestInnerProduct:
    def test_identity_pairing_frozen(self):
        ws = weight_spec(BASE)
        got = inner_product(MatPoly.identity(2), MatPoly.identity(2), ws)
        assert got == (
            (Fraction(4, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(1, 2)),
        )

    def test_agrees_with_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        p = Params(Fraction(1, 2), Fraction(3, 2), 1, 2)
        pp = MatPoly(3, [linalg.identity(3), [[1, 2, 0], [0, -1, 3], [Fraction(1, 2), 0, 1]]])
        qq = MatPoly(3, [[[0, 1, 0], [2, 0, 0], [0, 0, 1]], linalg.zeros(3), linalg.identity(3)])
        exact = inner_product(pp, qq, weight_spec(p))
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
        ws = weight_spec(BASE)
        pv = MatPoly(2, [[[1], [0]], [[0], [2]]], 1)
        qv = MatPoly(2, [[[Fraction(1, 2)], [-1]]], 1)
        as_rows_p = MatPoly(2, [[[1, 0], [0, 0]], [[0, 2], [0, 0]]])
        as_rows_q = MatPoly(2, [[[Fraction(1, 2), -1], [0, 0]]])
        block = inner_product(as_rows_p, as_rows_q, ws)
        assert vec_inner_product(pv, qv, ws) == block[0][0]

    def test_vec_inner_product_symmetric(self):
        ws = weight_spec(BASE)
        pv = MatPoly(2, [[[1], [2]], [[3], [0]]], 1)
        qv = MatPoly(2, [[[0], [1]], [[1], [1]], [[2], [0]]], 1)
        assert vec_inner_product(pv, qv, ws) == vec_inner_product(qv, pv, ws)
        assert vec_inner_product(pv, MatPoly.zero(2, 1), ws) == 0

    def test_dimension_guards(self):
        ws = weight_spec(BASE)
        with pytest.raises(ValueError):
            inner_product(MatPoly.identity(3), MatPoly.identity(3), ws)
        with pytest.raises(ValueError):
            vec_inner_product(MatPoly.zero(3, 1), MatPoly.zero(3, 1), ws)
        with pytest.raises(ValueError):
            ws.moment(-1)

    def test_arguments_need_the_weight_dim_as_column_count(self):
        ws = weight_spec(BASE)
        with pytest.raises(ValueError):
            inner_product(MatPoly.zero(2, 3), MatPoly.identity(2), ws)
        with pytest.raises(ValueError):
            inner_product(MatPoly.identity(2), MatPoly.zero(2, 1), ws)
        row = MatPoly(1, [[[1, 0]]], 2)
        assert inner_product(row, MatPoly.identity(2), ws) == ((Fraction(4, 3), Fraction(2, 3)),)


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
                    assert linalg.is_zero_matrix(gram_block(p, w, wp).entries)

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


class TestSymmetryReduced:
    def test_residuals_vanish_for_both_operators(self):
        for p in GRID:
            ws = weight_spec(p)
            for op in (hyper_operator(p), companion_operator(p)):
                r1, r2, r3 = check_symmetry_reduced(ws, op)
                assert r1.is_zero() and r2.is_zero() and r3.is_zero()

    def test_zero_order_perturbation_hits_only_third_residual(self):
        ws = weight_spec(BASE)
        op = hyper_operator(BASE)
        bump = MatPoly.constant([[0, 1], [0, 0]])
        perturbed = DiffOp(
            2, (op.coeff_of_order(2), op.coeff_of_order(1), op.coeff_of_order(0) + bump)
        )
        r1, r2, r3 = check_symmetry_reduced(ws, perturbed)
        assert r1.is_zero() and r2.is_zero()
        assert not r3.is_zero()

    def test_first_order_perturbation_hits_second_residual(self):
        ws = weight_spec(BASE)
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
            check_symmetry_reduced(weight_spec(BASE), DiffOp.identity(2))


class TestBoundary:
    def test_passes_for_both_operators(self):
        for p in GRID:
            ws = weight_spec(p)
            for op in (hyper_operator(p), companion_operator(p)):
                report = check_boundary(ws, op)
                assert report.passed
                assert all(e.ok for e in report.entries)

    def test_entry_bookkeeping(self):
        ws = weight_spec(BASE)
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
        ws = weight_spec(BASE)
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
            check_boundary(weight_spec(BASE), DiffOp.identity(2))


class TestBilinearSymmetry:
    def test_holds_for_both_operators(self):
        ws = weight_spec(BASE)
        assert check_bilinear_symmetry(ws, hyper_operator(BASE), max_power=3)
        assert check_bilinear_symmetry(ws, companion_operator(BASE), max_power=3)

    def test_plain_derivative_fails(self):
        ws = weight_spec(BASE)
        ddu = DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2)))
        assert not check_bilinear_symmetry(ws, ddu, max_power=2)

    def test_agrees_with_column_gram_matrix(self):
        # reference: G[(a, r), (b, t)] = <op(u^a e_r), u^b e_t>, one column pair at a time
        ws = weight_spec(BASE)
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
            # max_power 0 leaves only the diagonal block S[0][0]
            for max_power in (0, 2):
                units = [
                    MatPoly.monomial(2, [[int(i == r)] for i in range(2)], a)
                    for a in range(max_power + 1)
                    for r in range(2)
                ]
                gram = [[vec_inner_product(perturbed.apply(f), g, ws) for g in units] for f in units]
                expected = all(gram[x][y] == gram[y][x] for x in range(len(units)) for y in range(x))
                assert check_bilinear_symmetry(ws, perturbed, max_power=max_power) == expected
                verdicts.add((max_power, expected))
        assert verdicts == {(0, True), (0, False), (2, True), (2, False)}


class TestEigenAndCommutation:
    def test_eigen_small_degrees(self):
        for p in GRID:
            for w in range(3):
                assert check_eigen(p, w)

    def test_operators_commute(self):
        for p in GRID:
            assert check_commute(p)

    def test_commutator_detects_perturbation(self):
        d = hyper_operator(BASE)
        e = companion_operator(BASE)
        ddu = DiffOp(2, (MatPoly.identity(2), MatPoly.zero(2)))
        perturbed = DiffOp(2, (e.coeff_of_order(2), e.coeff_of_order(1) + ddu.coeff_of_order(1), e.coeff_of_order(0)))
        assert not (d.compose(perturbed) - perturbed.compose(d)).is_zero()

    def test_composed_operator_eigenvalue_is_product(self):
        for p in GRID[:2]:
            de = hyper_operator(p).compose(companion_operator(p))
            for w in range(3):
                pt = orthogonal_polynomial(p, w).transpose()
                lam = eigenvalue_matrix(p, w, "hyper")
                mu = eigenvalue_matrix(p, w, "companion")
                assert de.apply(pt) == pt * MatPoly.constant(linalg.matmul(mu, lam))


class TestDecomposition:
    def test_family_member_is_its_own_expansion(self):
        parts = decompose_in_basis(orthogonal_polynomial(BASE, 3).transpose(), BASE)
        assert len(parts) == 4
        assert parts[3] == linalg.identity(2)
        for d in range(3):
            assert linalg.is_zero_matrix(parts[d])

    def test_zero_polynomial(self):
        assert decompose_in_basis(MatPoly.zero(2), BASE) == []

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
            decompose_in_basis(MatPoly.identity(3), BASE)

    def test_requires_square_input(self):
        with pytest.raises(ValueError):
            decompose_in_basis(MatPoly(2, [[[1], [0]]], 1), BASE)


class TestIdeal:
    def test_pairs_on_their_lines(self):
        for p in GRID:
            report = check_ideal(p, 20)
            assert report.passed

    def test_coincidences_are_reported_not_fatal(self):
        report = check_ideal(GRID[3], 10)
        assert report.passed
        for w, j, i in report.coincidences:
            assert i != j


class TestSuite:
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

    def test_norm_block_with_off_diagonal_entry_fails(self, monkeypatch):
        real = verify.gram_block

        def skewed(p, w, wp):
            block = real(p, w, wp)
            if (w, wp) != (1, 1):
                return block
            entries = [list(row) for row in block.entries]
            entries[0][1] = Fraction(1, 7)
            return verify.GramBlock(w, wp, tuple(map(tuple, entries)))

        monkeypatch.setattr(verify, "gram_block", skewed)
        report = run_suite(BASE, max_w=2)
        norms = next(c for c in report.checks if c.name == "gram_norms_positive")
        assert norms.status == "fail"
        assert norms.witness == "norm block entry (w, i, j) = (1, 0, 1) is 1/7"
