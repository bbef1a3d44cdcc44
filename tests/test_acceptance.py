"""Acceptance gate: every advertised identity, checked exactly on the
standard parameter grid, one PASS/FAIL line per criterion.

All equalities are exact statements about Fractions and polynomial
coefficients; there are no tolerances anywhere.  The few runtime ceilings
are asserted with wall-clock measurements.
"""

import random
import time
from fractions import Fraction

from mvop import linalg
from mvop.hyper import (
    build_column,
    find_collisions,
    kernel_matrix,
    orthogonal_polynomial,
)
from mvop.matpoly import DiffOp, MatPoly
from mvop.model import (
    Params,
    WeightSpec,
    companion_eigenvalue,
    companion_operator,
    hyper_eigenvalue,
    hyper_operator,
    monic_matrix,
)
from mvop.verify import (
    check_boundary,
    check_commute,
    check_eigen,
    check_ideal,
    check_symmetry_reduced,
    decompose_in_basis,
    gram_block,
)

import fraction_oracle as oracle
from dense_reference import inner_product, is_zero_matrix, poly_solution_space

GRID = [
    Params(0, 1, 1, 1),
    Params(Fraction(1, 2), Fraction(3, 2), 1, 2),
    Params(1, 1, Fraction(1, 2), 2),
    Params(0, 1, Fraction(3, 2), 2),
]

COLLIDING = Params(0, 1, Fraction(3, 2), 2)


def column_pairing(pv, qv, ws):
    """Scalar pairing of two dim x 1 columns through the matrix pairing."""
    return inner_product(pv.transpose(), qv.transpose(), ws)[0][0]


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def symmetry_and_boundary(p, op, budget: float):
    start = time.perf_counter()
    ws = WeightSpec(p)
    residuals = check_symmetry_reduced(ws, op)
    boundary = check_boundary(ws, op)
    elapsed = time.perf_counter() - start
    ok = all(r.is_zero() for r in residuals) and boundary.passed and elapsed < budget
    return ok, elapsed


def test_01_first_operator_symmetry():
    ok = True
    for p in GRID:
        set_ok, _ = symmetry_and_boundary(p, hyper_operator(p), budget=1.0)
        ok = ok and set_ok
    report(1, "hyper operator symmetric with vanishing boundary terms", ok)
    assert ok


def test_02_second_operator_symmetry():
    ok = True
    for p in GRID:
        set_ok, _ = symmetry_and_boundary(p, companion_operator(p), budget=2.0)
        ok = ok and set_ok
    report(2, "companion operator symmetric with vanishing boundary terms", ok)
    assert ok


def test_03_orthogonality_and_norms():
    ok = True
    for p in GRID:
        start = time.perf_counter()
        for w in range(7):
            for wp in range(w + 1, 7):
                ok = ok and is_zero_matrix(gram_block(p, w, wp).entries)
        for w in range(7):
            diag = gram_block(p, w, w).entries
            for j in range(p.size):
                ok = ok and diag[j][j] > 0
        ok = ok and time.perf_counter() - start < 30.0
    report(3, "families pairwise orthogonal with positive norms", ok)
    assert ok


def test_04_eigenfunction_equations():
    ok = all(check_eigen(p, w) for p in GRID for w in range(7))
    report(4, "eigenfunction equations for both operators through degree 6", ok)
    assert ok


def test_05_commutation_with_negative_control():
    ok = all(check_commute(p) for p in GRID)
    for p in GRID:
        d = hyper_operator(p)
        e = companion_operator(p)
        bump = [[Fraction(0)] * p.size for _ in range(p.size)]
        bump[0][1] = Fraction(1)
        perturbed = DiffOp(
            p.size,
            (e.coeff_of_order(2), e.coeff_of_order(1), e.coeff_of_order(0) + MatPoly.constant(bump)),
        )
        ok = ok and not (d.compose(perturbed) - perturbed.compose(d)).is_zero()
    report(5, "operators commute, perturbed companion does not", ok)
    assert ok


def test_06_eigenvalue_relation():
    ok = True
    for p in GRID:
        scalar = p.alpha + 2 * p.ell + 3 * p.k
        d = hyper_operator(p)
        e = companion_operator(p)
        for w in range(21):
            offset = 3 * w * (p.ell + p.k + w) * (w + p.alpha + p.beta + p.ell + 1)
            eye = linalg.identity(p.size)
            expected = linalg.add(
                linalg.scale(linalg.diagonal(hyper_eigenvalue(p, w, j) for j in range(p.size)), scalar + 3 * w),
                linalg.scale(eye, offset),
            )
            ok = ok and linalg.diagonal(companion_eigenvalue(p, w, j) for j in range(p.size)) == expected
            expected_monic = linalg.add(
                linalg.scale(monic_matrix(d, w).coeff(0), scalar + 3 * w),
                linalg.scale(eye, offset),
            )
            ok = ok and monic_matrix(e, w).coeff(0) == expected_monic
    report(6, "affine relation between the two eigenvalue matrices", ok)
    assert ok


def test_07_collision_construction():
    lam = hyper_eigenvalue(COLLIDING, 0, 2)
    ok = lam == -5 and hyper_eigenvalue(COLLIDING, 1, 0) == -5
    ok = ok and find_collisions(COLLIDING, lam).members == ((0, 2), (1, 0))
    ok = ok and len(poly_solution_space(COLLIDING, lam, 1)) == 2
    first = build_column(COLLIDING, 0, 2)
    second = build_column(COLLIDING, 1, 0)
    ws = WeightSpec(COLLIDING)
    ok = ok and column_pairing(first, second, ws) == 0
    ok = ok and column_pairing(first, first, ws) > 0
    ok = ok and column_pairing(second, second, ws) > 0
    report(7, "shared eigenvalue resolved into orthogonal eigenfunctions", ok)
    assert ok


def test_08_leading_coefficients():
    ok = True
    for p in GRID:
        for w in range(7):
            lead = orthogonal_polynomial(p, w).leading()
            ok = ok and lead == kernel_matrix(p, w).coeff(0)
            for r in range(p.size):
                ok = ok and lead[r] == oracle.kernel_vector(p, w, r)
    report(8, "leading coefficients match the closed triangular form", ok)
    assert ok


def test_09_ideal_relation():
    ok = all(check_ideal(p, 20) for p in GRID)
    report(9, "eigenvalue pairs satisfy the product-of-lines relation", ok)
    assert ok


def test_10_decomposition():
    rng = random.Random(20240817)
    ok = True
    for trial in range(50):
        p = GRID[trial % len(GRID)]
        degree = rng.randint(0, 5)
        coeffs = [
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p.size)]
                for _ in range(p.size)
            ]
            for _ in range(degree + 1)
        ]
        h = MatPoly(p.size, coeffs)
        parts = decompose_in_basis(h, p)
        rebuilt = MatPoly.zero(p.size)
        for d, a_d in enumerate(parts):
            rebuilt = rebuilt + orthogonal_polynomial(p, d).transpose() * MatPoly.constant(a_d)
        ok = ok and rebuilt == h
        ok = ok and parts == decompose_in_basis(h, p)
    report(10, "random matrix polynomials reconstruct from the family", ok)
    assert ok
