"""Seeded inputs and the closed forms the benchmark checks outputs against.

The formulas here are the benchmark's own copies of the paper's closed forms
(eigenvalues of both operators and the kernel vector that gives the leading
coefficients), so a defect in the library's versions cannot hide itself.
Only the standard library is used.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

def hyper_eigenvalue(a, b, k, ell, w, j):
    return -w * (w + a + b + ell + j + 1) - j * (a + b - k + 1 + j)


def companion_eigenvalue(a, b, k, ell, w, j):
    return -w * (w + a + b + ell + j + 1) * (a - ell + 3 * j) - j * (j + a + b - k + 1) * (
        a + 2 * ell + 3 * k
    )


def _poch(z, r):
    out = Fraction(1)
    for i in range(r):
        out *= z + i
    return out


def kernel_vector(a, b, k, ell, w, j):
    """Closed-form leading coefficient of the (w, j) column, 1 in slot j."""
    x = [Fraction(0)] * (ell + 1)
    x[j] = Fraction(1)
    for i in range(j):
        num = _poch(b - k + 1 + i, j - i)
        den = _poch(a + b + j + i + w - k + 1, j - i)
        x[i] = (-1) ** (i + j) * math.comb(ell - i, ell - j) * num / den
    return x


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def point(a, b, k, ell, max_w) -> dict:
    return {"alpha": fmt(a), "beta": fmt(b), "k": fmt(k), "ell": ell, "max_w": max_w}


def unpack(pt):
    return Fraction(pt["alpha"]), Fraction(pt["beta"]), Fraction(pt["k"]), pt["ell"]


def slot_classes(a, b, k, ell, max_w) -> dict:
    """Eigenvalue -> slots (w, j) with w <= max_w sharing it, in (w, j) order."""
    classes: dict = {}
    for w in range(max_w + 1):
        for j in range(ell + 1):
            classes.setdefault(hyper_eigenvalue(a, b, k, ell, w, j), []).append((w, j))
    return classes


def collision_derived(pt, w, j) -> bool:
    """True when slot (w, j) shares its eigenvalue with a slot of lower degree,
    so the library builds it by orthogonalization instead of the series."""
    a, b, k, ell = unpack(pt)
    lam = hyper_eigenvalue(a, b, k, ell, w, j)
    return any(hyper_eigenvalue(a, b, k, ell, wp, jp) == lam for wp in range(w) for jp in range(ell + 1))


def _alpha_beta(rng):
    """alpha a half-odd integer in (-1, 3), beta a non-integer third in
    (-1/2, 3).  Fixed denominators keep the cost of a point within a few
    percent across seeds; mixing denominators 2 and 3 freely doubles that
    spread."""
    a = Fraction(rng.randrange(-1, 6, 2), 2)
    b = Fraction(rng.choice([n for n in range(-1, 9) if n % 3]), 3)
    return a, b


def generic_point(rng, ell, max_w) -> dict:
    """Admissible point, k a half-odd integer in (0, beta + 1), where no two
    slots up to max_w share an eigenvalue."""
    while True:
        a, b = _alpha_beta(rng)
        k = Fraction(rng.choice([n for n in range(1, 8, 2) if n < 2 * (b + 1)]), 2)
        if all(len(s) == 1 for s in slot_classes(a, b, k, ell, max_w).values()):
            return point(a, b, k, ell, max_w)


def resonant_point(rng, ell, max_w, family) -> dict:
    """Admissible point where slots (w, j) and (w', j'), j >= j' + 2 and
    w < w' <= max_w, share an eigenvalue: k solves the (linear) equation
    lambda(w, j) = lambda(w', j').

    When 2 (w' - w) = j - j' every shifted pair (w + d, j), (w' + d, j')
    collides as well, so about max_w columns come from orthogonalization;
    otherwise only a few do.  family picks j - j' = 2, w' = w + 1 (the first
    kind); else j - j' = 3, which can never form a family.  Draws where
    further slots collide by coincidence (a second family, about twice the
    orthogonalization work) are redrawn, so every pass holds the same mix.
    """
    while True:
        a, b = _alpha_beta(rng)
        gap = 2 if family else 3
        jp = rng.randint(0, ell - gap)
        j = jp + gap
        wp = rng.randint(1, max_w)
        w = wp - 1 if family else rng.randint(0, wp - 1)
        # lambda(w, j) - lambda(w', j') = rest + (j - j') k
        rest = hyper_eigenvalue(a, b, 0, ell, w, j) - hyper_eigenvalue(a, b, 0, ell, wp, jp)
        k = -rest / (j - jp)
        if not 0 < k < b + 1:
            continue
        pt = point(a, b, k, ell, max_w)
        derived = sum(collision_derived(pt, v, i) for v in range(max_w + 1) for i in range(ell + 1))
        if derived <= (max_w + 1 if family else 2):
            return pt


def verify_points(seed: int, index: int) -> list:
    rng = random.Random(f"verify:{seed}:{index}")
    return [generic_point(rng, 2, 8), generic_point(rng, 3, 8)]


def polys_points(seed: int, index: int) -> list:
    rng = random.Random(f"polys:{seed}:{index}")
    return [generic_point(rng, 3, 30), generic_point(rng, 4, 30)]


def sweep_points(seed: int, index: int) -> list:
    rng = random.Random(f"sweep:{seed}:{index}")
    return [resonant_point(rng, 4, 12, family=True), resonant_point(rng, 4, 12, family=False)]
