"""Output checks for every task kind, and the corruptions of the negative control.

A checker returns None when the output is right and a reason otherwise.
Every expected value is recomputed here from the benchmark's own closed
forms in points.py, never read back from the library.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import points

_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


def verify_check_names(max_w: int) -> list:
    names = [
        "symmetry_reduced_hyper",
        "symmetry_reduced_companion",
        "boundary_hyper",
        "boundary_companion",
        "bilinear_symmetry_hyper",
        "bilinear_symmetry_companion",
        "commutation",
    ]
    names += [f"eigenfunctions_w{w}" for w in range(max_w + 1)]
    names += [f"leading_coefficient_w{w}" for w in range(max_w + 1)]
    names += [f"gram_zero_w{w}_w{wp}" for w in range(max_w + 1) for wp in range(w + 1, max_w + 1)]
    names += [
        "gram_norms_positive",
        "eigenvalue_relation",
        "monic_eigenvalue_relation",
        "ideal_lines",
        "collision_classes",
        "decomposition_random",
    ]
    return names


def _params(pt) -> dict:
    return {"alpha": pt["alpha"], "beta": pt["beta"], "k": pt["k"], "ell": pt["ell"]}


def check_verify(pt, code, text):
    if code != 0:
        return f"exit code {code}"
    obj = json.loads(text)
    if obj.get("passed") is not True:
        return "report not passed"
    if obj.get("params") != _params(pt) or obj.get("max_w") != pt["max_w"]:
        return "report is for other parameters"
    if [c.get("name") for c in obj["checks"]] != verify_check_names(pt["max_w"]):
        return "check names differ from the expected list"
    bad = [c["name"] for c in obj["checks"] if c.get("status") != "pass"]
    return f"failed checks {bad}" if bad else None


def check_polys(pt, code, text):
    if code != 0:
        return f"exit code {code}"
    a, b, k, ell = points.unpack(pt)
    records = json.loads(text)
    slots = [(w, j) for w in range(pt["max_w"] + 1) for j in range(ell + 1)]
    if [(r["w"], r["j"]) for r in records] != slots:
        return "slots missing or out of order"
    for r in records:
        w, j = r["w"], r["j"]
        if r["lambda"] != points.fmt(points.hyper_eigenvalue(a, b, k, ell, w, j)):
            return f"lambda differs from the closed form at ({w}, {j})"
        if r["mu"] != points.fmt(points.companion_eigenvalue(a, b, k, ell, w, j)):
            return f"mu differs from the closed form at ({w}, {j})"
        if len(r["coeffs"]) != w + 1:
            return f"degree is not {w} at ({w}, {j})"
        if r["coeffs"][-1] != [points.fmt(x) for x in points.kernel_vector(a, b, k, ell, w, j)]:
            return f"leading coefficient differs from the kernel vector at ({w}, {j})"
    return None


def _collision_class(a, b, k, ell, lam):
    """Every slot with eigenvalue lam: one root at most per j, as the
    eigenvalue decreases strictly in w."""
    members = []
    for jp in range(ell + 1):
        w = 0
        while (val := points.hyper_eigenvalue(a, b, k, ell, w, jp)) >= lam:
            if val == lam:
                members.append([w, jp])
                break
            w += 1
    return sorted(members)


def check_sweep(pts, code, text):
    if code != 0:
        return f"exit code {code}"
    results = json.loads(text)
    if len(results) != len(pts):
        return "points missing"
    for pt, res in zip(pts, results):
        a, b, k, ell = points.unpack(pt)
        if res["params"] != _params(pt):
            return "result is for other parameters"
        slots = [(w, j) for w in range(pt["max_w"] + 1) for j in range(ell + 1)]
        for (w, j), members in zip(slots, res["classes"]):
            if members != _collision_class(a, b, k, ell, points.hyper_eigenvalue(a, b, k, ell, w, j)):
                return f"collision class of ({w}, {j}) differs"
        for w, coeffs in enumerate(res["polys"]):
            lead = [points.fmt(x) for j in range(ell + 1) for x in points.kernel_vector(a, b, k, ell, w, j)]
            if len(coeffs) != w + 1 or coeffs[-1] != lead:
                return f"leading coefficient of P_{w} differs"
        for w, block in enumerate(res["norms"]):
            if any(Fraction(block[j][j]) <= 0 for j in range(ell + 1)):
                return f"non-positive norm diagonal at w = {w}"
    return None


def corrupt(kind, text) -> str:
    """A plausible wrong output that each checker must flag."""
    obj = json.loads(text)
    if kind == "verify":
        obj["checks"].pop()  # a check went missing, yet the report still says passed
        return json.dumps(obj, indent=2) + "\n"
    if kind == "polys":
        lead = obj[-1]["coeffs"][-1]
        lead[0] = points.fmt(Fraction(lead[0]) + Fraction(1, 7))
        return json.dumps(obj, indent=2) + "\n"
    norm = obj[0]["norms"][-1]
    norm[0][0] = points.fmt(-Fraction(norm[0][0]))
    return json.dumps(obj) + "\n"


def coeff_bits_max(text) -> int:
    """Largest numerator or denominator bit length among the rationals of a JSON output."""
    best = 0
    stack = [json.loads(text)]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str) and _RATIONAL.match(item):
            q = Fraction(item)
            best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best
