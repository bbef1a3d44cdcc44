"""Exact matrix weights, orthogonal matrix polynomials, and commuting
symmetric differential operators for a three-parameter family.

`import mvop` loads no submodule.  Each public name is imported from its
home module, as listed in _EXPORTS, on first use (PEP 562), so a launch
compiles only the modules it runs: Params and both operators need exact,
linalg, matpoly and model; the columns, collisions and Gram blocks add
hyper; only the checks and run_suite load verify.
"""

import importlib

# each public name, by the module it is imported from on first use
_EXPORTS = {
    "exact": "format_rational gen_binom parse_rational poch",
    "matpoly": "DiffOp MatPoly",
    "model": "Params WeightSpec companion_eigenvalue companion_operator hyper_eigenvalue hyper_operator"
    " monic_matrix slot_table weight_core",
    "hyper": "CollisionClass Family GramBlock build_column family find_collisions gram_block kernel_matrix"
    " orthogonal_polynomial",
    "verify": "BoundaryReport VerificationReport check_bilinear_symmetry check_boundary check_commute check_eigen"
    " check_ideal check_symmetry_reduced decompose_in_basis run_suite",
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
