"""Exact matrix weights, orthogonal matrix polynomials, and commuting
symmetric differential operators for a three-parameter family."""

from .exact import MomentFunctional, falling, format_rational, gen_binom, parse_rational, poch
from .matpoly import DiffOp, MatPoly
from .model import (
    EigenPair,
    Params,
    WeightSpec,
    companion_blocks,
    companion_eigenvalue,
    companion_operator,
    drift_matrix,
    eigen_table,
    eigenvalue_matrix,
    hyper_eigenvalue,
    hyper_operator,
    inner_product,
    monic_eigenvalue,
    potential_matrix,
    recursion_matrix,
    vec_inner_product,
    weight_core,
    weight_spec,
)
from .hyper import (
    BracketSeq,
    CollisionClass,
    bracket_seq,
    build_column,
    find_collisions,
    kernel_vector,
    leading_coefficient,
    orthogonal_polynomial,
    poly_solution_space,
    termination_matrix,
)
from .verify import (
    BoundaryReport,
    GramBlock,
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

__version__ = "0.1.0"
