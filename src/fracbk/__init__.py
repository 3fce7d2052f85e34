"""Fractional generalized Bernstein-Kantorovich operators.

A numpy-only library for a family of positive linear approximation
operators built from a blended Bernstein basis and a fractional-kernel
Kantorovich integral, together with their closed-form moments, error
bounds, a bivariate tensor extension, and preset experiment datasets.
"""

from .basis import BasisRow, OperatorParams, basis_matrix, basis_row, bernstein_row
from .corpus import BIVARIATE, BUILTINS, UNIVARIATE, get_function, is_bivariate
from .errors import (
    DomainError,
    EvaluationError,
    FracbkError,
    ParseError,
    QuadratureError,
)
from .error_analysis import (
    ErrorTable,
    ModulusEstimate,
    bound_kfunctional,
    bound_lipschitz,
    bound_t2,
    complete_modulus,
    error_table,
    max_error,
    modulus_continuity,
    partial_moduli,
    second_modulus,
)
from .experiments import Dataset, compare_rows, figure_dataset, table_dataset, to_csv
from .exprlib import FunctionExpr, evaluate, parse_source
from .operator_biv import (
    BivariateParams,
    BivKernelIntegrals,
    BivMoments,
    apply_biv,
    apply_biv_kernel,
    biv_kernel_integrals,
    biv_moments,
    bound_complete,
    bound_partial,
    surface_rows,
    surface_values,
)
from .operator_uni import (
    DEFAULT_ORDER,
    CentralMoments,
    KernelIntegrals,
    MomentSet,
    apply,
    apply_kernel,
    central_moments,
    kernel_integrals,
    moment_recurrence,
    operator_values,
    raw_moments,
    special_case,
)
from .quadrature import QuadratureRule, gauss_jacobi_rule, integrate
from .specfun import moment_coeff

__version__ = "0.1.0"

__all__ = [
    "BIVARIATE",
    "BUILTINS",
    "BasisRow",
    "BivKernelIntegrals",
    "BivMoments",
    "BivariateParams",
    "CentralMoments",
    "Dataset",
    "DEFAULT_ORDER",
    "DomainError",
    "ErrorTable",
    "EvaluationError",
    "FracbkError",
    "FunctionExpr",
    "KernelIntegrals",
    "ModulusEstimate",
    "MomentSet",
    "OperatorParams",
    "ParseError",
    "QuadratureError",
    "QuadratureRule",
    "UNIVARIATE",
    "apply",
    "apply_biv",
    "apply_biv_kernel",
    "apply_kernel",
    "basis_matrix",
    "basis_row",
    "bernstein_row",
    "biv_kernel_integrals",
    "biv_moments",
    "bound_complete",
    "bound_kfunctional",
    "bound_lipschitz",
    "bound_partial",
    "bound_t2",
    "central_moments",
    "compare_rows",
    "complete_modulus",
    "error_table",
    "evaluate",
    "figure_dataset",
    "gauss_jacobi_rule",
    "get_function",
    "integrate",
    "is_bivariate",
    "kernel_integrals",
    "max_error",
    "modulus_continuity",
    "moment_coeff",
    "moment_recurrence",
    "operator_values",
    "parse_source",
    "partial_moduli",
    "raw_moments",
    "second_modulus",
    "special_case",
    "surface_rows",
    "surface_values",
    "table_dataset",
    "to_csv",
]
