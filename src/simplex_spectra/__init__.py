"""Orthogonal polynomial machinery on interval, triangle, and tetrahedron:
Jacobi evaluation and quadrature, coupling-factor identities, collapsed
coordinate bases, dense quadratic forms, and the extremal constants of the
boundary projection estimates."""

from .errors import NumericError, ParameterError, SingularityError
from .extremal import (
    ConstantRecord,
    EigenSolution,
    rayleigh_sup,
    row_constants,
    trace_error_rate,
)
from .forms import (
    SymmetricForm,
    h1_form,
    mass_form,
    point_eval_form,
    projection_form,
    trace_form,
)
from .identities import (
    CoefficientPair,
    FactorTable,
    VerificationReport,
    connect_coefficients,
    expand_pair,
    factors,
    verify_coefficient_bound,
    verify_connection,
    verify_deriv_norm_bound,
    verify_deriv_representation,
    verify_factor_identities,
    verify_hardy,
    verify_weighted_antiderivative,
)
from .jacobi import (
    JacobiWeight,
    QuadratureRule,
    gauss_jacobi_rule,
    jacobi_antideriv,
    jacobi_deriv,
    jacobi_eval,
    jacobi_norm_sq,
)
from .simplex import (
    BasisSet,
    DuffyPoint,
    SimplexIndex,
    analyze,
    boundary_trace_parseval,
    dubiner_eval,
    dubiner_norm_sq,
    duffy_map,
    enumerate_basis,
    line_functions,
    synthesize,
    trace_coefficient_sum,
    transformed_gradient,
)

__version__ = "0.1.0"
