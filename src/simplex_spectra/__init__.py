"""Orthogonal polynomial machinery on interval, triangle, and tetrahedron:
Jacobi evaluation and quadrature, coupling-factor identities, collapsed
coordinate bases, dense quadratic forms, and the extremal constants of the
boundary projection estimates."""

from .errors import NumericError, ParameterError
from .extremal import (
    ConstantRecord,
    row_constants,
    trace_error_rate,
)
from .forms import (
    SymmetricForm,
    h1_form,
    mass_form,
    trace_form,
)
from .identities import (
    CoefficientPair,
    VerificationReport,
    connect_coefficients,
    expand_pair,
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
)
from .simplex import (
    BasisSet,
    analyze,
    boundary_trace_parseval,
    enumerate_basis,
)

__version__ = "0.1.0"
