"""Dense and pointwise oracles that the tests compare the package against.

Nothing here runs on the way to a constant. Each oracle computes its
quantity the direct way, from the package's Jacobi tables, bases and
quadrature-assembled forms, or from LAPACK's dense generalized
eigensolver, and none takes input from outside the tests, so none
validates its arguments.
"""

import math

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve

from simplex_spectra.forms import _scaling_vector
from simplex_spectra.jacobi import JacobiWeight, _deriv_table, _g1, _g2, _g3, _jacobi_table
from simplex_spectra.simplex import _component_values, _norm_sq, enumerate_basis


def jacobi_eval(n, weight, x):
    """Value of the degree-n Jacobi polynomial of ``weight`` at x."""
    return _jacobi_table(n, weight, x)[n]


def jacobi_deriv(n, weight, x):
    """First derivative of the degree-n Jacobi polynomial at x."""
    return _deriv_table(n, weight, x)[n]


def jacobi_norm_sq(n, weight):
    """Squared weighted L2 norm of the degree-n Jacobi polynomial, from the
    Gamma-function closed form."""
    a, b = weight.alpha, weight.beta
    log_v = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + a + b + 1.0)
    )
    return math.exp(log_v) / (2.0 * n + a + b + 1.0)


def jacobi_antideriv(n, alpha, x):
    """Antiderivative from -1 of the degree-(n-1) polynomial of the weight
    (alpha, 0), n >= 1: the three-term form g1 P_n + g2 P_{n-1} + g3 P_{n-2}
    at q = n, and x + 1 for n = 1, where P_0 = 1 for every alpha."""
    xs = np.asarray(x, dtype=float)
    if n == 1:
        return xs + 1.0
    q, a = float(n), float(alpha)
    table = _jacobi_table(n, JacobiWeight(a, 0.0), xs)
    return _g1(q, a) * table[n] + _g2(q, a) * table[n - 1] + _g3(q, a) * table[n - 2]


def synthesize(coeffs, comps, pts):
    """Values at the (npts, dim) simplex points of the expansion with raw
    inner-product coefficients ``coeffs`` on the basis functions whose
    component rows are ``comps``."""
    values = _component_values(comps, np.asarray(pts, dtype=float))
    return (np.asarray(coeffs, dtype=float) / _norm_sq(*comps.T)) @ values


def point_eval_form(M):
    """Entries of the rank-one endpoint evaluation form u(1)^2 on the
    degree-M interval basis: each orthonormalized Legendre function equals
    its scale at x = 1."""
    s = _scaling_vector(enumerate_basis(M, 1))
    return np.outer(s, s)


def projection_form(B, comps, N):
    """The entries B of a form on the basis with component rows ``comps``
    composed with coefficient truncation to degree N on both arguments: the
    rows and columns above degree N zeroed."""
    live = comps.sum(axis=1) <= N
    return live[:, None] * B * live


def rayleigh_sup(B, G):
    """Largest eigenvalue of the dense pencil B v = lambda G v, G positive
    definite, from LAPACK's generalized eigensolver."""
    n = len(G)
    return float(eigh(B, G, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0])


def refined_additive(A, C):
    """lambda_max(C^T A^-1 C) with X = A^-1 C from an LU solve refined by
    three steps of iterative refinement, each residual C - A X and the
    product C^T X summed in long double."""
    lu = lu_factor(A)
    X = lu_solve(lu, C)
    wide = A.astype(np.longdouble)
    for _ in range(3):
        X = X + lu_solve(lu, (C - wide @ X).astype(float))
    K = (C.T.astype(np.longdouble) @ X).astype(float)
    return float(np.linalg.eigvalsh((K + K.T) / 2.0)[-1])
