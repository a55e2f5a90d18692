"""Jacobi polynomials on [-1, 1] for the weight (1-x)^alpha (1+x)^beta:
value and derivative tables, one-sided squared norms, the factors relating
a polynomial to integrals and derivatives of its neighbours, Gauss rules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ParameterError

__all__ = [
    "JacobiWeight",
    "QuadratureRule",
    "gauss_jacobi_rule",
]


@dataclass(frozen=True)
class JacobiWeight:
    """Weight (1-x)^alpha * (1+x)^beta; both exponents must exceed -1.

    ``alpha`` may also be a 1-d array: a column of weights, whose tables
    ``_jacobi_table`` and ``_deriv_table`` build in one sweep. The Gauss
    rule and the zeroth moment take one weight and reject a column.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        # numbers only: a string, a bool or an array beta is refused before
        # any comparison could raise untyped
        a, b = np.asarray(self.alpha), np.asarray(self.beta)
        numeric = a.dtype.kind in "iuf" and b.dtype.kind in "iuf" and b.ndim == 0
        if not (numeric and np.isfinite(a).all() and (a > -1.0).all() and -1.0 < b < math.inf):
            raise ParameterError(
                "weight exponents must be finite and exceed -1, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def zeroth_moment(self) -> float:
        """Integral of the weight over [-1, 1]."""
        a, b = _one_weight(self).alpha, self.beta
        log_m = (
            (a + b + 1.0) * np.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        )
        return float(np.exp(log_m))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights integrating weight * polynomial on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ParameterError("nodes and weights must be 1-d arrays of equal nonzero length")
        if not (np.all(np.diff(nodes) > 0.0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
            raise ParameterError("nodes must be strictly increasing and interior to (-1, 1)")
        if np.any(weights <= 0.0):
            raise ParameterError("weights must be positive")


def _check_int(name: str, value, least: int = 0) -> int:
    """value as an int; ParameterError unless it is an integer (not a bool)
    of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_list(name: str, value, fits=None) -> list:
    """value's items as a list; ParameterError unless it is iterable and,
    if ``fits`` is given, fits(item) holds for every item."""
    try:
        items = list(value)
    except TypeError:
        raise ParameterError(f"{name} must be iterable, got {value!r}") from None
    bad = [item for item in items if fits is not None and not fits(item)]
    if bad:
        raise ParameterError(f"{name} holds an item of the wrong kind: {bad[0]!r}")
    return items


def _one_weight(weight: JacobiWeight) -> JacobiWeight:
    """weight, checked to be one weight and not a column of them."""
    if not isinstance(weight, JacobiWeight):
        raise ParameterError(f"expected a JacobiWeight, got {weight!r}")
    if np.ndim(weight.alpha) != 0:
        raise ParameterError(f"expected one weight, got a column of {np.size(weight.alpha)}")
    return weight


def _recurrence_coeffs(n: float, alpha: float, beta: float):
    """Coefficients (c1, c2, c3, c4) with c1 P_{n+1} = (c2 + c3 x) P_n - c4 P_{n-1}."""
    ab = alpha + beta
    s = 2.0 * n + ab
    c1 = 2.0 * (n + 1.0) * (n + ab + 1.0) * s
    c2 = (s + 1.0) * (alpha * alpha - beta * beta)
    c3 = s * (s + 1.0) * (s + 2.0)
    c4 = 2.0 * (n + alpha) * (n + beta) * (s + 2.0)
    return c1, c2, c3, c4


def _jacobi_table(n: int, weight: JacobiWeight, x, den=1.0) -> np.ndarray:
    """All degrees 0..n at the points x; shape (n+1,) + the shape of x and den.

    Row k is the homogenized S_k = den^k P_k(x/den). The recurrence is
    cleared of denominators, so each row is a polynomial in (x, den), finite
    for den >= 0 with no special case at den = 0; at den = 1 every product
    by den is exact and the rows are P_k(x).

    One degree-major sweep runs over a column of L weights (``weight.alpha``
    a 1-d array) and gives shape (L, n+1) + the point shape: table j holds
    degrees 0..n-j, the rest stays zero, as the prefix sums of the collapsed
    basis need. A scalar alpha is a column of one, and its table is returned
    without the leading axis. The coefficients of every step are formed
    elementwise, so each table has the bits of its own single-weight one.
    """
    xs = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(xs.shape, np.shape(den))
    b = weight.beta
    # one weight per table, as a column against the points, and the
    # coefficients of every step at once, [step, table]
    a = np.reshape(weight.alpha, (-1,) + (1,) * len(shape))
    steps = _recurrence_coeffs(np.arange(1.0, n).reshape((-1,) + (1,) * a.ndim), a, b)
    out = np.zeros((len(a), n + 1) + shape)
    # degree d is live in the tables j <= n - d
    out[: n + 1, 0] = 1.0
    if n >= 1:
        # the n = 0 instance of the recurrence with the common factor
        # (alpha+beta)(alpha+beta+1) struck out; the raw instance
        # degenerates to 0 = 0 at alpha + beta = 0
        out[:n, 1] = 0.5 * ((a[:n] - b) * den + (a[:n] + b + 2.0) * xs)
    den2 = den * den
    for k in range(1, n):
        live = slice(0, n - k)
        c1, c2, c3, c4 = [c[k - 1, live] for c in steps]
        out[live, k + 1] = ((c2 * den + c3 * xs) * out[live, k] - c4 * den2 * out[live, k - 1]) / c1
    return out if np.ndim(weight.alpha) else out[0]


def _deriv_table(n: int, weight: JacobiWeight, x) -> np.ndarray:
    """First derivatives, degrees 0..n at the points x; row k is
    0.5 (k + alpha + beta + 1) P_{k-1}^{(alpha+1, beta+1)}. Built like
    ``_jacobi_table``: one sweep over a column of weights, and a scalar
    weight is a column of one."""
    xs = np.asarray(x, dtype=float)
    b = weight.beta
    a = np.reshape(weight.alpha, (-1, 1) + (1,) * xs.ndim)
    out = np.zeros((len(a), n + 1) + xs.shape)
    if n >= 1:
        shifted = _jacobi_table(n - 1, JacobiWeight(a.ravel() + 1.0, b + 1.0), xs)
        k = np.arange(1, n + 1).reshape((-1,) + (1,) * xs.ndim)
        np.multiply(0.5 * (k + a + b + 1.0), shifted, out=out[:, 1:])
    return out if np.ndim(weight.alpha) else out[0]


def _one_sided_norm_sq(n, a):
    """Squared norm of degree n for the weight (a, 0) or (0, a); array-capable."""
    return 2.0 ** (a + 1.0) / (2.0 * n + a + 1.0)


# The factors relating P_q, weight (a, 0), to integrals (h) and derivatives
# (g) of its neighbours; callers guarantee nonzero denominators.
def _h1(q, a):
    return -2.0 * (q + 1.0) / ((2.0 * q + a + 1.0) * (2.0 * q + a + 2.0))


def _h2(q, a):
    return 2.0 * a / ((2.0 * q + a + 2.0) * (2.0 * q + a))


def _h3(q, a):
    return 2.0 * (q + a) / ((2.0 * q + a + 1.0) * (2.0 * q + a))


def _g1(q, a):
    return (2.0 * q + 2.0 * a) / ((2.0 * q + a - 1.0) * (2.0 * q + a))


def _g2(q, a):
    return 2.0 * a / ((2.0 * q + a - 2.0) * (2.0 * q + a))


def _g3(q, a):
    return -(2.0 * q - 2.0) / ((2.0 * q + a - 1.0) * (2.0 * q + a - 2.0))


def gauss_jacobi_rule(m: int, weight: JacobiWeight) -> QuadratureRule:
    """Gauss rule with m nodes for the weight; exact through degree 2m - 1.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix built from
    the recurrence coefficients; weights are the squared first eigenvector
    components scaled by the zeroth moment.
    """
    m = _check_int("node count", m, least=1)
    a, b = _one_weight(weight).alpha, weight.beta
    ab = a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (ab + 2.0)
    if m > 1:
        n = np.arange(1, m, dtype=float)
        diag[1:] = (b * b - a * a) / ((2.0 * n + ab) * (2.0 * n + ab + 2.0))
    off = np.empty(m - 1)
    if m > 1:
        # first off-diagonal entry in cancelled form: the general product
        # formula below has a removable 0/0 at alpha + beta = -1
        off[0] = np.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) ** 2 * (3.0 + ab)))
    if m > 2:
        k = np.arange(2, m, dtype=float)
        s = 2.0 * k + ab
        off[1:] = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s * s - 1.0)))
    nodes, vecs = eigh_tridiagonal(diag, off)
    weights = weight.zeroth_moment * vecs[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights)
