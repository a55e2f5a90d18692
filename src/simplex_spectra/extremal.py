"""Extremal Rayleigh quotients over truncated polynomial spaces.

The additive constants come from one generalized symmetric eigenproblem,
reduced by an explicit triangular congruence so the conditioning of each
step stays visible. The multiplicative constant is the supremum of a
quotient mixing the mass, H1 and numerator forms; since
sqrt(xy) = min_r (r x + y/r)/2 and the mass is the identity in the
orthonormal basis, it is the maximum over r of the top eigenvalue of
(2B, r I + A/r). One eigendecomposition of the H1 form reduces every such
eigenvalue to a problem of the numerator's rank, and the maximizer is
bisected in log r on a bracket fixed by the H1 spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh, eigvalsh, solve_triangular

from .errors import IterationError, NumericError, ParameterError
from .forms import (
    SymmetricForm,
    h1_form,
    point_eval_form,
    projection_form,
    trace_form,
)
from .jacobi import JacobiWeight, _jacobi_table
from .simplex import _gl_nodes, analyze, dubiner_norm_sq, enumerate_basis

__all__ = [
    "EigenSolution",
    "ConstantRecord",
    "rayleigh_sup",
    "additive_constant",
    "multiplicative_constant",
    "trace_error_rate",
]

_KINDS = ("mult", "add_h1_denominator", "h1_stability")
_NUMERATORS = ("trace", "point", "h1_of_projection")
_LOG_R_WIDTH = 1e-14


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Top eigenpair of B v = lambda G v with v normalized to unit G-norm;
    ortho_residual is the G-inverse norm of B v - lambda G v."""

    lambda_max: float
    vector: np.ndarray
    ortho_residual: float


@dataclass(frozen=True)
class ConstantRecord:
    dim: int
    N: int
    kind: str
    value: float
    iterations: int
    residual: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ParameterError(f"value must be finite and positive, got {self.value}")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not (math.isfinite(self.residual) and self.residual >= 0):
            raise ParameterError(f"residual must be finite and nonnegative, got {self.residual}")


def _check_compatible(B: SymmetricForm, G: SymmetricForm) -> None:
    if (B.basis.dim, B.basis.N) != (G.basis.dim, G.basis.N):
        raise ParameterError(
            "forms live on different bases: "
            f"dim/N {B.basis.dim}/{B.basis.N} vs {G.basis.dim}/{G.basis.N}"
        )


def _chol_lower(Gm: np.ndarray) -> np.ndarray:
    try:
        return cholesky(Gm, lower=True)
    except LinAlgError as exc:
        ev = eigvalsh(Gm)
        raise NumericError(
            "denominator form is not positive definite: "
            f"eigenvalue range [{ev[0]:.6g}, {ev[-1]:.6g}]"
        ) from exc


def _congruent_eigh(Bm: np.ndarray, Gm: np.ndarray):
    """Eigenpairs of the pencil (Bm, Gm), Gm SPD, via L^-1 Bm L^-T."""
    L = _chol_lower(Gm)
    X = solve_triangular(L, Bm, lower=True)
    C = solve_triangular(L, X.T, lower=True)
    C = (C + C.T) / 2.0
    w, Y = eigh(C)
    V = solve_triangular(L, Y, lower=True, trans="T")
    return w, V, L


def rayleigh_sup(B: SymmetricForm, G: SymmetricForm) -> EigenSolution:
    """Largest generalized eigenvalue of (B, G) with its maximizer."""
    _check_compatible(B, G)
    w, V, L = _congruent_eigh(B.entries, G.entries)
    lam = float(w[-1])
    v = V[:, -1]
    v = v / np.sqrt(v @ G.entries @ v)
    res = B.entries @ v - lam * (G.entries @ v)
    ortho = float(np.linalg.norm(solve_triangular(L, res, lower=True)))
    return EigenSolution(lambda_max=lam, vector=v, ortho_residual=ortho)


def additive_constant(N: int, dim: int, numerator: str, nodes: int | None = None) -> ConstantRecord:
    """Sharp constant of the additive estimate: the top eigenvalue of the
    degree-N-truncated numerator form against the full H1 form on degree 2N.

    The h1_of_projection variant reports the stability ratio divided by N+1.
    """
    if numerator not in _NUMERATORS:
        raise ParameterError(f"numerator must be one of {_NUMERATORS}, got {numerator!r}")
    if numerator == "point" and dim != 1:
        raise ParameterError("the point numerator is the interval case (dim 1)")
    if numerator == "trace" and dim != 2:
        raise ParameterError("the trace numerator is the triangle case (dim 2)")
    if dim not in (1, 2):
        raise ParameterError(f"dim must be 1 or 2, got {dim}")
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ParameterError(f"N must be a positive integer, got {N!r}")
    N = int(N)

    denom = h1_form(2 * N, dim, nodes=nodes)
    if numerator == "point":
        raw = point_eval_form(2 * N)
    elif numerator == "trace":
        raw = trace_form(2 * N, dim, "edge", nodes=nodes)
    else:
        raw = denom
    B = projection_form(raw, N)
    sol = rayleigh_sup(B, denom)
    if numerator == "h1_of_projection":
        kind, value = "h1_stability", sol.lambda_max / (N + 1)
    else:
        kind, value = "add_h1_denominator", sol.lambda_max
    return ConstantRecord(
        dim=dim, N=N, kind=kind, value=value, iterations=1, residual=sol.ortho_residual
    )


def multiplicative_constant(
    N: int, dim: int, nodes: int | None = None, max_iterations: int = 1000
) -> ConstantRecord:
    """Sharp constant of the multiplicative estimate, as the maximum over
    the split parameter r of lambda(r) = lambda_max(2B, r I + A/r).

    With A = V diag(a) V^T and U = V^T C for the numerator factor C, each
    lambda(r) is the top eigenvalue of the k x k matrix
    2 U^T diag(1/(r + a/r)) U. Its slope in s = log r changes sign from
    nonnegative to nonpositive across [log a_min, log a_max] / 2, and the
    root is bisected on that bracket; ``iterations`` counts the lambda
    evaluations and ``residual`` is |d lambda/ds| / lambda at the result.
    """
    if dim not in (1, 2):
        raise ParameterError(f"dim must be 1 or 2, got {dim}")
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ParameterError(f"N must be a positive integer, got {N!r}")
    N = int(N)

    denom = h1_form(2 * N, dim, nodes=nodes)
    raw = point_eval_form(2 * N) if dim == 1 else trace_form(2 * N, dim, "edge", nodes=nodes)
    a, V = eigh(denom.entries)
    if a[0] <= 0.0:
        raise NumericError(
            "denominator form is not positive definite: "
            f"eigenvalue range [{a[0]:.6g}, {a[-1]:.6g}]"
        )
    U = V.T @ projection_form(raw, N).factor

    lo, hi = 0.5 * math.log(a[0]), 0.5 * math.log(a[-1])
    value, residual = np.nan, np.inf
    for it in range(1, max_iterations + 1):
        s = (lo + hi) / 2.0
        r = math.exp(s)
        d = 1.0 / (r + a / r)
        mu, Y = eigh(2.0 * (U.T * d) @ U)
        value = float(mu[-1])
        slope = -2.0 * float(np.sum((r - a / r) * (d * (U @ Y[:, -1])) ** 2))
        residual = abs(slope) / value
        if hi - lo <= _LOG_R_WIDTH * max(1.0, abs(s)):
            return ConstantRecord(
                dim=dim, N=N, kind="mult", value=value, iterations=it, residual=residual
            )
        if slope > 0.0:
            lo = s
        else:
            hi = s
    best = ConstantRecord(
        dim=dim, N=N, kind="mult", value=value, iterations=max_iterations, residual=residual
    )
    raise IterationError(
        f"bisection in log r did not settle in {max_iterations} evaluations "
        f"(bracket width {hi - lo:.3e})",
        best=best,
    )


def trace_error_rate(u, N_list, nodes: int | None = None):
    """Boundary L2 errors of the volume projections of u on the triangle,
    with the log-log slope fitted over the top half of N_list.

    Returns ([(N, error), ...], slope).
    """
    Ns = list(N_list)
    if len(Ns) < 2:
        raise ParameterError("need at least two degrees to fit a rate")
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 for n in Ns):
        raise ParameterError("degrees must be positive integers")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ParameterError("degrees must be strictly increasing")

    t_edge, w_edge = _gl_nodes(400)
    edge_pts = np.column_stack([t_edge, -np.ones_like(t_edge)])
    target = np.asarray(u(edge_pts), dtype=float)

    rows = []
    for N in Ns:
        m = nodes if nodes is not None else 2 * N + 40
        raw = analyze(u, int(N), 2, nodes=m)
        basis = enumerate_basis(int(N), 2)
        ap = np.zeros(N + 1)
        for k, idx in enumerate(basis.indices):
            ap[idx.p] += (-1.0) ** idx.q * raw[k] / dubiner_norm_sq(idx)
        vals = ap @ _jacobi_table(int(N), JacobiWeight(0.0, 0.0), t_edge)
        err = float(np.sqrt(np.sum(w_edge * (target - vals) ** 2)))
        rows.append((int(N), err))

    top = rows[-max(2, (len(rows) + 1) // 2) :]
    logs_n = np.log([n + 1.0 for n, _ in top])
    logs_e = np.log([max(e, 1e-300) for _, e in top])
    slope = float(np.polyfit(logs_n, logs_e, 1)[0])
    return rows, slope
