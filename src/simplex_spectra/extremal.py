"""Extremal Rayleigh quotients over truncated polynomial spaces.

Each constant of an (N, dim) row is the supremum of a degree-N-truncated
numerator against the H1 form A on degree 2N, and a row assembles A once
for all of its kinds. The numerator factor C, with C C^T the truncated
endpoint (1-D) or bottom-piece form, is known in closed form: one column
in 1-D and one per function of the bottom piece's degree-N basis above.

The multiplicative constant mixes the mass, H1 and numerator forms; since
sqrt(xy) = min_r (r x + y/r)/2 and the mass is the identity in the
orthonormal basis, it is the maximum over r of the top eigenvalue of
(2B, r I + A/r). A reduction A = Q T Q^T to tridiagonal T, carried
through C, turns every such eigenvalue into a tridiagonal solve and a
problem of C's column count. The mirror of the domain (x -> -x on the
interval, x <-> y on the triangle) commutes with A, so in the mirror basis
of ``simplex._mirror_basis`` A is an even and an odd block, and each is
reduced on its own. The maximizer is found in log r by a safeguarded
interpolation search on the slope, in a bracket fixed by A = I + K, with
K positive semidefinite, and a Gershgorin bound on T.

Both additive numerators vanish off the degree-<=N block, which the graded
basis puts first, so each additive constant is an eigenproblem of that
block's size against the Schur complement S = A11 - A12 A22^-1 A21, taken
through Cholesky factors of A22 and S: the trace (2-D) or endpoint (1-D)
constant is the top eigenvalue of the Gram of L_S^-1 C1, square in the
numerator factor's column count, and the H1-stability constant that of
L_S^-1 A11 L_S^-T. ``rayleigh_sup`` solves a full pencil densely; it is
the oracle these reductions are tested against, as the quadrature-assembled
``trace_form`` and ``point_eval_form`` are for C.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import (
    LinAlgError,
    cholesky,
    eigh,
    eigvalsh,
    solve_triangular,
)
from scipy.linalg.lapack import (
    dormqr,
    dptsv,
    dsyevr,
    dsyevr_lwork,
    dsytrd,
    dsytrd_lwork,
)

from .errors import NumericError, ParameterError
from .forms import SymmetricForm, h1_form
from .jacobi import _check_int
from .simplex import (
    _bottom_coefficients,
    _bottom_restriction,
    _boundary_rule,
    _component_values,
    _graded_components,
    _mirror_basis,
    _norm_sq,
    _sample,
    analyze,
)

__all__ = [
    "EigenSolution",
    "ConstantRecord",
    "rayleigh_sup",
    "row_constants",
    "trace_error_rate",
]

_KINDS = ("mult", "add_h1_denominator", "h1_stability")
# the dimensions that rows, records and `constants --dim` accept
_DIMS = (1, 2)
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
        if self.dim not in _DIMS:
            raise ParameterError(f"dim must be one of {_DIMS}, got {self.dim}")
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


def _chol_lower(Gm: np.ndarray, whole: np.ndarray | None = None) -> np.ndarray:
    """Lower Cholesky factor of Gm. A failure raises NumericError with the
    eigenvalue range of ``whole``, the form Gm is a block of, or of Gm."""
    try:
        return cholesky(Gm, lower=True)
    except LinAlgError as exc:
        ev = eigvalsh(Gm if whole is None else whole)
        raise NumericError(
            "denominator form is not positive definite: "
            f"eigenvalue range [{ev[0]:.6g}, {ev[-1]:.6g}]"
        ) from exc


def _congruent_top(Bm: np.ndarray, L: np.ndarray):
    """Top eigenpair (lambda, v) of the pencil (Bm, L L^T), L lower
    triangular, via L^-1 Bm L^-T; v has unit L L^T-norm."""
    X = solve_triangular(L, Bm, lower=True)
    C = solve_triangular(L, X.T, lower=True)
    n = len(C)
    w, Y = eigh((C + C.T) / 2.0, subset_by_index=[n - 1, n - 1])
    return float(w[-1]), solve_triangular(L, Y[:, -1], lower=True, trans="T")


def rayleigh_sup(B: SymmetricForm, G: SymmetricForm) -> EigenSolution:
    """Largest generalized eigenvalue of (B, G) with its maximizer."""
    _check_compatible(B, G)
    L = _chol_lower(G.entries)
    lam, v = _congruent_top(B.entries, L)
    v = v / np.sqrt(v @ G.entries @ v)
    res = B.entries @ v - lam * (G.entries @ v)
    ortho = float(np.linalg.norm(solve_triangular(L, res, lower=True)))
    return EigenSolution(lambda_max=lam, vector=v, ortho_residual=ortho)


def row_constants(N: int, dim: int, kinds=_KINDS, nodes: int | None = None):
    """The constants of one (N, dim) row: an iterator of one ConstantRecord
    per requested kind, in the order of ("mult", "add_h1_denominator",
    "h1_stability").

    A record's ``iterations`` counts its solver's eigenvalue evaluations
    and its ``residual`` certifies the value. For mult, the search in
    s = log r of ``_multiplicative``, the residual is |d lambda/ds| / lambda
    at the result. The additive kinds take one eigensolve each, and the
    residual is the A^-1 norm of the eigen-residual in the full pencil.

    The H1 form on degree 2N and the truncated numerator factor (endpoint
    evaluation in 1-D, the bottom edge in 2-D) are assembled once, when the
    first record is asked for, and every kind shares them. The additive
    kinds are computed first, through Schur factors of the form; mult's
    change to the mirror basis then overwrites the form in place. A solver
    failure raises when its kind is reached, after the records before it.
    """
    if dim not in _DIMS:
        raise ParameterError(f"dim must be one of {_DIMS}, got {dim}")
    N = _check_int("N", N, least=1)
    unknown = [k for k in kinds if k not in _KINDS]
    if unknown:
        raise ParameterError(f"kinds must be among {_KINDS}, got {unknown}")
    return _row(N, dim, [k for k in _KINDS if k in kinds], nodes)


def _row(N: int, dim: int, wanted: list, nodes: int | None):
    """The records of ``row_constants``. The Schur-based kinds run first and
    drop their factors, so that mult's change to the mirror basis may then
    overwrite A; a failure to factor A is held until the mult record is out."""
    if not wanted:
        return
    A = h1_form(2 * N, dim, nodes=nodes).entries
    C = _numerator_factor(N, dim)
    additive, failure = [], None
    if wanted != ["mult"]:
        try:
            additive.extend(_additive(N, dim, A, C, wanted))
        except NumericError as exc:
            failure = exc
    if "mult" in wanted:
        yield _multiplicative(N, dim, A, C)
    yield from additive
    if failure is not None:
        raise failure


def _additive(N: int, dim: int, A: np.ndarray, C: np.ndarray, wanted: list):
    """The add_h1_denominator and h1_stability records among ``wanted``."""
    # the graded basis puts the degree <= N block, where both additive
    # numerators live, first
    n1 = math.comb(N + dim, dim)
    factors = _schur_factors(A, n1)
    _, _, LS = factors
    if "add_h1_denominator" in wanted:
        Y = solve_triangular(LS, C[:n1], lower=True)
        mu, Z = eigh(Y.T @ Y)
        v1 = solve_triangular(LS, Y @ Z[:, -1], lower=True, trans="T")
        Bv1 = C[:n1] @ (C[:n1].T @ v1)
        yield ConstantRecord(
            dim=dim,
            N=N,
            kind="add_h1_denominator",
            value=float(mu[-1]),
            iterations=1,
            residual=_pencil_residual(A, factors, v1, Bv1, mu[-1]),
        )
    if "h1_stability" in wanted:
        lam, v1 = _congruent_top(A[:n1, :n1], LS)
        Bv1 = A[:n1, :n1] @ v1
        yield ConstantRecord(
            dim=dim,
            N=N,
            kind="h1_stability",
            value=lam / (N + 1),
            iterations=1,
            residual=_pencil_residual(A, factors, v1, Bv1, lam),
        )


def _numerator_factor(N: int, dim: int) -> np.ndarray:
    """The truncated numerator factor C on the degree-2N basis, in closed
    form: C C^T is the endpoint (1-D) or bottom-piece (2-D and 3-D) form
    with the rows and columns above degree N zeroed.

    With s_k the orthonormalizing scale of basis function k, the function
    is s_k at the right endpoint in 1-D, so C[k] = s_k. In higher
    dimensions, function k is s_k sign_k times the head function of the
    bottom piece's basis (``_bottom_restriction``), so against that basis
    orthonormalized C[k, head] = sign_k s_k sqrt(norm_sq(head)), one column
    per head: N+1 in 2-D, comb(N+2, 2) in 3-D.
    """
    # the degree <= N rows lead the graded degree-2N basis, in the order
    # of the degree-N basis
    s = 1.0 / np.sqrt(_norm_sq(*_graded_components(N, dim).T))
    C = np.zeros((math.comb(2 * N + dim, dim), math.comb(N + dim - 1, dim - 1)))
    if dim == 1:
        C[: s.size, 0] = s
    else:
        heads, col, sign = _bottom_restriction(N, dim)
        C[np.arange(s.size), col] = sign * s * np.sqrt(_norm_sq(*heads.T))[col]
    return C


def _schur_factors(A: np.ndarray, n1: int):
    """(L22, W, LS): L22 L22^T = A22 for the trailing block, W = L22^-1 A21,
    and LS LS^T = S = A11 - W^T W, the Schur complement of the leading n1
    block. In the reversed block order A = [[L22, 0], [W^T, LS]] times its
    transpose, so the supremum of a form B that vanishes off the leading
    block against A is that of B11 against S."""
    L22 = _chol_lower(A[n1:, n1:], A)
    W = solve_triangular(L22, A[n1:, :n1], lower=True)
    LS = _chol_lower(A[:n1, :n1] - W.T @ W, A)
    return L22, W, LS


def _pencil_residual(A: np.ndarray, factors, v1: np.ndarray, Bv1: np.ndarray, lam: float) -> float:
    """A^-1 norm of B v - lam A v in the full pencil, for v the unit A-norm
    multiple of the lift (v1, -L22^-T W v1) of a leading-block maximizer;
    Bv1 is B11 v1, the only block of B v that is not zero. The norm is
    taken through the block factor of A in the reversed order."""
    L22, W, LS = factors
    n1 = v1.size
    v = np.concatenate([v1, -solve_triangular(L22, W @ v1, lower=True, trans="T")])
    Av = A @ v
    res = -lam * Av
    res[:n1] += Bv1
    y2 = solve_triangular(L22, res[n1:], lower=True)
    y1 = solve_triangular(LS, res[:n1] - W.T @ y2, lower=True)
    return math.sqrt((y1 @ y1 + y2 @ y2) / (v @ Av))


def _tridiagonalize(A: np.ndarray, C: np.ndarray, M: int, dim: int):
    """(d, e, U): the diagonal and off-diagonal of T = Q^T A Q for the H1
    form A on the degree-M basis, from one blocked Householder reduction
    per mirror block of A, and U = Q^T C through the same reflectors.

    The mirror x -> -x of the interval, or x <-> y of the triangle, is an
    isometry of the domain, so it commutes with A, and in the coordinates
    of ``_mirror_basis`` A splits into an even and an odd block with no
    coupling between them. The change of basis W, orthogonal and block
    diagonal by degree, is applied to A in place and to a copy of C, slab
    by slab; in 1-D W = I and the blocks are the even- and odd-degree
    Legendre functions. Only the two diagonal blocks of W A W^T are
    gathered, so the coupling, zero up to roundoff, is dropped by
    construction, and each block is reduced with its rows of W C. Q then
    maps the even block's reduced coordinates first and the odd block's
    after them: d and U are the two blocks' stacked, and e holds an exact
    0 at the seam."""
    slabs, even = _mirror_basis(M, dim)
    U, start = C.copy(), 0
    for W in slabs:
        stop = start + len(W)
        # a slab of one function, every slab in 1-D, has W = [[1]]
        if len(W) > 1:
            A[start:stop] = W @ A[start:stop]
            A[:, start:stop] = A[:, start:stop] @ W.T
            U[start:stop] = W @ U[start:stop]
        start = stop
    # one block at a time; the transpose of a block's C-ordered copy is the
    # Fortran-ordered array LAPACK takes, and it reads one triangle of it
    blocks = (np.flatnonzero(even), np.flatnonzero(~even))
    (d0, e0, U0), (d1, e1, U1) = (_reduce_block(A[np.ix_(i, i)].T, U[i]) for i in blocks)
    return np.concatenate([d0, d1]), np.concatenate([e0, [0.0], e1]), np.vstack([U0, U1])


def _reduce_block(F: np.ndarray, C: np.ndarray):
    """(d, e, Q^T C) for the Householder reduction Q^T F Q of the
    Fortran-ordered symmetric block F, which it overwrites. In lower storage
    Q = diag(1, Q1), with Q1 the product of the n-1 reflectors below the
    first row, as LAPACK's dormtr applies it; a block of size 1 has none."""
    n = F.shape[0]
    if n == 1:
        return F[0].copy(), np.zeros(0), C.copy()
    lwork, info = dsytrd_lwork(n, lower=1)
    _check_info("dsytrd_lwork", info)
    c, d, e, tau, info = dsytrd(F, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info("dsytrd", info)
    reflectors = c[1:, : n - 1]
    _, work, info = dormqr("L", "T", reflectors, tau, C[1:], -1)
    _check_info("dormqr", info)
    U = C.copy()
    U[1:], _, info = dormqr("L", "T", reflectors, tau, C[1:], int(work[0]))
    _check_info("dormqr", info)
    return d, e, U


def _multiplicative(N: int, dim: int, A: np.ndarray, C: np.ndarray) -> ConstantRecord:
    """The mult record, as the maximum over the split parameter r of
    lambda(r) = lambda_max(2B, r I + A/r).

    With A = Q T Q^T, T tridiagonal from one reduction per mirror block of
    A (``_tridiagonalize``; Q includes the change to the mirror basis),
    and U = Q^T C for the numerator factor C, each lambda(r) is the top
    eigenvalue of the k x k matrix 2 U^T Z, where Z = (r I + T/r)^-1 U
    comes from one tridiagonal solve and k is C's column count (1 in 1-D,
    N+1 in 2-D). These go to LAPACK directly (dptsv, and dsyevr as scipy's
    eigh calls it), with the eigensolvers' inputs checked finite and a
    nonzero info raised as NumericError. The slope of lambda in s = log r
    changes sign from nonnegative to nonpositive across
    [log a_min, log a_max] / 2, with a_min and a_max the extreme eigenvalues
    of T, and the root is searched for on a bracket that encloses it (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4). No
    eigensolve sets that bracket, [0, log g / 2]: a_min = 1 exactly, since
    every H1 form is I + K with K positive semidefinite and K 1 = 0, and
    g = max_i (d_i + |e_i-1| + |e_i|), the Gershgorin bound of T, is at
    least a_max. The search bisects until it has sampled one positive and
    one nonpositive slope, and from then on takes Chandrupatla's inverse
    quadratic interpolation step (``_interpolate``; Adv. Eng. Softw. 28
    (1997) 145), kept at least half the stopping width 1e-14 max(1, |s|)
    inside both ends, so that the bracket collapses onto a converged root.
    It stops when the bracket is no wider than the stopping width at the
    newest point, and returns that point's record.

    The bracket is finite, since g is a finite double, below 2^1024, so its
    width is at most 512 log 2 < 355, and 55 halvings take it below
    355 / 2^55 < 1e-14, the least stopping width. A step bisects whenever
    the two evaluations before it did not together halve the bracket, so
    every three consecutive evaluations halve it: either the first two
    did, or the third bisects. The search therefore ends within
    3 * 55 = 165 evaluations and needs no cap; on the rows of ``table 1``
    it takes 8 to 12.
    """
    d, e, U = _tridiagonalize(A, C, 2 * N, dim)
    # the Gershgorin interval of T: row i has radius |e_i-1| + |e_i|
    ae = np.abs(_finite(e, "e"))
    with np.errstate(over="ignore"):
        radius = np.concatenate([ae, [0.0]]) + np.concatenate([[0.0], ae])
        g_lo, g = float(np.min(_finite(d, "d") - radius)), float(np.max(d + radius))
    gershgorin = f"Gershgorin eigenvalue range [{g_lo:.6g}, {g:.6g}]"
    if not (math.isfinite(g) and g >= 1.0):
        raise NumericError(f"H1 form must be finite and at least I: {gershgorin}")

    lo, hi = 0.0, 0.5 * math.log(g)
    # the slopes sampled at the bracket ends (None until sampled), the end
    # the last evaluation replaced with its slope, and the bracket width
    # after each evaluation
    f_lo = f_hi = c = f_c = None
    widths = [hi - lo]
    # the k x k problems take scipy's eigh driver, with its workspace sizes
    # queried once, since k is fixed
    k = U.shape[1]
    work, iwork, info = dsyevr_lwork(k, lower=1)
    _check_info("dsyevr_lwork", info)
    for it in itertools.count(1):
        if f_lo is None or f_hi is None or (len(widths) > 2 and widths[-1] > widths[-3] / 2.0):
            s = (lo + hi) / 2.0
        else:
            a, f_a, b, f_b = (lo, f_lo, hi, f_hi) if s == lo else (hi, f_hi, lo, f_lo)
            s = _interpolate(a, f_a, b, f_b, c, f_c, _LOG_R_WIDTH * max(1.0, abs(a)))
        r = math.exp(s)
        _, _, Z, info = dptsv(r + d / r, e / r, U, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NumericError(f"r I + A/r is not positive definite at r = {r:.6g}: {gershgorin}")
        G = U.T @ Z  # 2 U^T Z, symmetrized, is G + G^T
        mu, Y, _, _, info = dsyevr(
            _finite(G + G.T, "2 U^T Z"), lower=1, lwork=int(work), liwork=int(iwork)
        )
        _check_info("dsyevr", info)
        value = float(mu[-1])
        z = Z @ Y[:, -1]
        Tz = d * z
        Tz[:-1] += e * z[1:]
        Tz[1:] += e * z[:-1]
        slope = -2.0 * float(z @ (r * z - Tz / r))
        if slope > 0.0:
            c, f_c, lo, f_lo = lo, f_lo, s, slope
        else:
            c, f_c, hi, f_hi = hi, f_hi, s, slope
        widths.append(hi - lo)
        if hi - lo <= _LOG_R_WIDTH * max(1.0, abs(s)):
            residual = abs(slope) / value
            return ConstantRecord(
                dim=dim, N=N, kind="mult", value=value, iterations=it, residual=residual
            )


def _finite(x: np.ndarray, name: str) -> np.ndarray:
    """x, checked to hold only finite numbers before LAPACK reads it."""
    if not np.isfinite(x).all():
        raise NumericError(f"{name} must be finite")
    return x


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise NumericError(f"LAPACK {routine} failed with info = {info}")


def _interpolate(
    a: float, f_a: float, b: float, f_b: float, c: float, f_c: float | None, width: float
) -> float:
    """The next point of Chandrupatla's search for a root of f in the
    bracket with ends a, the newest sample, and b, where f has the other
    sign; c is the end that a replaced, beyond a, with f_c of a's sign, or
    None if c was never sampled.

    The point is the inverse quadratic interpolant through the three
    samples, taken at f = 0, where Chandrupatla's test finds it monotone
    between a and b, and the midpoint otherwise, moved to at least
    width / 2 inside both ends. The test fails when f_c equals f_a, and
    f_b is of the other sign than both, so no divisor is zero.
    """
    t = 0.5
    if f_c is not None:
        xi = (a - b) / (c - b)
        phi = (f_a - f_b) / (f_c - f_b)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = f_a / (f_b - f_a) * f_c / (f_b - f_c)
            t += (c - a) / (b - a) * f_a / (f_c - f_a) * f_b / (f_c - f_b)
    t_min = 0.5 * width / abs(b - a)
    return a + min(max(t, t_min), 1.0 - t_min) * (b - a)


def trace_error_rate(u, N_list, quad_safety: int = 0):
    """Boundary L2 errors of the volume projections of u on the triangle,
    with the log-log slope of error against N+1 fitted above a roundoff floor.

    Degree N analyzes u on 2N + 40 + quad_safety points per direction. The
    error is measured on the edge y = -1. The analysis of u in floating
    point leaves an error plateau that grows like (N+1)^2 and scales with
    the size of u on that edge, so each degree gets the floor

        floor_N = 2 * eps * (N+1)^2 * max_edge |u|,

    with eps the double-precision machine epsilon and max_edge |u| taken
    over the edge quadrature nodes. The slope is a least-squares fit over
    the top half (at least two) of the degrees whose error exceeds their
    floor. When fewer than two degrees clear the floor, as for a polynomial
    that every degree reproduces, the slope is nan.

    Returns ([(N, error), ...], slope, [floor_N, ...]), the floors aligned
    with the rows.
    """
    Ns = [_check_int("each degree", n, least=1) for n in N_list]
    quad_safety = _check_int("quad_safety", quad_safety)
    if len(Ns) < 2:
        raise ParameterError("need at least two degrees to fit a rate")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ParameterError("degrees must be strictly increasing")

    edge, w_edge = _boundary_rule(2, 400)
    target = _sample(u, edge)
    scale = 2.0 * np.finfo(float).eps * float(np.max(np.abs(target)))
    # the edge's heads are the 1-D basis, graded 0..N, so the table of the
    # largest degree holds every degree's in its leading rows
    table = _component_values(_graded_components(Ns[-1], 1), edge[:, :-1])

    rows = []
    for N in Ns:
        raw = analyze(u, N, 2, nodes=2 * N + 40 + quad_safety)
        _, b = _bottom_coefficients(raw, N, 2)
        vals = b @ table[: N + 1]
        err = float(np.sqrt(np.sum(w_edge * (target - vals) ** 2)))
        rows.append((N, err))

    floors = [scale * (n + 1.0) ** 2 for n, _ in rows]
    above = [(n, e) for (n, e), f in zip(rows, floors) if e > f]
    if len(above) < 2:
        return rows, math.nan, floors
    top = above[-max(2, (len(above) + 1) // 2) :]
    logs_n = np.log([n + 1.0 for n, _ in top])
    logs_e = np.log([e for _, e in top])
    slope = float(np.polyfit(logs_n, logs_e, 1)[0])
    return rows, slope, floors
