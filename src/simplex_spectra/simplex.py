"""Collapsed-coordinate machinery on the reference triangle and tetrahedron:
the cube-to-simplex map, the orthogonal polynomial basis adapted to it,
analysis/synthesis of expansions, boundary traces, and the line-function
reduction behind the trace identities.

The one home of the collapsed layout: on cube axis k the basis function
with components c has the factor P_{c_k}^(2s+k, 0)(eta_k) ((1 - eta_k)/2)^s,
s = c_0 + ... + c_{k-1}, and the volume factor ((1 - eta_k)/2)^k.
``_collapsed_grid``, ``_axis_weights`` and ``_axis_factors`` give the grid,
its weights and the factor tables in any dimension.

Convention: function callbacks are vectorized over points, taking an
(npts, dim) array of simplex coordinates and returning (npts,) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError, SingularityError
from .jacobi import (
    JacobiWeight,
    _deriv_table,
    _h2,
    _h3,
    _jacobi_table,
    _scaled_jacobi_table,
    gauss_jacobi_rule,
)

__all__ = [
    "SimplexIndex",
    "BasisSet",
    "DuffyPoint",
    "duffy_map",
    "enumerate_basis",
    "dubiner_eval",
    "dubiner_norm_sq",
    "analyze",
    "synthesize",
    "transformed_gradient",
    "line_functions",
    "trace_coefficient_sum",
    "boundary_trace_parseval",
]

_LEG = JacobiWeight(0.0, 0.0)


@lru_cache(maxsize=128)
def _gl_nodes(m: int):
    """Gauss-Legendre nodes/weights, cached; treat the arrays as read-only."""
    rule = gauss_jacobi_rule(m, _LEG)
    return rule.nodes, rule.weights


@dataclass(frozen=True)
class SimplexIndex:
    """Multi-index (p[, q[, r]]) of one basis function; trailing components
    are absent below the matching dimension."""

    p: int
    q: int | None = None
    r: int | None = None

    def __post_init__(self):
        parts = [c for c in (self.p, self.q, self.r) if c is not None]
        if self.r is not None and self.q is None:
            raise ParameterError("index cannot carry r without q")
        for c in parts:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0:
                raise ParameterError(f"index components must be nonnegative integers, got {self!r}")

    @property
    def dim(self) -> int:
        return 1 + (self.q is not None) + (self.r is not None)

    @property
    def degree(self) -> int:
        return self.p + (self.q or 0) + (self.r or 0)

    def components(self) -> tuple:
        return (self.p, self.q, self.r)[: self.dim]


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Graded-lex ordered basis of total degree <= N in the given dimension."""

    dim: int
    N: int
    indices: tuple
    cardinality: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.N < 0:
            raise ParameterError(f"N must be nonnegative, got {self.N}")
        n = self.N
        expected = math.comb(n + self.dim, self.dim)
        if self.cardinality != expected or len(self.indices) != expected:
            raise ParameterError("cardinality does not match the degree and dimension")

    def position(self, idx: SimplexIndex) -> int:
        return self.indices.index(idx)


def _check_int(name: str, value, least: int = 0) -> int:
    """value as an int; ParameterError unless it is an integer (not a bool)
    of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _graded_components(N: int, dim: int) -> np.ndarray:
    """Components of every index of total degree <= N as rows of a
    (cardinality, dim) integer array: graded, lexicographic within a grade."""
    N = _check_int("N", N)
    if dim not in (1, 2, 3):
        raise ParameterError(f"dim must be 1, 2, or 3, got {dim}")
    comps = np.indices((N + 1,) * dim).reshape(dim, -1).T
    # the grid is lexicographic already; a stable sort grades it and puts
    # the indices of degree <= N first
    order = np.argsort(comps.sum(axis=1), kind="stable")
    return comps[order[: math.comb(N + dim, dim)]]


def enumerate_basis(N: int, dim: int) -> BasisSet:
    """All indices of total degree <= N, graded, lexicographic within a grade."""
    indices = tuple(SimplexIndex(*c) for c in _graded_components(N, dim).tolist())
    return BasisSet(dim=dim, N=int(N), indices=indices, cardinality=len(indices))


@dataclass(frozen=True, eq=False)
class DuffyPoint:
    """One cube point with its simplex image and transformation data."""

    eta: np.ndarray
    xi: np.ndarray
    jac_det: float
    _inv_jacobian: np.ndarray | None = None

    @property
    def inv_jacobian(self) -> np.ndarray:
        if self._inv_jacobian is None:
            raise SingularityError("inverse Jacobian is undefined at a collapsed point")
        return self._inv_jacobian


def duffy_map(eta, dim: int) -> DuffyPoint:
    """Map one cube point to the simplex; collapsed faces (eta2 = 1 or
    eta3 = 1) are allowed but leave the inverse Jacobian undefined."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    e = np.asarray(eta, dtype=float)
    if e.shape != (dim,):
        raise ParameterError(f"eta must have shape ({dim},), got {e.shape}")
    if np.any(np.abs(e) > 1.0 + 1e-14):
        raise ParameterError("eta must lie in the closed cube [-1, 1]^d")
    if dim == 2:
        e1, e2 = e
        xi = np.array([(1.0 + e1) * (1.0 - e2) / 2.0 - 1.0, e2])
        det = (1.0 - e2) / 2.0
        collapsed = e2 == 1.0
        inv = None
        if not collapsed:
            inv = np.array([[2.0 / (1.0 - e2), (1.0 + e1) / (1.0 - e2)], [0.0, 1.0]])
        return DuffyPoint(eta=e, xi=xi, jac_det=float(det), _inv_jacobian=inv)
    e1, e2, e3 = e
    xi = np.array(
        [
            (1.0 + e1) * (1.0 - e2) * (1.0 - e3) / 4.0 - 1.0,
            (1.0 + e2) * (1.0 - e3) / 2.0 - 1.0,
            e3,
        ]
    )
    det = ((1.0 - e2) / 2.0) * ((1.0 - e3) / 2.0) ** 2
    collapsed = e2 == 1.0 or e3 == 1.0
    inv = None
    if not collapsed:
        s23 = (1.0 - e2) * (1.0 - e3)
        inv = np.array(
            [
                [4.0 / s23, 2.0 * (1.0 + e1) / s23, 2.0 * (1.0 + e1) / s23],
                [0.0, 2.0 / (1.0 - e3), (1.0 + e2) / (1.0 - e3)],
                [0.0, 0.0, 1.0],
            ]
        )
    return DuffyPoint(eta=e, xi=xi, jac_det=float(det), _inv_jacobian=inv)


def _norm_sq(p, q=None, r=None):
    """Squared L2 norm of the basis function with components (p[, q[, r]]),
    for integers or integer arrays alike, in one operation order."""
    n = 2.0 / (2.0 * p + 1.0)
    if q is None:
        return n
    n = n * (2.0 / (2.0 * p + 2.0 * q + 2.0))
    if r is None:
        return n
    return n * (2.0 / (2.0 * p + 2.0 * q + 2.0 * r + 3.0))


def dubiner_norm_sq(idx: SimplexIndex, dim: int | None = None) -> float:
    """Squared L2 norm of the basis function at idx."""
    d = idx.dim if dim is None else dim
    if d != idx.dim:
        raise ParameterError(f"index {idx!r} is {idx.dim}-dimensional, not {d}")
    return _norm_sq(idx.p, idx.q, idx.r)


def _check_simplex_point(pts: np.ndarray, dim: int) -> None:
    tol = 1e-12
    if np.any(pts < -1.0 - tol) or np.any(np.sum(pts, axis=1) > (2.0 - dim) + tol):
        raise ParameterError("point outside the closed reference simplex")


def _dubiner_matrix(basis: BasisSet, pts) -> np.ndarray:
    """Values of every basis function at the given points, shape (card, npts).

    Works on the closed simplex: the collapsed coordinates are evaluated in
    homogenized form, never through the inverse map.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != basis.dim:
        raise ParameterError(f"points must have shape (npts, {basis.dim})")
    N = basis.N
    out = np.empty((basis.cardinality, pts.shape[0]))
    pos = {idx: i for i, idx in enumerate(basis.indices)}
    if basis.dim == 1:
        tab = _jacobi_table(N, _LEG, pts[:, 0])
        for idx in basis.indices:
            out[pos[idx]] = tab[idx.p]
        return out
    if basis.dim == 2:
        x1, x2 = pts[:, 0], pts[:, 1]
        s_leg = _scaled_jacobi_table(N, _LEG, (1.0 + 2.0 * x1 + x2) / 2.0, (1.0 - x2) / 2.0)
        for p in range(N + 1):
            qtab = _jacobi_table(N - p, JacobiWeight(2.0 * p + 1.0, 0.0), x2)
            for q in range(N - p + 1):
                out[pos[SimplexIndex(p, q)]] = s_leg[p] * qtab[q]
        return out
    x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
    s_leg = _scaled_jacobi_table(N, _LEG, 1.0 + x1 + (x2 + x3) / 2.0, -(x2 + x3) / 2.0)
    a2, b2 = (1.0 + 2.0 * x2 + x3) / 2.0, (1.0 - x3) / 2.0
    for p in range(N + 1):
        s_q = _scaled_jacobi_table(N - p, JacobiWeight(2.0 * p + 1.0, 0.0), a2, b2)
        for q in range(N - p + 1):
            rtab = _jacobi_table(N - p - q, JacobiWeight(2.0 * p + 2.0 * q + 2.0, 0.0), x3)
            base = s_leg[p] * s_q[q]
            for r in range(N - p - q + 1):
                out[pos[SimplexIndex(p, q, r)]] = base * rtab[r]
    return out


def dubiner_eval(idx: SimplexIndex, xi, dim: int) -> float:
    """Value of the basis function at one point of the closed simplex."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    if idx.dim != dim:
        raise ParameterError(f"index {idx!r} is {idx.dim}-dimensional, not {dim}")
    pt = np.asarray(xi, dtype=float).reshape(1, dim)
    _check_simplex_point(pt, dim)
    basis = enumerate_basis(idx.degree, dim)
    return float(_dubiner_matrix(basis, pt)[basis.position(idx), 0])


def _rule_size(N: int) -> int:
    # per-direction node count for degree-N bases, the one rule behind every
    # default rule in analysis, form assembly and the CLI; ample for every
    # assembled integrand and re-validated by the doubling tests
    return 2 * N + 6


def _node_count(N: int, nodes) -> int:
    """Per-direction node count for a degree-N basis: the default rule, or
    ``nodes`` when it is an integer of at least N + 2."""
    if nodes is None:
        return _rule_size(N)
    return _check_int(f"nodes for a degree-{N} basis", nodes, least=N + 2)


def _lift(y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Points one dimension up over the simplex points y (rows) and the
    collapsed coordinates e (columns), y-major: y shrinks toward the top
    vertex by (1 - e)/2 and e becomes the last coordinate."""
    half = (1.0 - e) / 2.0
    x = (1.0 + y[:, None, :]) * half[None, :, None] - 1.0
    last = np.broadcast_to(e[None, :, None], (len(y), len(e), 1))
    return np.concatenate([x, last], axis=2).reshape(-1, y.shape[1] + 1)


def _collapsed_grid(dim: int, m: int) -> np.ndarray:
    """The m-point tensor Gauss grid of the cube mapped onto the simplex,
    as (m**dim, dim) points with eta_1 slowest."""
    t, _ = _gl_nodes(m)
    pts = t[:, None]
    for _ in range(1, dim):
        pts = _lift(pts, t)
    return pts


def _axis_weights(dim: int, m: int) -> list:
    """Per-axis weights of the collapsed grid: w * ((1 - eta)/2)**k on axis
    k carries the map's volume factor."""
    t, w = _gl_nodes(m)
    half = (1.0 - t) / 2.0
    return [w * half**k for k in range(dim)]


def _axis_factors(k: int, s: int, N: int, t: np.ndarray, kinds: str = "V") -> dict:
    """Axis-k factor tables for the prefix sum s, one row per component
    c = 0..N-s at the nodes t: V = P_c^(2s+k, 0) half**s, half = (1 - t)/2,
    and the kinds named in ``kinds`` that the pulled-back gradient needs with
    its collapsed powers cancelled: U = P_c half**(s-1) (zero at s = 0),
    D = dV/dt and X = (1 + t) D."""
    alpha = 2.0 * s + k
    half = (1.0 - t) / 2.0
    tab = _jacobi_table(N - s, JacobiWeight(alpha, 0.0), t)
    out = {}
    if "U" in kinds:
        out["U"] = tab * half ** (s - 1) if s >= 1 else np.zeros(tab.shape)
    if "D" in kinds or "X" in kinds:
        d = _deriv_table(N - s, alpha, t)
        if s >= 1:
            d *= half**s
            d -= (s / 2.0) * tab * half ** (s - 1)
        out["D"] = d
        if "X" in kinds:
            out["X"] = (1.0 + t) * d
    # V last, as U and D need the unscaled table; in place, to hold one
    # table fewer
    if s >= 1:
        tab *= half**s
    out["V"] = tab
    return out


def analyze(f, N: int, dim: int, nodes: int | None = None) -> np.ndarray:
    """Raw inner products of f against every basis function of degree <= N.

    Integration runs on the cube with the map's volume factor explicit;
    per-direction node count follows the degree (override with ``nodes``).
    """
    comps = _graded_components(N, dim)
    m = _node_count(N, nodes)
    t, w = _gl_nodes(m)
    pts = _collapsed_grid(dim, m)
    half = (1.0 - t) / 2.0
    # raw tensor weights times the volume factor, in an order that fixes the
    # last bits of the 1-D and 2-D sums, which `rates` errors print
    volume = reduce(np.multiply.outer, [half**k for k in range(1, dim)], 1.0)
    weight = reduce(np.multiply.outer, [w] * dim) * volume
    # contract one axis at a time over the index prefixes fixed so far
    parts = {(): weight * f(pts).reshape((m,) * dim)}
    for k in range(dim):
        by_sum = {}
        for prefix in parts:
            by_sum.setdefault(sum(prefix), []).append(prefix)
        contracted = {}
        for s, prefixes in by_sum.items():
            tab = _axis_factors(k, s, N, t)["V"]
            for prefix in prefixes:
                for c, row in enumerate(np.tensordot(tab, parts.pop(prefix), axes=1)):
                    contracted[prefix + (c,)] = row
        parts = contracted
    return np.array([parts[c] for c in map(tuple, comps.tolist())])


def synthesize(coeffs, basis: BasisSet, xi) -> float:
    """Evaluate the expansion with raw inner-product coefficients at one point."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.cardinality,):
        raise ParameterError(
            f"coefficient length {c.shape} does not match basis cardinality {basis.cardinality}"
        )
    pt = np.asarray(xi, dtype=float).reshape(1, basis.dim)
    scaled = c / np.array([dubiner_norm_sq(idx) for idx in basis.indices])
    return float(scaled @ _dubiner_matrix(basis, pt)[:, 0])


def transformed_gradient(u_grad, eta) -> np.ndarray:
    """Cube-coordinate partial derivatives of u composed with the map,
    from a callback giving the simplex gradient of u at one 3D point."""
    e = np.asarray(eta, dtype=float)
    if e.shape != (3,):
        raise ParameterError(f"eta must have shape (3,), got {e.shape}")
    pt = duffy_map(e, 3)
    g = np.asarray(u_grad(pt.xi), dtype=float)
    if g.shape != (3,):
        raise ParameterError("gradient callback must return 3 components")
    e1, e2, e3 = e
    return np.array(
        [
            (1.0 - e2) * (1.0 - e3) / 4.0 * g[0],
            -(1.0 + e1) * (1.0 - e3) / 4.0 * g[0] + (1.0 - e3) / 2.0 * g[1],
            -(1.0 + e1) * (1.0 - e2) / 4.0 * g[0] - (1.0 + e2) / 2.0 * g[1] + g[2],
        ]
    )


def line_functions(f, p: int, q: int, nodes: int = 40):
    """Callables for the eta3 line reduction of f at fixed (p, q).

    The first integrates f over cube cross-sections against the (p, q)
    factor pair; the second divides out (1 - eta3)^(p+q), which is singular
    at eta3 = 1 for (p, q) != (0, 0).
    """
    p, q = _check_int("p", p), _check_int("q", q)
    m = _node_count(p + q, nodes)
    t, _ = _gl_nodes(m)
    section = _collapsed_grid(2, m)
    w1, w2 = _axis_weights(2, m)
    phi1 = w1 * _axis_factors(0, 0, p, t)["V"][p]
    phi2 = w2 * _axis_factors(1, p, p + q, t)["V"][q]

    def u_line(eta3):
        e3s = np.atleast_1d(np.asarray(eta3, dtype=float))
        vals = np.empty(e3s.shape)
        for i, e3 in enumerate(e3s):
            pts = _lift(section, np.array([e3]))
            vals[i] = phi1 @ f(pts).reshape(m, m) @ phi2
        return vals if np.ndim(eta3) else float(vals[0])

    def u_line_scaled(eta3):
        e3s = np.atleast_1d(np.asarray(eta3, dtype=float))
        if np.any(e3s == 1.0) and (p, q) != (0, 0):
            raise SingularityError(f"scaled line function is singular at eta3 = 1 for (p, q) = ({p}, {q})")
        vals = u_line(e3s) / (1.0 - e3s) ** (p + q)
        return vals if np.ndim(eta3) else float(vals[0])

    return u_line, u_line_scaled


def _legendre_derivative_values(values: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Derivative at the nodes of the polynomial interpolating the sampled
    values, via its Legendre expansion."""
    k_max = t.size - 1
    tab = _jacobi_table(k_max, _LEG, t)
    coeff = (np.arange(k_max + 1) + 0.5) * (tab @ (w * values))
    return coeff @ _deriv_table(k_max, 0.0, t)


def trace_coefficient_sum(f, p: int, q: int, N: int, nodes: int = 40):
    """Both sides of the alternating tail identity at fixed (p, q).

    Returns (tail_sum, short_form): the alternating series of scaled line
    coefficients from degree N up, truncated once three consecutive terms
    drop below 1e-14, and its closed three-term counterpart built from the
    derivative of the scaled line function.
    """
    N = _check_int("N", N, least=1)
    p, q = _check_int("p", p), _check_int("q", q)
    n = 2.0 * p + 2.0 * q + 2.0
    m = _node_count(max(p + q, N), nodes)
    t, w = _gl_nodes(m)
    u_line, _ = line_functions(f, p, q, nodes=m)
    u_vals = u_line(t)
    du_vals = _legendre_derivative_values(u_vals, t, w)

    r_cap = m - 1
    rtab = _jacobi_table(r_cap, JacobiWeight(n, 0.0), t)
    w_u = w * (1.0 - t) ** (p + q + 2)
    w_u_extra = w * (p + q) * (1.0 - t) ** (p + q + 1)
    u_tilde = rtab @ (w_u * u_vals)
    du_tilde = rtab @ (w_u * du_vals + w_u_extra * u_vals)

    # tail of the alternating series; 2^n / gamma_r reduces to (2r+n+1)/2
    scale = 2.0 ** -(p + q + 2)
    tail, below = 0.0, 0
    for r in range(N, r_cap + 1):
        term = (-1.0) ** r * (2.0 * r + n + 1.0) / 2.0 * scale * u_tilde[r]
        tail += term
        below = below + 1 if abs(term) < 1e-14 else 0
        if below >= 3:
            break

    short_scale = 2.0 ** -(p + q + 3)
    short = (-1.0) ** N * _h2(float(N), n) * (2.0 * N + n + 1.0) * short_scale * du_tilde[N]
    for r in (N - 1, N):
        short += (-1.0) ** (r + 1) * _h3(r + 1.0, n) * (2.0 * (r + 1.0) + n + 1.0) * short_scale * du_tilde[r]
    return tail, short


def _boundary_rule(dim: int, m: int):
    """Quadrature for the bottom edge (2D) or bottom face (3D): the
    (dim-1)-dimensional collapsed grid with x_dim = -1, and its weights."""
    pts = _collapsed_grid(dim - 1, m)
    wts = reduce(np.multiply.outer, _axis_weights(dim - 1, m)).ravel()
    return np.column_stack([pts, np.full(len(pts), -1.0)]), wts


def _boundary_norm_direct(f, dim: int, nodes: int = 40) -> float:
    """Squared boundary norm by direct quadrature on the boundary piece."""
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    pts, wts = _boundary_rule(dim, _node_count(0, nodes))
    vals = f(pts)
    return float(wts @ vals**2)


def boundary_trace_parseval(f, dim: int, gamma: str, N: int = 12) -> float:
    """Squared boundary norm from the coefficient side.

    Expands f to degree N, collapses the boundary-normal direction with the
    endpoint signs, and sums the squared collapsed coefficients against the
    boundary basis norms. Exact when f is a polynomial of degree <= N.
    """
    if dim == 2 and gamma != "edge":
        raise ParameterError(f"2D boundary piece must be 'edge', got {gamma!r}")
    if dim == 3 and gamma != "face":
        raise ParameterError(f"3D boundary piece must be 'face', got {gamma!r}")
    if dim not in (2, 3):
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    # collapse the last component c with its factor's endpoint value
    # (-1)^c (2c + alpha + 1)/2, alpha = 2s + dim - 1
    sums = {}
    for comps, coeff in zip(_graded_components(N, dim).tolist(), analyze(f, N, dim)):
        *head, c = comps
        alpha = 2.0 * sum(head) + dim - 1.0
        head = tuple(head)
        sums[head] = sums.get(head, 0.0) + (-1.0) ** c * coeff * (2.0 * c + alpha + 1.0) / 2.0
    total = 0.0
    for head in sorted(sums):
        # inverse squared norm of the boundary function, exact half-integers
        inv_norm = math.prod((2.0 * sum(head[: k + 1]) + k + 1.0) / 2.0 for k in range(dim - 1))
        total += inv_norm * sums[head] * sums[head]
    return total
