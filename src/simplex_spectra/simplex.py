"""Collapsed-coordinate machinery on the reference triangle and tetrahedron:
the cube-to-simplex map, the orthogonal polynomial basis adapted to it,
analysis of functions into expansions, boundary traces, and the
finite-sum reduction behind the trace identities.

The one home of the collapsed layout: on cube axis k the basis function
with components c has the factor P_{c_k}^(2s+k, 0)(eta_k) ((1 - eta_k)/2)^s,
s = c_0 + ... + c_{k-1}, and the volume factor ((1 - eta_k)/2)^k.
``_collapsed_grid``, ``_axis_weights`` and ``_axis_factors`` give the grid,
its weights and the factor tables in any dimension, the tables of one axis
for every prefix sum at once, indexed [s, c, node], and
``_component_values`` evaluates the same factors at simplex points for any
rows of components. A basis is the graded array of ``_graded_components``,
and ``_bottom_restriction`` writes its restriction to the bottom piece
x_{dim-1} = -1 through the basis one dimension down. ``_mirror_basis``
writes each degree slab of the interval or triangle basis in coordinates
that are even or odd under the domain's mirror.

Convention: function callbacks are vectorized over points, taking an
(npts, dim) array of simplex coordinates and returning (npts,) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError
from .jacobi import (
    JacobiWeight,
    _check_int,
    _deriv_table,
    _h2,
    _h3,
    _jacobi_table,
    gauss_jacobi_rule,
)

__all__ = [
    "BasisSet",
    "enumerate_basis",
    "analyze",
    "boundary_trace_parseval",
]

_LEG = JacobiWeight(0.0, 0.0)


@lru_cache(maxsize=128)
def _gl_nodes(m: int):
    """Gauss-Legendre nodes/weights, cached; treat the arrays as read-only."""
    rule = gauss_jacobi_rule(m, _LEG)
    return rule.nodes, rule.weights


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Graded-lex ordered basis of total degree <= N in the given dimension,
    held as the read-only (cardinality, dim) array of its components."""

    dim: int
    N: int
    components: np.ndarray

    def __post_init__(self):
        if _check_int("dim", self.dim) not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2, or 3, got {self.dim}")
        _check_int("N", self.N)
        if self.components.shape != (math.comb(self.N + self.dim, self.dim), self.dim):
            raise ParameterError("components do not match the degree and dimension")

    @property
    def cardinality(self) -> int:
        return len(self.components)


def _graded_components(N: int, dim: int) -> np.ndarray:
    """Components of every index of total degree <= N as rows of a
    (cardinality, dim) integer array: graded, lexicographic within a grade."""
    N = _check_int("N", N)
    if _check_int("dim", dim) not in (1, 2, 3):
        raise ParameterError(f"dim must be 1, 2, or 3, got {dim}")
    comps = np.indices((N + 1,) * dim).reshape(dim, -1).T
    # the grid is lexicographic already; a stable sort grades it and puts
    # the indices of degree <= N first
    order = np.argsort(comps.sum(axis=1), kind="stable")
    return comps[order[: math.comb(N + dim, dim)]]


def enumerate_basis(N: int, dim: int) -> BasisSet:
    """All indices of total degree <= N, graded, lexicographic within a grade."""
    comps = _graded_components(N, dim)
    comps.setflags(write=False)
    return BasisSet(dim=dim, N=int(N), components=comps)


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


def _dubiner_matrix(basis: BasisSet, pts) -> np.ndarray:
    """Values of every basis function at the (npts, dim) points, shape
    (card, npts)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.dim:
        raise ParameterError(f"points must have shape (npts, {basis.dim}), got {pts.shape}")
    return _component_values(basis.components, pts)


def _component_values(comps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of the basis functions with the given component rows (any
    rows, in any order) at the (npts, dim) points, shape (rows, npts).

    Works on the closed simplex: the axis-k factor is the homogenized table
    den^c P_c^(2s+k, 0)(num/den) with T = x_{k+1} + ... + x_{dim-1},
    num = ((dim-1-k) + 2 x_k + T)/2 and den = ((k+3-dim) - T)/2, so the
    collapsed coordinates are never formed. On the last axis T = 0, so
    num = x_{dim-1} and den = 1 exactly, and the table is the plain one.
    """
    dim = comps.shape[1]
    through = np.cumsum(comps, axis=1)
    prefix = through - comps
    out = np.ones((len(comps), len(pts)))
    for k in range(dim):
        T = pts[:, k + 1 :].sum(axis=1)
        num = ((dim - 1 - k) + 2.0 * pts[:, k] + T) / 2.0
        den = ((k + 3 - dim) - T) / 2.0
        weight = JacobiWeight(2.0 * np.arange(prefix[:, k].max() + 1) + k, 0.0)
        tab = _jacobi_table(int(through[:, k].max()), weight, num, den)
        out *= tab[prefix[:, k], comps[:, k]]
    return out


def _mirror_basis(M: int, dim: int):
    """The degree-M basis in coordinates that the mirror x -> -x (1-D) or
    x <-> y (2-D) maps to plus or minus themselves: (slabs, even), with
    slabs[d] the orthogonal matrix whose row p writes the p-th new
    coordinate of degree d in the orthonormalized degree-d functions, in
    basis order, and even[i] whether the i-th new coordinate, counted slab
    by slab, is even under the mirror.

    In 1-D the mirror takes P_k to (-1)^k P_k, so every slab is [[1]] and
    the label is the parity of k. In 2-D the right-angle vertex (-1, -1) is
    fixed by the swap, and the basis collapsed toward it is even or odd by
    the parity of its first index p (Dubiner, J. Sci. Comput. 6 (1991) 345).
    Its degree-d functions restrict to the hypotenuse (t, -t), which the
    swap takes to t -> -t, as multiples of P_p(t), and the restriction is
    one to one on the slab. So the p-th of them has coefficients
    proportional to int phi_i(t, -t) P_p(t) dt on the orthonormalized
    functions phi_i of the slab, and row p of slabs[d] is that vector
    scaled to unit length. The (M+1)-point Gauss-Legendre rule is exact
    for the integrals.
    """
    if dim not in (1, 2):
        raise ParameterError(f"the mirror basis is built for dim 1 and 2, got {dim}")
    comps = _graded_components(M, dim)
    # new coordinate p of degree d sits where the function with first
    # component p does: in 1-D p = d
    even = comps[:, 0] % 2 == 0
    if dim == 1:
        return [np.ones((1, 1))] * (M + 1), even
    t, w = _gl_nodes(M + 1)
    values = _component_values(comps, np.column_stack([t, -t]))
    values /= np.sqrt(_norm_sq(*comps.T))[:, None]
    legendre = _jacobi_table(M, _LEG, t) * w
    slabs, start = [], 0
    for d in range(M + 1):
        W = legendre[: d + 1] @ values[start : start + d + 1].T
        slabs.append(W / np.linalg.norm(W, axis=1, keepdims=True))
        start += d + 1
    return slabs, even


def _rule_size(N: int) -> int:
    # per-direction node count for degree-N bases, the one rule behind every
    # default rule in analysis, form assembly and the CLI; ample for every
    # assembled integrand and re-validated by the nesting checks
    return 2 * N + 6


# per-direction node count of the line and boundary functions: it integrates
# the finite-sum and trace-parseval polynomials exactly, and serves line
# degrees p + q, and tail degrees N, up to _LINE_RULE - 2
_LINE_RULE = 40


def _collapsed_grid(dim: int, m: int) -> np.ndarray:
    """The m-point tensor Gauss grid of the cube mapped onto the simplex,
    as (m**dim, dim) points with eta_1 slowest: each axis after the first
    shrinks the points so far toward the top vertex by (1 - eta)/2 and
    appends eta as the last coordinate."""
    t, _ = _gl_nodes(m)
    half = (1.0 - t) / 2.0
    pts = t[:, None]
    for _ in range(1, dim):
        x = (1.0 + pts[:, None, :]) * half[None, :, None] - 1.0
        last = np.broadcast_to(t[None, :, None], (len(pts), m, 1))
        pts = np.concatenate([x, last], axis=2).reshape(-1, pts.shape[1] + 1)
    return pts


def _axis_weights(dim: int, m: int) -> list:
    """Per-axis weights of the collapsed grid: w * ((1 - eta)/2)**k on axis
    k carries the map's volume factor."""
    t, w = _gl_nodes(m)
    half = (1.0 - t) / 2.0
    return [w * half**k for k in range(dim)]


def _axis_factors(k: int, N: int, t: np.ndarray, kinds: str = "V") -> dict:
    """Axis-k factor tables at the nodes t for every prefix sum s at once,
    each kind one array indexed [s, c, node]: s = 0..N on axes k >= 1, only
    s = 0 on axis 0, which has no earlier axes; c = 0..N-s, the entries
    beyond stay zero. V = P_c^(2s+k, 0) half**s, half = (1 - t)/2, and the
    kinds named in ``kinds`` that the pulled-back gradient needs with its
    collapsed powers cancelled: U = P_c half**(s-1) (zero at s = 0),
    D = dV/dt and X = (1 + t) D."""
    s = np.arange(N + 1 if k else 1)
    weight = JacobiWeight(2.0 * s + k, 0.0)
    half = (1.0 - t) / 2.0
    # half**s one power at a time, with the bits of each scalar power
    powers = np.array([half**j for j in range(len(s))])[:, None, :]
    tab = _jacobi_table(N, weight, t)
    out = {}
    # products in place or one prefix sum at a time, to hold no table
    # beyond the kinds asked for
    if "D" in kinds or "X" in kinds:
        d = _deriv_table(N, weight, t)
        d[1:] *= powers[1:]
        for j in range(1, len(s)):
            d[j] -= (j / 2.0) * tab[j] * powers[j - 1]
        out["D"] = d
        if "X" in kinds:
            out["X"] = (1.0 + t) * d
    if "U" in kinds:
        out["U"] = np.zeros(tab.shape)
        np.multiply(tab[1:], powers[:-1], out=out["U"][1:])
    # V last, as U and D need the unscaled table
    tab[1:] *= powers[1:]
    out["V"] = tab
    return out


def _sample(f, pts: np.ndarray) -> np.ndarray:
    """The callback f at the (npts, dim) points, or at npts nodes of a 1-d
    rule, as a float array of shape (npts,); ParameterError if f returns
    any other shape or a value that is not finite."""
    if not callable(f):
        raise ParameterError(f"function must be callable, got {f!r}")
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ParameterError(
            f"function must return shape ({len(pts)},) at {len(pts)} points, got shape {vals.shape}"
        )
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise ParameterError(f"function must return finite values, got {bad} non-finite of {len(pts)}")
    return vals


def analyze(f, N: int, dim: int, nodes: int | None = None) -> np.ndarray:
    """Raw inner products of f against every basis function of degree <= N.

    Integration runs on the cube with the map's volume factor explicit;
    per-direction node count follows the degree (override with ``nodes``, an
    integer of at least N + 2).
    """
    comps = _graded_components(N, dim)
    m = _rule_size(N) if nodes is None else _check_int(f"nodes for a degree-{N} basis", nodes, least=N + 2)
    t, w = _gl_nodes(m)
    pts = _collapsed_grid(dim, m)
    half = (1.0 - t) / 2.0
    # raw tensor weights times the volume factor, in an order that fixes the
    # last bits of the 1-D and 2-D sums, which `rates` errors print
    volume = reduce(np.multiply.outer, [half**k for k in range(1, dim)], 1.0)
    weight = reduce(np.multiply.outer, [w] * dim) * volume
    # contract one axis at a time: after axis k, parts[c_0, ..., c_k] holds
    # the integrand contracted against the factors of those components
    parts = weight * _sample(f, pts).reshape((m,) * dim)
    for k in range(dim):
        V = _axis_factors(k, N, t)["V"]
        contracted = np.zeros((N + 1,) * (k + 1) + (m,) * (dim - k - 1))
        prefixes = map(tuple, _graded_components(N, k).tolist()) if k else [()]
        for prefix in prefixes:
            s = sum(prefix)
            contracted[prefix][: N - s + 1] = np.einsum("cn,n...->c...", V[s, : N - s + 1], parts[prefix])
        parts = contracted
    return parts[tuple(comps.T)]


def _trace_coefficient_sums(f, pairs, Ns) -> list:
    """Both sides of the alternating tail identity, for each (p, q) in pairs
    a list of (tail_sum, short_form), one for each degree N in Ns: the
    alternating series of scaled line coefficients from degree N up,
    truncated once three consecutive terms drop below 1e-14, and its closed
    three-term counterpart built from the derivative of the scaled line
    function, f integrated over the eta3 cross-sections against the (p, q)
    factor pair. One sample of f serves every pair, and one line function
    and its coefficients, which do not depend on N, every degree."""
    Ns = [_check_int("N", N, least=1) for N in Ns]
    pairs = [(_check_int("p", p), _check_int("q", q)) for p, q in pairs]
    if max(Ns) > _LINE_RULE - 2:
        raise ParameterError(f"N must be <= {_LINE_RULE - 2} on the {_LINE_RULE}-point rule, got {max(Ns)}")
    top = max(p + q for p, q in pairs)
    if top > _LINE_RULE - 2:
        raise ParameterError(f"p + q must be <= {_LINE_RULE - 2} on the {_LINE_RULE}-point rule, got {top}")
    m, r_cap = _LINE_RULE, _LINE_RULE - 1
    t, w = _gl_nodes(m)
    # each eta3 node's (eta1, eta2) section as a contiguous (m, m) array,
    # which the contraction reads with the bits of a sample of it alone
    sections = np.ascontiguousarray(_sample(f, _collapsed_grid(3, m)).reshape(m * m, m).T).reshape(m, m, m)
    w1, w2 = _axis_weights(2, m)
    V1, V2 = _axis_factors(0, max(p for p, _ in pairs), t)["V"][0], _axis_factors(1, top, t)["V"]
    legendre, d_legendre = _jacobi_table(r_cap, _LEG, t), _deriv_table(r_cap, _LEG, t)
    sums = []
    for p, q in pairs:
        n = 2.0 * p + 2.0 * q + 2.0
        phi1, phi2 = w1 * V1[p], w2 * V2[p, q]
        u_vals = np.array([phi1 @ section @ phi2 for section in sections])
        # the derivative of the interpolant, through its Legendre expansion
        du_vals = ((np.arange(m) + 0.5) * (legendre @ (w * u_vals))) @ d_legendre
        rtab = _jacobi_table(r_cap, JacobiWeight(n, 0.0), t)
        w_u = w * (1.0 - t) ** (p + q + 2)
        w_u_extra = w * (p + q) * (1.0 - t) ** (p + q + 1)
        u_tilde = rtab @ (w_u * u_vals)
        du_tilde = rtab @ (w_u * du_vals + w_u_extra * u_vals)

        # 2^n / gamma_r in the tail reduces to (2r+n+1)/2
        scale, short_scale = 2.0 ** -(p + q + 2), 2.0 ** -(p + q + 3)
        sums.append([])
        for N in Ns:
            # tail of the alternating series
            tail, below = 0.0, 0
            for r in range(N, r_cap + 1):
                term = (-1.0) ** r * (2.0 * r + n + 1.0) / 2.0 * scale * u_tilde[r]
                tail += term
                below = below + 1 if abs(term) < 1e-14 else 0
                if below >= 3:
                    break

            short = (-1.0) ** N * _h2(float(N), n) * (2.0 * N + n + 1.0) * short_scale * du_tilde[N]
            for r in (N - 1, N):
                short += (-1.0) ** (r + 1) * _h3(r + 1.0, n) * (2.0 * (r + 1.0) + n + 1.0) * short_scale * du_tilde[r]
            sums[-1].append((tail, short))
    return sums


# the dimensions whose simplex has the bottom boundary piece x_dim = -1:
# the bottom edge of the triangle and the bottom face of the tetrahedron
_BOTTOM = (2, 3)


def _bottom_restriction(N: int, dim: int):
    """The degree-N basis restricted to the bottom piece, for dim >= 2.

    There the last axis factor is its endpoint value (-1)^c, c the last
    component, and the head components index the (dim-1)-dimensional basis,
    so row k of ``_graded_components(N, dim)`` equals sign[k] times the
    function in row col[k] of heads = ``_graded_components(N, dim - 1)``.
    Returns (heads, col, sign).
    """
    comps = _graded_components(N, dim)
    heads = _graded_components(N, dim - 1)
    rank = np.zeros((N + 1,) * (dim - 1), dtype=int)
    rank[tuple(heads.T)] = np.arange(len(heads))
    return heads, rank[tuple(comps[:, :-1].T)], (-1.0) ** comps[:, -1]


def _bottom_coefficients(raw: np.ndarray, N: int, dim: int):
    """(heads, b): the expansion with raw inner products ``raw`` on the
    degree-N basis, restricted to the bottom piece, has coefficient b[j]
    on the function of heads row j; b sums sign * raw / norm_sq per head,
    in basis order."""
    heads, col, sign = _bottom_restriction(N, dim)
    b = np.zeros(len(heads))
    np.add.at(b, col, sign * raw / _norm_sq(*_graded_components(N, dim).T))
    return heads, b


def _boundary_rule(dim: int, m: int):
    """Quadrature for the bottom edge (2D) or bottom face (3D): the
    (dim-1)-dimensional collapsed grid with x_dim = -1, and its weights."""
    pts = _collapsed_grid(dim - 1, m)
    wts = reduce(np.multiply.outer, _axis_weights(dim - 1, m)).ravel()
    return np.column_stack([pts, np.full(len(pts), -1.0)]), wts


def _boundary_norm_direct(f, dim: int) -> float:
    """Squared boundary norm by direct quadrature on the boundary piece."""
    if _check_int("dim", dim) not in _BOTTOM:
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    pts, wts = _boundary_rule(dim, _LINE_RULE)
    return float(wts @ _sample(f, pts) ** 2)


def boundary_trace_parseval(f, dim: int, N: int) -> float:
    """Squared norm of f on the bottom piece, from the coefficient side.

    Expands f to degree N, restricts the expansion to the bottom piece and
    sums its squared coefficients against the norms of the bottom piece's
    basis. Exact when f is a polynomial of degree <= N.
    """
    if _check_int("dim", dim) not in _BOTTOM:
        raise ParameterError(f"dim must be 2 or 3, got {dim}")
    heads, b = _bottom_coefficients(analyze(f, N, dim), N, dim)
    return float(np.sum(_norm_sq(*heads.T) * b**2))
