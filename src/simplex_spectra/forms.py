"""Dense symmetric bilinear forms (mass, H1, boundary trace, endpoint
evaluation) over the orthonormalized bases, plus coefficient truncation.

Assembly runs on the cube through the collapsed-coordinate map with the
volume factor explicit in the integrand. Every volume integrand is a short
sum of separable per-axis products, so each Gram is a sum of Hadamard
products of one-dimensional Grams (sum factorization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jacobi import JacobiWeight, _jacobi_table
from .simplex import (
    BasisSet,
    SimplexIndex,
    _boundary_rule,
    _dubiner_matrix,
    _gl_nodes,
    _rule_size,
    dubiner_norm_sq,
    enumerate_basis,
)

__all__ = [
    "SymmetricForm",
    "mass_form",
    "h1_form",
    "trace_form",
    "point_eval_form",
    "projection_form",
]

_KINDS = ("mass", "h1", "trace", "point_eval")
_LEG = JacobiWeight(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """One assembled quadratic form over an orthonormalized basis.

    ``scaling`` holds 1/norm per basis function (the orthonormalization
    data); ``factor`` is set for low-rank kinds and satisfies
    entries = factor @ factor.T up to assembly roundoff.
    """

    basis: BasisSet
    kind: str
    entries: np.ndarray
    scaling: np.ndarray
    factor: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        n = self.basis.cardinality
        if self.entries.shape != (n, n):
            raise ParameterError(f"entries must be {n}x{n}, got {self.entries.shape}")
        if self.scaling.shape != (n,):
            raise ParameterError(f"scaling must have length {n}")
        scale = max(float(np.max(np.abs(self.entries))), 1e-300)
        skew = float(np.max(np.abs(self.entries - self.entries.T)))
        if skew > 1e-13 * scale:
            raise ParameterError(f"entries are not symmetric: relative skew {skew / scale:.3e}")
        if self.factor is not None and self.factor.shape[0] != n:
            raise ParameterError("factor row count must match the basis cardinality")


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _scaling_vector(basis: BasisSet) -> np.ndarray:
    return np.array([1.0 / np.sqrt(dubiner_norm_sq(idx)) for idx in basis.indices])


def _deriv_table(n: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """Rows of first derivatives for the weight (alpha, 0), degrees 0..n."""
    out = np.zeros((n + 1, t.size))
    if n >= 1:
        shifted = _jacobi_table(n - 1, JacobiWeight(alpha + 1.0, 1.0), t)
        for k in range(1, n + 1):
            out[k] = 0.5 * (k + alpha + 1.0) * shifted[k - 1]
    return out


def _check_degree_arg(M: int) -> int:
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {M!r}")
    return int(M)


def _node_count(M: int, nodes: int | None) -> int:
    if nodes is None:
        return _rule_size(M)
    if nodes < M + 2:
        raise ParameterError(f"nodes={nodes} cannot integrate a degree-{M} basis")
    return int(nodes)


def _axis_tables(basis: BasisSet, t: np.ndarray, grad: bool) -> dict:
    """Per-axis factor tables, one row per basis index.

    Value rows multiply to the unscaled basis function on the tensor grid;
    gradient rows realize the pulled-back simplex gradient with every
    collapsed-power division cancelled algebraically beforehand.
    """
    N, dim, card, m = basis.N, basis.dim, basis.cardinality, t.size
    p_arr = np.array([i.p for i in basis.indices])
    q_arr = np.array([i.q for i in basis.indices])
    half = (1.0 - t) / 2.0
    leg = _jacobi_table(N, _LEG, t)
    tabs = {"AV": leg[p_arr]}
    if grad:
        dleg = _deriv_table(N, 0.0, t)
        tabs["AD"] = dleg[p_arr]
        tabs["AX"] = (1.0 + t)[None, :] * tabs["AD"]
    if dim == 1:
        return tabs

    names = ["BV"] + (["BU", "BQ"] if grad else []) + (["BY"] if grad and dim == 3 else [])
    for name in names:
        tabs[name] = np.zeros((card, m))
    for p in range(N + 1):
        rows = np.flatnonzero(p_arr == p)
        if rows.size == 0:
            continue
        qt = _jacobi_table(N - p, JacobiWeight(2.0 * p + 1.0, 0.0), t)
        tp = half**p
        qrows = q_arr[rows]
        tabs["BV"][rows] = qt[qrows] * tp
        if grad:
            dqt = _deriv_table(N - p, 2.0 * p + 1.0, t)
            bq = dqt[qrows] * tp
            if p >= 1:
                tpm1 = half ** (p - 1)
                tabs["BU"][rows] = qt[qrows] * tpm1
                bq = bq - (p / 2.0) * qt[qrows] * tpm1
            tabs["BQ"][rows] = bq
            if dim == 3:
                tabs["BY"][rows] = (1.0 + t)[None, :] * bq

    if dim == 3:
        r_arr = np.array([i.r for i in basis.indices])
        for name in ["CV"] + (["CU", "CR"] if grad else []):
            tabs[name] = np.zeros((card, m))
        for p in range(N + 1):
            for q in range(N - p + 1):
                rows = np.flatnonzero((p_arr == p) & (q_arr == q))
                if rows.size == 0:
                    continue
                n_pq = 2.0 * p + 2.0 * q + 2.0
                rt = _jacobi_table(N - p - q, JacobiWeight(n_pq, 0.0), t)
                wpq = half ** (p + q)
                rrows = r_arr[rows]
                tabs["CV"][rows] = rt[rrows] * wpq
                if grad:
                    drt = _deriv_table(N - p - q, n_pq, t)
                    cr = drt[rrows] * wpq
                    if p + q >= 1:
                        wpqm1 = half ** (p + q - 1)
                        tabs["CU"][rows] = rt[rrows] * wpqm1
                        cr = cr - ((p + q) / 2.0) * rt[rrows] * wpqm1
                    tabs["CR"][rows] = cr
    return tabs


# Each integrand is a list of separable terms (coefficient, per-axis table
# names): the scaled value, then each component of the pulled-back gradient.
_VALUE = {1: [(1.0, ("AV",))], 2: [(1.0, ("AV", "BV"))], 3: [(1.0, ("AV", "BV", "CV"))]}
_GRADIENT = {
    1: [[(1.0, ("AD",))]],
    2: [[(1.0, ("AD", "BU"))], [(0.5, ("AX", "BU")), (1.0, ("AV", "BQ"))]],
    3: [
        [(1.0, ("AD", "BU", "CU"))],
        [(0.5, ("AX", "BU", "CU")), (1.0, ("AV", "BQ", "CU"))],
        [(0.5, ("AX", "BU", "CU")), (0.5, ("AV", "BY", "CU")), (1.0, ("AV", "BV", "CR"))],
    ],
}


def _assemble_volume(basis: BasisSet, m: int, want_stiffness: bool):
    """Mass (always) and stiffness (optional) Grams of the scaled basis.

    The tensor Gauss rule integrates a separable product as the product of
    per-axis sums, so each pair of terms contributes the Hadamard product
    of one card x card Gram per axis; axis k carries the collapsed volume
    factor half**k in its weights.
    """
    t, w = _gl_nodes(m)
    half = (1.0 - t) / 2.0
    weights = [w * half**k for k in range(basis.dim)]
    tabs = _axis_tables(basis, t, grad=want_stiffness)
    s = _scaling_vector(basis)

    def gram(integrands):
        out = np.zeros((basis.cardinality, basis.cardinality))
        for terms in integrands:
            for ca, a in terms:
                for cb, b in terms:
                    prod = ca * cb
                    for wk, ta, tb in zip(weights, a, b):
                        prod = prod * ((tabs[ta] * wk) @ tabs[tb].T)
                    out += prod
        return _symmetrize(s[:, None] * out * s[None, :])

    mass = gram([_VALUE[basis.dim]])
    stiff = gram(_GRADIENT[basis.dim]) if want_stiffness else None
    return mass, stiff


def mass_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """Quadrature-assembled L2 Gram of the scaled basis (identity up to
    quadrature roundoff; assembled, not assumed)."""
    M = _check_degree_arg(M)
    basis = enumerate_basis(M, dim)
    mass, _ = _assemble_volume(basis, _node_count(M, nodes), want_stiffness=False)
    return SymmetricForm(basis=basis, kind="mass", entries=mass, scaling=_scaling_vector(basis))


def h1_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """L2 + gradient Gram of the scaled basis; gradients are pulled back
    from cube coordinates with the collapsed powers cancelled exactly."""
    M = _check_degree_arg(M)
    basis = enumerate_basis(M, dim)
    mass, stiff = _assemble_volume(basis, _node_count(M, nodes), want_stiffness=True)
    return SymmetricForm(
        basis=basis, kind="h1", entries=mass + stiff, scaling=_scaling_vector(basis)
    )


def _edge_chain(dim: int):
    """Boundary pieces as (map to simplex coords, line measure factor)."""
    if dim == 2:
        return [
            (lambda a: np.column_stack([a, -np.ones_like(a)]), 1.0),
            (lambda a: np.column_stack([-np.ones_like(a), a]), 1.0),
            (lambda a: np.column_stack([a, -a]), np.sqrt(2.0)),
        ]
    return [
        (lambda ab: np.column_stack([ab[:, 0], ab[:, 1], -np.ones(len(ab))]), 1.0),
        (lambda ab: np.column_stack([ab[:, 0], -np.ones(len(ab)), ab[:, 1]]), 1.0),
        (lambda ab: np.column_stack([-np.ones(len(ab)), ab[:, 0], ab[:, 1]]), 1.0),
        (
            lambda ab: np.column_stack([ab[:, 0], ab[:, 1], -1.0 - ab[:, 0] - ab[:, 1]]),
            np.sqrt(3.0),
        ),
    ]


def trace_form(M: int, dim: int, gamma: str, nodes: int | None = None) -> SymmetricForm:
    """Boundary Gram over the selected piece: the bottom edge (2D), the
    bottom face (3D), or the whole boundary via the affine face maps."""
    M = _check_degree_arg(M)
    if dim not in (2, 3):
        raise ParameterError(f"trace forms need dim 2 or 3, got {dim}")
    allowed = {"2edge": (2, "edge"), "3face": (3, "face")}
    if gamma not in ("edge", "face", "full_boundary"):
        raise ParameterError(f"gamma must be edge, face, or full_boundary, got {gamma!r}")
    if gamma in ("edge", "face") and allowed.get(f"{dim}{gamma}") != (dim, gamma):
        raise ParameterError(f"gamma {gamma!r} does not name a boundary piece of the {dim}D simplex")
    basis = enumerate_basis(M, dim)
    s = _scaling_vector(basis)
    m = _node_count(M, nodes)

    if gamma in ("edge", "face"):
        pts, w = _boundary_rule(dim, m)
        if dim == 2:
            p_arr = np.array([i.p for i in basis.indices])
            signs = np.array([(-1.0) ** i.q for i in basis.indices])
            ev = signs[:, None] * _jacobi_table(M, _LEG, pts[:, 0])[p_arr]
        else:
            signs = np.array([(-1.0) ** i.r for i in basis.indices])
            basis2 = enumerate_basis(M, 2)
            pos2 = {idx: k for k, idx in enumerate(basis2.indices)}
            rows = np.array([pos2[SimplexIndex(i.p, i.q)] for i in basis.indices])
            ev = signs[:, None] * _dubiner_matrix(basis2, pts[:, :2])[rows]
        factor = (s[:, None] * ev) * np.sqrt(w)[None, :]
        return SymmetricForm(
            basis=basis,
            kind="trace",
            entries=_symmetrize(factor @ factor.T),
            scaling=s,
            factor=factor,
        )

    # full boundary: evaluate the basis on every face through the affine maps
    if dim == 2:
        a, w1 = _gl_nodes(m)
        params, base_w = a[:, None], w1
    else:
        pts2, w2 = _boundary_rule(3, m)
        params, base_w = pts2[:, :2], w2
    blocks = []
    for to_simplex, measure in _edge_chain(dim):
        pts = to_simplex(params if dim == 3 else params[:, 0])
        ev = s[:, None] * _dubiner_matrix(basis, pts)
        blocks.append(ev * np.sqrt(measure * base_w)[None, :])
    factor = np.hstack(blocks)
    return SymmetricForm(
        basis=basis,
        kind="trace",
        entries=_symmetrize(factor @ factor.T),
        scaling=s,
        factor=factor,
    )


def point_eval_form(M: int) -> SymmetricForm:
    """Rank-one endpoint evaluation form on the interval basis."""
    M = _check_degree_arg(M)
    basis = enumerate_basis(M, 1)
    s = _scaling_vector(basis)
    # each scaled basis function equals its scale at the right endpoint
    return SymmetricForm(
        basis=basis,
        kind="point_eval",
        entries=np.outer(s, s),
        scaling=s,
        factor=s[:, None],
    )


def projection_form(B: SymmetricForm, N: int) -> SymmetricForm:
    """The form B composed with coefficient truncation to degree N on both
    arguments (same basis, rows and columns above degree N zeroed)."""
    if _check_degree_arg(N) > B.basis.N:
        raise ParameterError(f"N {N} outside the basis degree range 0..{B.basis.N}")
    d = np.array([idx.degree <= N for idx in B.basis.indices])
    factor = None if B.factor is None else d[:, None] * B.factor
    return SymmetricForm(
        basis=B.basis,
        kind=B.kind,
        entries=d[:, None] * B.entries * d[None, :],
        scaling=B.scaling,
        factor=factor,
    )
