"""Dense symmetric bilinear forms (mass, H1, boundary trace, endpoint
evaluation) over the orthonormalized bases, plus coefficient truncation.

The 1-D H1 form is the exact H1 Gram of the orthonormal Legendre basis, in
closed form. Every other volume form is assembled on the cube through the
collapsed-coordinate map with the volume factor explicit in the integrand.
Each such integrand is a short sum of separable per-axis products, so each
Gram is a sum of Hadamard products of one-dimensional Grams (sum
factorization), built from the per-axis weights and factor tables of
``simplex`` in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jacobi import JacobiWeight, _jacobi_table
from .simplex import (
    BasisSet,
    SimplexIndex,
    _axis_factors,
    _axis_weights,
    _boundary_rule,
    _check_int,
    _dubiner_matrix,
    _gl_nodes,
    _graded_components,
    _node_count,
    _norm_sq,
    enumerate_basis,
)

# bound for perfbench/tracing.py, which wraps this name
from .simplex import dubiner_norm_sq  # noqa: F401

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
    return 1.0 / np.sqrt(_norm_sq(*_graded_components(basis.N, basis.dim).T))


# Each integrand is a list of separable terms (coefficient, kinds): letter k
# names the axis-k factor kind of simplex._axis_factors. The value first,
# then each component of the pulled-back gradient; the 1-D H1 form is in
# closed form, so only the value has a 1-D entry.
_VALUE = {1: [(1.0, "V")], 2: [(1.0, "VV")], 3: [(1.0, "VVV")]}
_GRADIENT = {
    2: [[(1.0, "DU")], [(0.5, "XU"), (1.0, "VD")]],
    3: [
        [(1.0, "DUU")],
        [(0.5, "XUU"), (1.0, "VDU")],
        [(0.5, "XUU"), (0.5, "VXU"), (1.0, "VVD")],
    ],
}


def _axis_tables(basis: BasisSet, t: np.ndarray, terms) -> dict:
    """Per-axis factor tables keyed (kind, axis), one row per basis index,
    for the separable terms named in ``terms`` (one kind letter per axis).

    Row i of (kind, k) is the axis-k factor of index i: the table for its
    prefix sum over the earlier axes, at its axis-k component.
    """
    comps = _graded_components(basis.N, basis.dim)
    prefix = np.cumsum(comps, axis=1) - comps
    tabs = {}
    for k in range(basis.dim):
        kinds = {term[k] for term in terms}
        for kind in kinds:
            tabs[kind, k] = np.empty((basis.cardinality, t.size))
        for s in np.unique(prefix[:, k]):
            rows = np.flatnonzero(prefix[:, k] == s)
            factors = _axis_factors(k, int(s), basis.N, t, "".join(kinds))
            for kind in kinds:
                tabs[kind, k][rows] = factors.pop(kind)[comps[rows, k]]
    return tabs


def _assemble_volume(basis: BasisSet, m: int, s: np.ndarray, want_stiffness: bool):
    """Mass (always) and stiffness (optional) Grams of the basis scaled by s.

    The tensor Gauss rule integrates a separable product as the product of
    per-axis sums, so each pair of terms contributes the Hadamard product
    of one card x card Gram per axis; axis k carries the collapsed volume
    factor half**k in its weights.
    """
    t, _ = _gl_nodes(m)
    weights = _axis_weights(basis.dim, m)
    integrands = [_VALUE[basis.dim]] + (_GRADIENT[basis.dim] if want_stiffness else [])
    tabs = _axis_tables(basis, t, {term for terms in integrands for _, term in terms})

    def gram(integrands):
        out = np.zeros((basis.cardinality, basis.cardinality))
        for terms in integrands:
            for ca, a in terms:
                for cb, b in terms:
                    prod = ca * cb
                    for k, wk in enumerate(weights):
                        prod = prod * ((tabs[a[k], k] * wk) @ tabs[b[k], k].T)
                    out += prod
        return _symmetrize(s[:, None] * out * s[None, :])

    mass = gram([_VALUE[basis.dim]])
    stiff = gram(_GRADIENT[basis.dim]) if want_stiffness else None
    return mass, stiff


def mass_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """Quadrature-assembled L2 Gram of the scaled basis (identity up to
    quadrature roundoff; assembled, not assumed)."""
    M = _check_int("degree", M)
    basis = enumerate_basis(M, dim)
    s = _scaling_vector(basis)
    mass, _ = _assemble_volume(basis, _node_count(M, nodes), s, want_stiffness=False)
    return SymmetricForm(basis=basis, kind="mass", entries=mass, scaling=s)


def _interval_h1(s: np.ndarray) -> np.ndarray:
    """Exact H1 Gram of the Legendre basis scaled by s: the identity plus
    s_i s_j m(m + 1), m = min(i, j), where i + j is even, since
    int L_i' L_j' = m(m + 1) there and 0 elsewhere."""
    k = np.arange(s.size)
    m = np.minimum.outer(k, k)
    stiff = np.where((k[:, None] + k) % 2 == 0, m * (m + 1), 0)
    return _symmetrize(s[:, None] * stiff * s[None, :]) + np.eye(s.size)


def h1_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """L2 + gradient Gram of the scaled basis; gradients are pulled back
    from cube coordinates with the collapsed powers cancelled exactly.

    In 1-D the Gram is exact, in closed form, and ``nodes`` is only checked.
    """
    M = _check_int("degree", M)
    basis = enumerate_basis(M, dim)
    m = _node_count(M, nodes)
    s = _scaling_vector(basis)
    if dim == 1:
        entries = _interval_h1(s)
    else:
        mass, stiff = _assemble_volume(basis, m, s, want_stiffness=True)
        entries = mass + stiff
    return SymmetricForm(basis=basis, kind="h1", entries=entries, scaling=s)


def _edge_chain(dim: int):
    """Boundary pieces as (map from (npts, dim-1) parameters to simplex
    coords, measure factor)."""
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
    M = _check_int("degree", M)
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
    # of the bottom piece's parameters
    bottom, base_w = _boundary_rule(dim, m)
    blocks = []
    for to_simplex, measure in _edge_chain(dim):
        ev = s[:, None] * _dubiner_matrix(basis, to_simplex(bottom[:, :-1]))
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
    M = _check_int("degree", M)
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
    if _check_int("N", N) > B.basis.N:
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
