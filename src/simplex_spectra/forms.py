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

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ParameterError
from .jacobi import _check_int
from .simplex import (
    _BOTTOM,
    BasisSet,
    _axis_factors,
    _axis_weights,
    _bottom_restriction,
    _boundary_rule,
    _component_values,
    _dubiner_matrix,
    _gl_nodes,
    _node_count,
    _norm_sq,
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
        hi, lo = float(self.entries.max()), float(self.entries.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ParameterError("entries must be finite")
        scale = max(hi, -lo, 1e-300)
        skew = 0.0
        # each row block against the matching column block, below and on
        # the diagonal, so that no full-size temporary is made
        for rows, lower in _row_blocks(n):
            block = self.entries[rows, lower] - self.entries[lower, rows].T
            skew = max(skew, float(np.max(np.abs(block))))
        if skew > 1e-13 * scale:
            raise ParameterError(f"entries are not symmetric: relative skew {skew / scale:.3e}")
        if self.factor is not None and self.factor.shape[0] != n:
            raise ParameterError("factor row count must match the basis cardinality")


# rows per block of the volume Grams, their symmetrization and the
# symmetry check; a block's temporaries are a few _ROW_BLOCK x card arrays
_ROW_BLOCK = 128


def _row_blocks(n: int):
    """(rows, lower) slice pairs: each block of _ROW_BLOCK rows of an n x n
    array and the columns up to its end, which hold its diagonal block."""
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        yield slice(r0, r1), slice(0, r1)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """a <- (a + a.T) / 2 in place, one row block at a time; returns a."""
    for rows, lower in _row_blocks(len(a)):
        sym = (a[rows, lower] + a[lower, rows].T) / 2.0
        a[rows, lower] = sym
        a[lower, rows] = sym.T
    return a


def _scaling_vector(basis: BasisSet) -> np.ndarray:
    return 1.0 / np.sqrt(_norm_sq(*basis.components.T))


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
    comps = basis.components
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
    factor half**k in its weights. The sums run over row blocks, each
    block's per-axis Grams taken for its rows only, and are scaled and
    symmetrized in place, so a Gram costs one card x card array.
    """
    t, _ = _gl_nodes(m)
    weights = _axis_weights(basis.dim, m)
    integrands = [_VALUE[basis.dim]] + (_GRADIENT[basis.dim] if want_stiffness else [])
    tabs = _axis_tables(basis, t, {term for terms in integrands for _, term in terms})

    def gram(integrands):
        out = np.zeros((basis.cardinality, basis.cardinality))
        for rows, _ in _row_blocks(basis.cardinality):
            for terms in integrands:
                for ca, a in terms:
                    for cb, b in terms:
                        prod = ca * cb
                        for k, wk in enumerate(weights):
                            prod = prod * ((tabs[a[k], k][rows] * wk) @ tabs[b[k], k].T)
                        out[rows] += prod
        out *= s[:, None]
        out *= s
        return _symmetrize(out)

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
        entries, stiff = _assemble_volume(basis, m, s, want_stiffness=True)
        entries += stiff
    return SymmetricForm(basis=basis, kind="h1", entries=entries, scaling=s)


def trace_form(M: int, dim: int, gamma: str, nodes: int | None = None) -> SymmetricForm:
    """Boundary Gram over the selected piece: the bottom edge (2D), the
    bottom face (3D), or the whole boundary via the affine face maps."""
    M = _check_int("degree", M)
    if dim not in _BOTTOM:
        raise ParameterError(f"trace forms need dim 2 or 3, got {dim}")
    if gamma not in (_BOTTOM[dim], "full_boundary"):
        raise ParameterError(
            f"gamma must be {_BOTTOM[dim]!r} or 'full_boundary' in {dim}D, got {gamma!r}"
        )
    basis = enumerate_basis(M, dim)
    s = _scaling_vector(basis)
    bottom, w = _boundary_rule(dim, _node_count(M, nodes))
    a = bottom[:, :-1]
    if gamma == "full_boundary":
        # the faces x_j = -1 for j = dim-1, ..., 0 over the bottom piece's
        # parameters a, then the slanted face x_{dim-1} = (2 - dim) - a_0 - ...
        faces = [(np.insert(a, j, -1.0, axis=1), 1.0) for j in reversed(range(dim))]
        faces.append((np.column_stack([a, reduce(np.subtract, a.T, 2.0 - dim)]), np.sqrt(dim)))
        pieces = [(_dubiner_matrix(basis, x), measure) for x, measure in faces]
    else:
        heads, col, sign = _bottom_restriction(M, dim)
        pieces = [(sign[:, None] * _component_values(heads, a)[col], 1.0)]
    factor = np.hstack([s[:, None] * ev * np.sqrt(measure * w) for ev, measure in pieces])
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
    d = B.basis.components.sum(axis=1) <= N
    factor = None if B.factor is None else d[:, None] * B.factor
    return SymmetricForm(
        basis=B.basis,
        kind=B.kind,
        entries=d[:, None] * B.entries * d[None, :],
        scaling=B.scaling,
        factor=factor,
    )
