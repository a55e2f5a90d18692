"""Dense symmetric bilinear forms (mass, H1, bottom-piece trace) over the
orthonormalized bases.

The basis is orthonormal, so the H1 form is the identity plus the stiffness
Gram, and only the stiffness is assembled. The 1-D stiffness is exact, in
closed form. The 2-D and 3-D stiffness, and the mass Gram kept as the
oracle of orthogonality, are assembled on the cube through the
collapsed-coordinate map with the volume factor explicit in the integrand.
Each such integrand is a short sum of separable per-axis products, so each
Gram is a sum of Hadamard products of one-dimensional Grams (sum
factorization), built from the per-axis weights and factor tables of
``simplex`` in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jacobi import _check_int
from .simplex import (
    _BOTTOM,
    BasisSet,
    _axis_factors,
    _axis_weights,
    _boundary_rule,
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
]

_KINDS = ("mass", "h1", "trace")


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """One assembled quadratic form over an orthonormalized basis."""

    basis: BasisSet
    kind: str
    entries: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        n = self.basis.cardinality
        if self.entries.shape != (n, n):
            raise ParameterError(f"entries must be {n}x{n}, got {self.entries.shape}")
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
# names the axis-k factor kind of simplex._axis_factors. The components of
# the pulled-back gradient in 2-D and 3-D; the value is "V" * dim.
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
        kinds = "".join({term[k] for term in terms})
        factors = _axis_factors(k, basis.N, t, kinds)
        for kind in kinds:
            tabs[kind, k] = factors.pop(kind)[prefix[:, k], comps[:, k]]
    return tabs


def _gram(basis: BasisSet, m: int, s: np.ndarray, integrands) -> np.ndarray:
    """Gram of the basis scaled by s: entry (i, j) sums, over the
    integrands (each a list of separable terms), the integral of the
    integrand of function i times the same integrand of function j.

    The tensor Gauss rule integrates a separable product as the product of
    per-axis sums, so each pair of terms contributes the Hadamard product
    of one card x card Gram per axis; axis k carries the collapsed volume
    factor half**k in its weights. The sum runs over row blocks, each
    block's per-axis Grams taken for its rows only, and is scaled and
    symmetrized in place, so a Gram costs one card x card array.
    """
    t, _ = _gl_nodes(m)
    weights = _axis_weights(basis.dim, m)
    tabs = _axis_tables(basis, t, {term for terms in integrands for _, term in terms})
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


def mass_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """Quadrature-assembled L2 Gram of the scaled basis: the identity up to
    quadrature roundoff, assembled as the oracle of orthogonality and never
    on the way to a constant."""
    M = _check_int("degree", M)
    basis = enumerate_basis(M, dim)
    s = _scaling_vector(basis)
    entries = _gram(basis, _node_count(M, nodes), s, [[(1.0, "V" * dim)]])
    return SymmetricForm(basis=basis, kind="mass", entries=entries)


def _interval_stiffness(s: np.ndarray) -> np.ndarray:
    """Exact stiffness Gram of the Legendre basis scaled by s:
    s_i s_j m(m + 1), m = min(i, j), where i + j is even, since
    int L_i' L_j' = m(m + 1) there and 0 elsewhere. The entries m(m + 1)
    are integers, exact as floats, taken as min(i(i + 1), j(j + 1)); the
    odd-parity entries are zeroed by slicing."""
    k = np.arange(s.size, dtype=float)
    kk = k * (k + 1.0)
    stiff = np.minimum.outer(kk, kk)
    stiff[::2, 1::2] = 0.0
    stiff[1::2, ::2] = 0.0
    stiff *= s[:, None]
    stiff *= s
    return _symmetrize(stiff)


def h1_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """L2 + gradient Gram of the scaled basis: the identity, as the basis is
    orthonormal, plus the stiffness Gram. Only the stiffness is assembled;
    gradients are pulled back from cube coordinates with the collapsed
    powers cancelled exactly.

    In 1-D the stiffness is exact, in closed form, and ``nodes`` is only
    checked.
    """
    M = _check_int("degree", M)
    basis = enumerate_basis(M, dim)
    m = _node_count(M, nodes)
    s = _scaling_vector(basis)
    entries = _interval_stiffness(s) if dim == 1 else _gram(basis, m, s, _GRADIENT[dim])
    entries.flat[:: basis.cardinality + 1] += 1.0
    return SymmetricForm(basis=basis, kind="h1", entries=entries)


def trace_form(M: int, dim: int, nodes: int | None = None) -> SymmetricForm:
    """Boundary Gram over the bottom piece x_{dim-1} = -1: the bottom edge
    (2D) or the bottom face (3D)."""
    M = _check_int("degree", M)
    if dim not in _BOTTOM:
        raise ParameterError(f"trace forms need dim 2 or 3, got {dim}")
    basis = enumerate_basis(M, dim)
    s = _scaling_vector(basis)
    bottom, w = _boundary_rule(dim, _node_count(M, nodes))
    factor = s[:, None] * _dubiner_matrix(basis, bottom) * np.sqrt(w)
    entries = _symmetrize(factor @ factor.T)
    return SymmetricForm(basis=basis, kind="trace", entries=entries)
