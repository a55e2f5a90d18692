"""Dense symmetric bilinear forms (mass, H1, bottom-piece trace) over the
orthonormalized bases, each returned as its (n, n) array in the order of
``simplex.enumerate_basis``.

The basis is orthonormal, so the H1 form is the identity plus the stiffness
Gram, and only the stiffness is assembled. The 1-D stiffness is exact, in
closed form. The 2-D and 3-D stiffness, and the mass Gram kept as the
oracle of orthogonality, are assembled on the cube through the
collapsed-coordinate map with the volume factor explicit in the integrand.
Each such integrand is a short sum of separable per-axis products, so each
Gram is a sum of Hadamard products of one-dimensional Grams (sum
factorization). Those of the leading axes live on the distinct leading
components, and one product per pair of last-axis kinds is left for each
chunk of rows, taken below the diagonal only.

One chunk loop serves two ends. The whole form, which ``verify`` and the
tests read, is the chunks mirrored above the diagonal. A row of constants
never builds it: ``_h1_blocks`` changes each chunk to the mirror basis of
``simplex._mirror_basis`` in its own buffer and writes its even-even and
odd-odd parts straight into the form's two mirror blocks, keeping only the
largest magnitude of the even-odd coupling it drops.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .jacobi import _check_int
from .simplex import (
    _BOTTOM,
    _axis_factors,
    _axis_weights,
    _boundary_rule,
    _component_values,
    _gl_nodes,
    _norm_sq,
    _rule_size,
    enumerate_basis,
)

__all__ = [
    "mass_form",
    "h1_form",
    "trace_form",
]

# the most rows per chunk of the volume Grams but for a larger degree slab;
# a chunk's temporaries are two such row blocks of the basis
_ROW_BLOCK = 128


def _scaling_vector(comps: np.ndarray) -> np.ndarray:
    """The orthonormalizing scales of the basis functions with these rows
    of components."""
    return 1.0 / np.sqrt(_norm_sq(*comps.T))


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


def _gram_chunks(M: int, dim: int, integrands):
    """The Gram of the orthonormalized degree-M basis in dim dimensions, on
    ``_rule_size(M)`` Gauss points per direction, by its lower block
    triangle: an iterator of (r0, r1, X), X the chunk of rows r0..r1-1 and
    columns 0..r1-1. Entry (i, j) sums, over the integrands (each a list of
    separable terms), the integral of the integrand of function i times the
    same integrand of function j. A chunk's rows are whole degree slabs, at
    most _ROW_BLOCK of them but for a larger slab alone, and only its
    diagonal square holds entries above the diagonal.

    The tensor Gauss rule integrates a separable product as the product of
    per-axis sums; axis k carries the volume factor half**k in its weights.
    An axis-k factor reads only the first k + 1 components, so the Grams of
    all axes but the last live on the distinct prefixes comps[:, :-1] (one,
    empty, in 1-D). Pairs of terms are grouped by their last-axis kinds
    (x, y), each group's leading products summed on the prefixes. Each
    chunk takes one product of its rows and columns per group (UU, UD, DU
    and DD for the stiffness) times the group's prefix Gram gathered at
    them. The factor tables are built and freed when this is called, before
    the caller allocates what the chunks go into; the chunks are built as
    they are iterated.
    """
    comps, m, last = enumerate_basis(M, dim), _rule_size(M), dim - 1
    s = _scaling_vector(comps)
    t, _ = _gl_nodes(m)
    weights = _axis_weights(dim, m)
    # tables keyed (kind, axis): a row per prefix on the leading axes, found
    # by np.unique on one integer each (slow on rows), a row per function on
    # the last, scaled by s
    code = comps[:, :last] @ (M + 1) ** np.arange(last)
    _, first, at = np.unique(code, return_index=True, return_inverse=True)
    prefix = np.cumsum(comps, axis=1) - comps
    named = {term for terms in integrands for _, term in terms}
    tabs = {}
    for k in range(dim):
        rows, scale = (first, 1.0) if k < last else (slice(None), s[:, None])
        kinds = "".join({term[k] for term in named})
        factors = _axis_factors(k, M, t, kinds)
        for kind in kinds:
            tabs[kind, k] = scale * factors.pop(kind)[prefix[rows, k], comps[rows, k]]
    del factors  # the whole-axis tables, before the caller's allocations
    groups = {}
    for terms in integrands:
        for ca, a in terms:
            for cb, b in terms:
                prod = np.full((first.size, first.size), ca * cb)
                for k in range(last):
                    prod *= (tabs[a[k], k] * weights[k]) @ tabs[b[k], k].T
                key = a[last] + b[last]
                groups[key] = groups.get(key, 0.0) + prod
    # a chunk takes whole degree slabs while it has at most _ROW_BLOCK rows,
    # and a larger slab alone
    ends, r0, prev = [], 0, 0
    for end in np.searchsorted(comps.sum(axis=1), np.arange(1, M + 2)):
        if end - r0 > _ROW_BLOCK and prev > r0:
            ends.append(prev)
            r0 = prev
        prev = end
    ends.append(len(comps))

    def chunks():
        r0 = 0
        for r1 in ends:
            X = None
            for (x, y), lead in groups.items():
                prod = (tabs[x, last][r0:r1] * weights[last]) @ tabs[y, last][:r1].T
                # the prefix Gram gathered at the rows, then at the columns
                # one piece at a time, so that it holds no chunk-sized copy
                lead_rows = np.take(lead, at[r0:r1], axis=0)
                for c0 in range(0, r1, _ROW_BLOCK):
                    c1 = min(c0 + _ROW_BLOCK, r1)
                    prod[:, c0:c1] *= np.take(lead_rows, at[c0:c1], axis=1)
                if X is None:
                    X = prod
                else:
                    X += prod
                del prod  # before the next group's product is allocated
            yield r0, r1, X
            r0 = r1

    return chunks()


def _lower_to_upper(square: np.ndarray) -> None:
    """Copy the strict lower triangle of a square view onto its upper one."""
    i, j = np.tril_indices(len(square), -1)
    square[j, i] = square[i, j]


def _gram(M: int, dim: int, integrands) -> np.ndarray:
    """The whole Gram of ``_gram_chunks``: each chunk below and on the
    diagonal, and mirrored above it, so exactly symmetric by construction."""
    chunks = _gram_chunks(M, dim, integrands)
    n = math.comb(M + dim, dim)
    out = np.empty((n, n))
    for r0, r1, X in chunks:
        _lower_to_upper(X[:, r0:])
        out[r0:r1, :r1] = X
        out[:r0, r0:r1] = X[:, :r0].T
    return out


def mass_form(M: int, dim: int) -> np.ndarray:
    """Quadrature-assembled L2 Gram of the scaled basis: the identity up to
    quadrature roundoff, assembled as the oracle of orthogonality and never
    on the way to a constant."""
    M = _check_int("degree", M)
    dim = _check_int("dim", dim)
    return _gram(M, dim, [[(1.0, "V" * dim)]])


def _interval_stiffness(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Exact stiffness Gram of the Legendre functions of degrees k scaled
    by s: s_i s_j m(m + 1), m = min(k_i, k_j), since int L_i' L_j' =
    m(m + 1) where k_i + k_j is even, and 0 elsewhere, which the caller zeroes
    unless the degrees share one parity. The entries m(m + 1) are integers,
    exact as floats, taken as min(k_i(k_i + 1), k_j(k_j + 1)), and the
    products s_i s_j are those of one outer product, so the Gram is exactly
    symmetric."""
    kk = k * (k + 1.0)
    stiff = np.minimum.outer(kk, kk)
    stiff *= np.outer(s, s)
    return stiff


def h1_form(M: int, dim: int) -> np.ndarray:
    """L2 + gradient Gram of the scaled basis: the identity, as the basis is
    orthonormal, plus the stiffness Gram. Only the stiffness is assembled;
    gradients are pulled back from cube coordinates with the collapsed
    powers cancelled exactly.

    In 1-D the stiffness is exact, in closed form.
    """
    M = _check_int("degree", M)
    comps = enumerate_basis(M, dim)
    if dim == 1:
        entries = _interval_stiffness(_scaling_vector(comps), np.arange(M + 1.0))
        entries[::2, 1::2] = 0.0
        entries[1::2, ::2] = 0.0
    else:
        entries = _gram(M, dim, _GRADIENT[dim])
    entries.flat[:: len(comps) + 1] += 1.0
    return entries


def _h1_blocks(M: int, dim: int, slabs: list, even: np.ndarray):
    """The H1 form of ``h1_form`` in the mirror coordinates (slabs, even) of
    ``simplex._mirror_basis``, as its even and its odd block, with no array
    of the whole form: (orders, blocks, coupling), even block first.

    orders[b] lists block b's coordinates in the reverse of the basis
    order, degree M first and the constant function last, and blocks[b] is
    the Fortran-ordered block in that order, filled in both triangles and
    exactly symmetric. coupling is the largest magnitude among the
    even-odd entries, which no block keeps, over the largest diagonal
    entry, which bounds every entry of a positive definite form.

    In 1-D the mirror coordinates are the Legendre functions, and the
    blocks come from the closed-form stiffness, which has no entry of odd
    i + j, so the coupling is 0. In 2-D the stiffness is assembled on
    ``_rule_size(M)`` = 2M + 6 Gauss points per direction, which integrate
    its polynomial integrands exactly, so the blocks take no node count:
    more points move them by roundoff only. Each chunk of ``_gram_chunks``
    is changed to the mirror coordinates in its own buffer, W_d applied to
    each of its row slabs and W_d^T to each of its column slabs; its
    diagonal square is made symmetric from its lower triangle, and its
    even-even and odd-odd parts are written into the blocks at the places
    of its rows and columns and at the transposed ones.
    """
    M = _check_int("degree", M)
    masks = (even, ~even)
    orders = [np.flatnonzero(mask)[::-1] for mask in masks]
    coupling = 0.0
    if dim == 1:
        s = _scaling_vector(enumerate_basis(M, 1))
        # a symmetric C-ordered array is the transpose of a Fortran one
        blocks = [_interval_stiffness(s[p], p.astype(float)).T for p in orders]
    else:
        chunks = _gram_chunks(M, dim, _GRADIENT[dim])
        blocks = [np.empty((len(p), len(p)), order="F") for p in orders]
        # each block in the basis order, and the count of its coordinates
        # among the first i of the basis
        flipped = [block[::-1, ::-1] for block in blocks]
        counts = [np.concatenate([[0], np.cumsum(mask)]) for mask in masks]
        starts = np.cumsum([0] + [len(W) for W in slabs])
        for r0, r1, X in chunks:
            for W, a, b in zip(slabs, starts, starts[1:]):
                if b > r1:
                    break
                if len(W) > 1:
                    if a >= r0:
                        X[a - r0 : b - r0] = W @ X[a - r0 : b - r0]
                    X[:, a:b] = X[:, a:b] @ W.T
            _lower_to_upper(X[:, r0:])
            for mask, count, block in zip(masks, counts, flipped):
                rows = X[mask[r0:r1]]
                other = rows[:, ~mask[:r1]]
                coupling = max(coupling, other.max(initial=0.0), -other.min(initial=0.0))
                part = rows[:, mask[:r1]]
                g0, g1 = count[r0], count[r1]
                block[g0:g1, :g1] = part
                block[:g1, g0:g1] = part.T
    for block in blocks:
        block.flat[:: len(block) + 1] += 1.0
    scale = max(float(np.max(np.abs(block.diagonal()))) for block in blocks)
    return orders, blocks, float(coupling) / scale


def trace_form(M: int, dim: int) -> np.ndarray:
    """Boundary Gram over the bottom piece x_{dim-1} = -1: the bottom edge
    (2D) or the bottom face (3D)."""
    M = _check_int("degree", M)
    if _check_int("dim", dim) not in _BOTTOM:
        raise ParameterError(f"trace forms need dim 2 or 3, got {dim}")
    comps = enumerate_basis(M, dim)
    bottom, w = _boundary_rule(dim, _rule_size(M))
    factor = _scaling_vector(comps)[:, None] * _component_values(comps, bottom) * np.sqrt(w)
    # numpy takes the product of an array with its transpose through BLAS
    # syrk, whose one triangle it mirrors: the Gram is exactly symmetric
    return factor @ factor.T
