"""Extremal Rayleigh quotients over truncated polynomial spaces.

Each constant of an (N, dim) row is the supremum of a degree-N-truncated
numerator against the H1 form A on degree 2N, and a row assembles A once
for all of its kinds. The numerator factor C, with C C^T the truncated
endpoint (1-D) or bottom-piece form, is known in closed form: one column
in 1-D and one per function of the bottom piece's degree-N basis above.

The mirror of the domain (x -> -x on the interval, x <-> y on the
triangle) commutes with A, so in the mirror basis of
``simplex._mirror_basis`` A is an even and an odd block. A row assembles
A straight into those two blocks (``forms._h1_blocks``), with no array of
the whole form, checks that the coupling it drops is at roundoff, and
changes C to the same basis (``_split``); every kind works on the two
blocks apart.

The multiplicative constant mixes the mass, H1 and numerator forms; since
sqrt(xy) = min_r (r x + y/r)/2 and the mass is the identity in the
orthonormal basis, it is the maximum over r of the top eigenvalue of
(2B, r I + A/r). A reduction A = Q T Q^T to tridiagonal T, one per block
and in place, carried through C, turns every such eigenvalue into a
tridiagonal solve and a problem of C's column count. The maximizer is
found in log r by a safeguarded interpolation search on the slope, in a
bracket fixed by A = I + K, with K positive semidefinite, and a Gershgorin
bound on T.

Both additive numerators vanish off the degree-<=N functions, which each
block orders last, so each additive constant is an eigenproblem of that
part's size against the block's Schur complement S = A11 - A12 A22^-1
A21, taken through one Cholesky factor of the block, made in place,
which ends in the factor of S: the trace (2-D) or endpoint (1-D)
constant is the top eigenvalue of the Gram of the two blocks' RS^-T C1
stacked, square in the numerator factor's column count, and the
H1-stability constant the larger of the blocks' tops of RS^-T A11 RS^-1.
Their residuals are taken against the two blocks.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh, solve_triangular
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import (
    dormqr,
    dpotrf,
    dptsv,
    dsyevr,
    dsyevr_lwork,
    dsytrd,
    dsytrd_lwork,
)

from .errors import NumericError, ParameterError
from .forms import _h1_blocks, _scaling_vector
from .jacobi import _check_int, _check_list
from .simplex import (
    _bottom_coefficients,
    _bottom_restriction,
    _boundary_rule,
    _component_values,
    _mirror_basis,
    _norm_sq,
    _sample,
    analyze,
    enumerate_basis,
)

__all__ = [
    "ConstantRecord",
    "row_constants",
    "trace_error_rate",
]

_KINDS = ("mult", "add_h1_denominator", "h1_stability")
# the dimensions that rows, records and `constants --dim` accept
_DIMS = (1, 2)
_LOG_R_WIDTH = 1e-14
# the largest even-odd coupling of the H1 form in the mirror basis, over
# its largest entry, that a row drops; roundoff leaves 3e-13 at degree 110
_COUPLING = 1e-10


def _finite_real(value) -> bool:
    """Whether value is a finite real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ConstantRecord:
    dim: int
    N: int
    kind: str
    value: float
    iterations: int
    residual: float

    def __post_init__(self):
        if _check_int("dim", self.dim) not in _DIMS:
            raise ParameterError(f"dim must be one of {_DIMS}, got {self.dim}")
        _check_int("N", self.N, least=1)
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (_finite_real(self.value) and self.value > 0):
            raise ParameterError(f"value must be finite and positive, got {self.value!r}")
        _check_int("iterations", self.iterations, least=1)
        if not (_finite_real(self.residual) and self.residual >= 0):
            raise ParameterError(f"residual must be finite and nonnegative, got {self.residual!r}")


def _congruent_top(Bm: np.ndarray, R: np.ndarray):
    """Top eigenpair (lambda, y) of R^-T Bm R^-1, R upper triangular, so
    that lambda and R^-1 y are the top eigenpair of the pencil (Bm, R^T R)."""
    X = solve_triangular(R, Bm, trans="T", check_finite=False)
    C = solve_triangular(R, X.T, trans="T", check_finite=False)
    n = len(C)
    w, Y = eigh((C + C.T) / 2.0, subset_by_index=[n - 1, n - 1])
    return float(w[-1]), Y[:, -1]


def row_constants(N: int, dim: int, kinds=_KINDS):
    """The constants of one (N, dim) row: an iterator of one ConstantRecord
    per requested kind, in the order of ("mult", "add_h1_denominator",
    "h1_stability").

    A record's ``iterations`` counts its solver's eigenvalue evaluations
    and its ``residual`` certifies the value. For mult, the search in
    s = log r of ``_multiplicative``, the residual is |d lambda/ds| / lambda
    at the result. The additive kinds take one eigensolve each, and the
    residual is the A^-1 norm of the eigen-residual in the pencil of the
    two mirror blocks of A, whose dropped coupling the row checks.

    The H1 form on degree 2N is assembled once, straight into its two
    mirror blocks, when the first record is asked for, and every kind
    works on those blocks and on the truncated numerator factor (endpoint
    evaluation in 1-D, the bottom edge in 2-D) in the same coordinates
    (``_split``). The form is exact, in closed form in 1-D and on a Gauss
    rule that integrates its polynomial integrands exactly in 2-D, so a
    row follows from N and dim alone and takes no node count. A solver
    failure raises when its kind is reached, after the records before it.
    """
    if _check_int("dim", dim) not in _DIMS:
        raise ParameterError(f"dim must be one of {_DIMS}, got {dim}")
    N = _check_int("N", N, least=1)
    kinds = _check_list("kinds", kinds)
    unknown = [k for k in kinds if k not in _KINDS]
    if unknown:
        raise ParameterError(f"kinds must be among {_KINDS}, got {unknown}")
    return _row(N, dim, [k for k in _KINDS if k in kinds])


def _row(N: int, dim: int, wanted: list):
    """The records of ``row_constants``, for validated N, dim and kinds.
    The additive kinds factor the two blocks of ``_split`` in place and
    restore them, and mult then reduces them in place. A failure to factor
    a block is held until the mult record is out."""
    if not wanted:
        return
    split = _split(N, dim)
    additive, failure = [], None
    if wanted != ["mult"]:
        try:
            additive = _additive(N, dim, split, wanted)
        except NumericError as exc:
            failure = exc
    if "mult" in wanted:
        yield _multiplicative(N, dim, split)
    yield from additive
    if failure is not None:
        raise failure


def _split(N: int, dim: int) -> list:
    """[(F, U, k)] for the even and the odd mirror block of the row's H1
    form A on degree M = 2N: F the block from ``forms._h1_blocks``, on the
    exact rule that M sets, with its k functions of degree <= N ordered
    last, and U the rows of W C in F's order, for the numerator factor C
    and the change of basis W of ``_mirror_basis``.

    The mirror x -> -x of the interval, or x <-> y of the triangle, is an
    isometry of the domain, so it commutes with A, and in the coordinates
    of ``_mirror_basis`` A splits into an even and an odd block with no
    coupling between them; in 1-D W = I and the blocks are the even- and
    odd-degree Legendre functions. Every kind takes the two blocks only,
    so the coupling, zero up to roundoff, is dropped; a block that is not
    finite, or a coupling above _COUPLING of the form's largest entry,
    raises NumericError. The additive kinds factor each block in place,
    which LAPACK does only on a Fortran-ordered float64 array, so a block of
    another layout raises NumericError too. W is
    orthogonal and block diagonal by degree, applied to C slab by slab, and
    C vanishes above degree N, so only the slabs up to N touch it."""
    slabs, even = _mirror_basis(2 * N, dim)
    orders, blocks, coupling = _h1_blocks(2 * N, dim, slabs, even)
    for F in blocks:
        _finite(F, "the H1 form's mirror blocks")
        if F.dtype != np.float64 or not F.flags.f_contiguous:
            raise NumericError("the H1 form's mirror blocks must be Fortran-ordered float64 arrays")
    if coupling > _COUPLING:
        raise NumericError(
            f"the mirror blocks of the H1 form are coupled: relative coupling "
            f"{coupling:.3e} above {_COUPLING:g}"
        )
    C, start = _numerator_factor(N, dim), 0
    for W in slabs[: N + 1]:
        stop = start + len(W)
        # a slab of one function, every slab in 1-D, has W = [[1]]
        if len(W) > 1:
            C[start:stop] = W @ C[start:stop]
        start = stop
    lead = math.comb(N + dim, dim)
    return [(F, C[p], np.count_nonzero(p < lead)) for F, p in zip(blocks, orders)]


def _additive(N: int, dim: int, split: list, wanted: list) -> list:
    """The add_h1_denominator and h1_stability records among ``wanted``,
    from the blocks of ``_split``.

    Both additive numerators vanish off the degree <= N part, which ends
    each block. Each block F = [[A22, A21], [A12, A11]] is factored in
    place as R^T R, R upper triangular, into its upper triangle (dpotrf);
    its lower triangle keeps the form and its diagonal is saved. In this
    order R = [[R22, R21], [0, RS]], with RS^T RS = S = A11 - A12 A22^-1
    A21, the Schur complement of the degree <= N part, so the supremum of a
    form that vanishes off that part against the block is that of its
    leading part against S. The diagonals are restored afterwards, failure
    or not, so that the blocks are whole again for mult."""
    diags = [F.diagonal().copy() for F, _, _ in split]
    try:
        for (F, _, _), diag in zip(split, diags):
            _factor(F, diag)
        return list(_additive_records(N, dim, split, diags, wanted))
    finally:
        for (F, _, _), diag in zip(split, diags):
            np.fill_diagonal(F, diag)


def _factor(F: np.ndarray, diag: np.ndarray) -> None:
    """R^T R = F, R upper triangular, into F's upper triangle. A failure
    raises NumericError with the eigenvalue range of the block, whose
    diagonal ``diag`` it restores first."""
    _, info = dpotrf(F, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        np.fill_diagonal(F, diag)
        ev = eigvalsh(F, lower=True, check_finite=False)
        raise NumericError(
            "denominator form is not positive definite: "
            f"eigenvalue range [{ev[0]:.6g}, {ev[-1]:.6g}] in a mirror block"
        )
    _check_info("dpotrf", info)


def _additive_records(N: int, dim: int, split: list, diags: list, wanted: list):
    """The records of ``_additive``, from the factored blocks."""
    RSs = [F[-k:, -k:] for F, _, k in split]
    if "add_h1_denominator" in wanted:
        # U^T A^-1 U is the sum over the blocks of Y^T Y, Y = RS^-T U_1, so
        # its top eigenpair is that of the blocks' Y stacked
        Ys = [
            solve_triangular(RS, U[-k:], trans="T", check_finite=False)
            for (_, U, k), RS in zip(split, RSs)
        ]
        mu, Z = eigh(np.vstack(Ys).T @ np.vstack(Ys))
        vs = [_lift(F, Y @ Z[:, -1]) for (F, _, _), Y in zip(split, Ys)]
        # B = U U^T couples the blocks: B v is U_b times the sum of the
        # blocks' U^T v on block b
        Utv = sum(U.T @ v for (_, U, _), v in zip(split, vs))
        yield ConstantRecord(
            dim=dim,
            N=N,
            kind="add_h1_denominator",
            value=float(mu[-1]),
            iterations=1,
            residual=_pencil_residual(split, diags, vs, [U @ Utv for _, U, _ in split], mu[-1]),
        )
    if "h1_stability" in wanted:
        # the truncated H1 form is the blocks' degree <= N parts A11, so its
        # top eigenpair is the larger of theirs; each A11 is rebuilt from
        # the lower triangle and the saved diagonal
        leads = []
        for (F, _, k), diag in zip(split, diags):
            A11 = np.tril(F[-k:, -k:], -1)
            A11 += A11.T
            A11.flat[:: k + 1] = diag[-k:]
            leads.append(A11)
        tops = [_congruent_top(A11, RS) for A11, RS in zip(leads, RSs)]
        b = int(np.argmax([lam for lam, _ in tops]))
        lam, y = tops[b]
        vs = [np.zeros(len(F)) for F, _, _ in split]
        Bvs = [np.zeros(len(F)) for F, _, _ in split]
        vs[b] = _lift(split[b][0], y)
        Bvs[b][-len(y) :] = leads[b] @ vs[b][-len(y) :]
        yield ConstantRecord(
            dim=dim,
            N=N,
            kind="h1_stability",
            value=lam / (N + 1),
            iterations=1,
            residual=_pencil_residual(split, diags, vs, Bvs, lam),
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
    s = _scaling_vector(enumerate_basis(N, dim))
    C = np.zeros((math.comb(2 * N + dim, dim), math.comb(N + dim - 1, dim - 1)))
    if dim == 1:
        C[: s.size, 0] = s
    else:
        heads, col, sign = _bottom_restriction(N, dim)
        C[np.arange(s.size), col] = sign * s * np.sqrt(_norm_sq(*heads.T))[col]
    return C


def _lift(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R^-1 (0, y) for a block factored by ``_factor``: the block vector
    whose degree <= N part is x = RS^-1 y, and whose other part,
    -R22^-1 R21 x, minimizes the block's norm for that x."""
    rhs = np.zeros(len(R))
    rhs[len(R) - len(y) :] = y
    return solve_triangular(R, rhs, check_finite=False)


def _pencil_residual(split: list, diags: list, vs: list, Bvs: list, lam: float) -> float:
    """A^-1 norm of B v - lam A v over the A-norm of v, with A the two
    mirror blocks and v and B v given per block. A block's A v is taken on
    its lower triangle, which keeps the form, with its saved diagonal, and
    the A^-1 norm through the factor R in its upper triangle."""
    total = vAv = 0.0
    for (F, _, _), diag, v, Bv in zip(split, diags, vs, Bvs):
        Av = dsymv(1.0, F, v, lower=1) + (diag - F.diagonal()) * v
        y = solve_triangular(F, Bv - lam * Av, trans="T", check_finite=False)
        total += y @ y
        vAv += v @ Av
    return math.sqrt(total / vAv)


def _tridiagonalize(split: list):
    """(d, e, U): the diagonal and off-diagonal of T = Q^T A Q for the H1
    form A in the mirror basis, from one blocked Householder reduction of
    each block of ``_split`` in place, and U = Q^T C through the same
    reflectors. Q maps the even block's reduced coordinates first and the
    odd block's after them: d and U are the two blocks' stacked, and e
    holds an exact 0 at the seam."""
    (d0, e0, U0), (d1, e1, U1) = (_reduce_block(F, U) for F, U, _ in split)
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
    # the reflectors are c[1:, :n-1]; dormtr hands them to dormqr in place,
    # with leading dimension n, and so does the Fortran-ordered view of
    # c's n x (n-1) entries from c[1, 0], of which dormqr reads n-1 rows
    reflectors = c.ravel(order="F")[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
    _, work, info = dormqr("L", "T", reflectors, tau, C[1:], -1)
    _check_info("dormqr", info)
    U = C.copy()
    U[1:], _, info = dormqr("L", "T", reflectors, tau, C[1:], int(work[0]))
    _check_info("dormqr", info)
    return d, e, U


def _multiplicative(N: int, dim: int, split: list) -> ConstantRecord:
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
    d, e, U = _tridiagonalize(split)
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


def trace_error_rate(u, N_list):
    """Boundary L2 errors of the volume projections of u on the triangle,
    with the log-log slope of error against N+1 fitted above a roundoff floor.

    Each degree takes its leading block of one analysis of u on 2 max(N) + 40
    points per direction: the top row is that of its degree analyzed alone, and
    a lower row depends on the largest degree only through the rule. The error,
    on the edge y = -1, has a floating-point plateau that grows like (N+1)^2
    and scales with the size of u on that edge, so each degree gets the floor

        floor_N = 2 * eps * (N+1)^2 * max_edge |u|,

    with eps the double-precision machine epsilon and max_edge |u| taken
    over the edge quadrature nodes. The slope is a least-squares fit over
    the top half (at least two) of the degrees whose error exceeds their
    floor. When fewer than two degrees clear the floor, as for a polynomial
    that every degree reproduces, the slope is nan.

    Returns ([(N, error), ...], slope, [floor_N, ...]), floors by row.
    """
    Ns = [_check_int("each degree", n, least=1) for n in _check_list("N_list", N_list)]
    if len(Ns) < 2:
        raise ParameterError("need at least two degrees to fit a rate")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ParameterError("degrees must be strictly increasing")

    edge, w_edge = _boundary_rule(2, 400)
    target = _sample(u, edge)
    scale = 2.0 * np.finfo(float).eps * float(np.max(np.abs(target)))
    # the edge's heads and the volume basis are graded 0..N, so the table and
    # the analysis at the largest degree hold every degree's in leading rows
    table = _component_values(enumerate_basis(Ns[-1], 1), edge[:, :-1])
    raw = analyze(u, Ns[-1], 2, nodes=2 * Ns[-1] + 40)

    rows = []
    for N in Ns:
        _, b = _bottom_coefficients(raw[: math.comb(N + 2, 2)], N, 2)
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
