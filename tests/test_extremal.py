import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import point_eval_form, projection_form, rayleigh_sup, refined_additive
from scipy.linalg import LinAlgError, eigh, eigvalsh, eigvalsh_tridiagonal
from scipy.linalg.lapack import dptsv

from simplex_spectra import (
    ConstantRecord,
    NumericError,
    ParameterError,
    enumerate_basis,
    h1_form,
    mass_form,
    row_constants,
    trace_error_rate,
    trace_form,
)
from simplex_spectra import extremal, forms
from simplex_spectra.cli import _TABLE_ROWS
from simplex_spectra.simplex import _mirror_basis

# (N, dim) rows checked against the assembled dense pencil
_DENSE_ROWS = ((2, 1), (6, 1), (3, 2), (5, 2))


def one_constant(N, dim, kind):
    """The record of one kind, from a row that computes only that kind."""
    return next(row_constants(N, dim, (kind,)))


# the dense pencil oracle on pencils whose top eigenvalue is known
def test_rayleigh_identity_pencil():
    G = np.diag([1.0, 2.0])
    assert_allclose(rayleigh_sup(G, G), 1.0, rtol=1e-13)


def test_rayleigh_diagonal_pencil():
    assert_allclose(rayleigh_sup(np.diag([3.0, 1.0]), np.diag([1.0, 2.0])), 3.0, rtol=1e-13)


def test_rayleigh_rank_one():
    v0 = np.array([1.0, 2.0])
    G = np.diag([1.0, 2.0])
    assert_allclose(rayleigh_sup(np.outer(v0, v0), G), v0 @ np.linalg.solve(G, v0), rtol=1e-13)


def test_rayleigh_rejects_indefinite_denominator():
    with pytest.raises(LinAlgError):
        rayleigh_sup(np.eye(2), np.diag([1.0, -0.5]))


def test_rayleigh_rejects_mismatched_bases():
    # forms on different bases differ in size, and the pencil is refused
    for B, G in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2))):
        with pytest.raises(ValueError, match="dimensions"):
            rayleigh_sup(B, G)


def test_additive_interval_closed_form():
    # N=1: numerator u(1)^2 over P_1 truncation, denominator full H1 on P_2
    rec = one_constant(1, 1, "add_h1_denominator")
    assert_allclose(rec.value, 7.0 / 8.0, atol=1e-12)
    assert rec.kind == "add_h1_denominator"
    assert rec.dim == 1 and rec.N == 1


def test_additive_validation():
    for N, dim, kind in (
        (2, 1, "mass"),
        (0, 1, "add_h1_denominator"),
        (2, 3, "add_h1_denominator"),
        (2, 3, "h1_stability"),
    ):
        with pytest.raises(ParameterError):
            row_constants(N, dim, (kind,))


def test_dim_messages_name_the_accepted_dims(monkeypatch):
    # widening the one tuple widens what records and rows accept and say
    monkeypatch.setattr(extremal, "_DIMS", (1, 2, 3))
    ConstantRecord(dim=3, N=2, kind="mult", value=1.5, iterations=3, residual=1e-14)
    for call in (
        lambda: ConstantRecord(dim=4, N=2, kind="mult", value=1.5, iterations=3, residual=1e-14),
        lambda: row_constants(2, 4),
    ):
        with pytest.raises(ParameterError, match=r"dim must be one of \(1, 2, 3\), got 4"):
            call()


def test_constant_record_validation():
    good = dict(dim=1, N=2, kind="mult", value=1.5, iterations=3, residual=1e-14)
    ConstantRecord(**good)
    for field, bad in [
        ("dim", 3),
        ("dim", True),
        ("dim", 2.0),
        ("N", 0),
        ("N", 1.5),
        ("kind", "product"),
        ("value", -1.0),
        ("value", np.nan),
        ("value", "1.5"),
        ("iterations", 0),
        ("iterations", 1.5),
        ("residual", -1e-3),
        ("residual", None),
    ]:
        args = dict(good)
        args[field] = bad
        with pytest.raises(ParameterError):
            ConstantRecord(**args)


def test_multiplicative_interval_closed_form():
    # N=1 admits a two-coefficient closed form; its maximum is known exactly
    rec = one_constant(1, 1, "mult")
    assert_allclose(rec.value, 1.181849168039031, atol=1e-11)
    assert rec.kind == "mult"
    assert rec.residual <= 1e-12


def _numerator_form(N, dim):
    """The truncated numerator form of an (N, dim) row, assembled: endpoint
    evaluation in 1-D, the bottom piece's trace form by quadrature above."""
    basis = enumerate_basis(2 * N, dim)
    raw = point_eval_form(2 * N) if dim == 1 else trace_form(2 * N, dim).entries
    return projection_form(raw, basis, N)


def _mult_forms(N, dim):
    """Entries of the truncated numerator, assembled mass and H1 forms of
    the mult row."""
    return _numerator_form(N, dim), mass_form(2 * N, dim).entries, h1_form(2 * N, dim).entries


def _dense_lambda(B, M, A, r):
    """Top eigenvalue of the assembled pencil (2B, r M + A/r)."""
    return rayleigh_sup(2.0 * B, r * M + A / r)


def _log_r_grid(A, n=41):
    a = np.linalg.eigvalsh(A)
    return np.linspace(0.5 * np.log(a[0]), 0.5 * np.log(a[-1]), n)


def test_multiplicative_matches_exhaustive_sampling():
    N = 3
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        rec = one_constant(N, dim, "mult")
        B, mass, A = _mult_forms(N, dim)
        for _ in range(50):
            v = rng.standard_normal(len(mass))
            q = (v @ B @ v) / np.sqrt((v @ mass @ v) * (v @ A @ v))
            assert q <= rec.value + 1e-10


def test_multiplicative_monotone_in_degree():
    vals = [one_constant(N, 1, "mult").value for N in (1, 2, 3, 4)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-6


def test_multiplicative_is_max_over_dense_pencil():
    # every split r bounds the constant from below through the assembled
    # (not assumed) mass form, so no grid point may exceed the returned value
    for N, dim in _DENSE_ROWS:
        rec = one_constant(N, dim, "mult")
        B, mass, A = _mult_forms(N, dim)
        lams = [_dense_lambda(B, mass, A, np.exp(s)) for s in _log_r_grid(A)]
        assert max(lams) <= rec.value * (1 + 1e-12), (N, dim)
        assert max(lams) >= rec.value * (1 - 1e-3), (N, dim)
        assert rec.residual <= 1e-12


def test_scale_invariance():
    # scaling u by any positive factor leaves the quotient unchanged, so the
    # pencil (2B, r M + A/r) must agree with (2B, r' 4M + (A/4)/r') at r' = r/4
    for N, dim in _DENSE_ROWS:
        B, mass, A = _mult_forms(N, dim)
        for s in _log_r_grid(A, 5):
            r = np.exp(s)
            assert_allclose(
                _dense_lambda(B, 4.0 * mass, A / 4.0, r / 4.0), _dense_lambda(B, mass, A, r), rtol=1e-12
            )


def _legendre_h1_gram(M):
    """Exact H1 Gram of the orthonormal Legendre basis on degree M at the
    working mpmath precision: I + K, K_ij = s_i s_j m(m+1) for i+j even with
    m = min(i, j) and s_k = sqrt((2k+1)/2). Returns (Gram, s); s_k is also
    the value of basis function k at the right endpoint."""
    s = [mp.sqrt(mp.mpf(2 * k + 1) / 2) for k in range(M + 1)]
    A = mp.matrix(M + 1, M + 1)
    for i in range(M + 1):
        A[i, i] = 1
        for j in range(i % 2, M + 1, 2):
            m = min(i, j)
            A[i, j] += s[i] * s[j] * m * (m + 1)
    return A, s


def _legendre_mult_oracle(N):
    """Interval constant at 40 digits from the exact H1 Gram on degree 2N
    and the truncated endpoint vector c_k = s_k, k <= N.

    Returns (the maximum over t = log r of 2 c^T (r I + A/r)^-1 c, the Gram).
    """
    with mp.workdps(40):
        M = 2 * N
        A, s = _legendre_h1_gram(M)
        a, Q = mp.eigsy(A)
        w = Q.T * mp.matrix([s[k] if k <= N else 0 for k in range(M + 1)])

        def lam(t):
            return 2 * mp.fsum(w[i] ** 2 / (mp.exp(t) + a[i] / mp.exp(t)) for i in range(M + 1))

        def slope(t):
            r = mp.exp(t)
            return -2 * mp.fsum(
                w[i] ** 2 * (r - a[i] / r) / (r + a[i] / r) ** 2 for i in range(M + 1)
            )

        bracket = (mp.log(min(a)) / 2, mp.log(max(a)) / 2)
        value = lam(mp.findroot(slope, bracket, solver="anderson"))
        gram = np.array(A.tolist(), dtype=float)
    return value, gram


def test_multiplicative_extended_precision_oracle():
    value, _ = _legendre_mult_oracle(1)
    with mp.workdps(40):
        assert abs(value - mp.mpf("1.18184916803903096795")) <= mp.mpf("1e-20")
    for N in (1, 2, 5, 10, 20):
        value, gram = _legendre_mult_oracle(N)
        A = h1_form(2 * N, 1).entries
        # the closed-form Gram is the oracle's up to the rounding of its entries
        assert np.max(np.abs(gram - A)) <= 1e-15 * np.max(np.abs(gram)), N
        rec = one_constant(N, 1, "mult")
        assert abs(rec.value - float(value)) <= 1e-14 * float(value), N


def test_interval_h1_form_is_the_exact_legendre_gram():
    for M in (4, 40):
        with mp.workdps(40):
            exact, _ = _legendre_h1_gram(M)
            A = h1_form(M, 1).entries
            for i in range(M + 1):
                for j in range(M + 1):
                    if (i + j) % 2:
                        assert A[i, j] == 0.0, (M, i, j)
                    else:
                        err = abs(mp.mpf(A[i, j]) - exact[i, j])
                        assert err <= mp.mpf("1e-15") * abs(exact[i, j]), (M, i, j)


def test_additive_point_extended_precision_oracle():
    # the endpoint numerator has rank one, so the constant is (Pc)^T A^-1 (Pc)
    for N in (1, 2, 5, 10, 40):
        with mp.workdps(40):
            A, s = _legendre_h1_gram(2 * N)
            c = mp.matrix([s[k] if k <= N else 0 for k in range(2 * N + 1)])
            value = float(mp.fsum(c[k] * x for k, x in enumerate(mp.lu_solve(A, c))))
        rec = one_constant(N, 1, "add_h1_denominator")
        assert abs(rec.value - value) <= 1e-13 * value, N
        assert rec.residual <= 1e-12, N


def test_additive_kinds_match_dense_oracle():
    for N, dim in _DENSE_ROWS:
        A = h1_form(2 * N, dim)
        h1_truncated = projection_form(A.entries, A.basis, N)
        cases = (("add_h1_denominator", _numerator_form(N, dim), 1), ("h1_stability", h1_truncated, N + 1))
        for kind, form, scale in cases:
            rec = one_constant(N, dim, kind)
            want = rayleigh_sup(form, A.entries) / scale
            assert abs(rec.value - want) <= 1e-13 * want, (N, dim, kind)
            assert rec.residual <= 1e-12, (N, dim, kind)


def test_additive_kind_keeps_full_accuracy():
    # against lambda_max(C^T A^-1 C) from a refined solve on the same form
    # and factor, the Schur path errs by 2e-16 to 1e-15 on these rows; the
    # same value taken through mult's reduction, as lambda_max(U^T T^-1 U),
    # errs by 8e-13, 2e-9 and 8e-13, because T^-1 is as ill conditioned as
    # A^-1 and the reduction's backward error is not refined away
    for N, dim in ((120, 1), (480, 1), (24, 2)):
        A, C = h1_form(2 * N, dim).entries, extremal._numerator_factor(N, dim)
        want = refined_additive(A, C)
        rec = one_constant(N, dim, "add_h1_denominator")
        assert abs(rec.value - want) <= 1e-14 * want, (N, dim, rec.value, want)


def test_additive_kinds_avoid_full_size_solves(monkeypatch):
    # both additive kinds factor the two mirror blocks apart and solve on
    # their degree-N parts: no eigh, Cholesky or triangular solve is larger
    # than the larger block, nor has a solve as many columns
    N, dim = 4, 2
    even = _mirror_basis(2 * N, dim)[1]
    block = max(np.count_nonzero(even), np.count_nonzero(~even))
    assert block < even.size
    sizes = []
    real_eigh, real_chol, real_solve = extremal.eigh, extremal.dpotrf, extremal.solve_triangular

    def eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigh(a, *args, **kwargs)

    def dpotrf(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_chol(a, *args, **kwargs)

    def solve_triangular(a, b, *args, **kwargs):
        sizes.extend([a.shape[0], b.shape[1] if b.ndim == 2 else 1])
        return real_solve(a, b, *args, **kwargs)

    monkeypatch.setattr(extremal, "eigh", eigh)
    monkeypatch.setattr(extremal, "dpotrf", dpotrf)
    monkeypatch.setattr(extremal, "solve_triangular", solve_triangular)
    for kind in ("add_h1_denominator", "h1_stability"):
        next(row_constants(N, dim, (kind,)))
    assert sizes and max(sizes) <= block


def test_row_checks_the_dropped_coupling(monkeypatch):
    # a row keeps only the even-even and odd-odd blocks of the form in the
    # mirror basis, and takes its residuals against them, so it measures
    # the even-odd coupling it drops. A mirror basis whose degree-3 slab is
    # turned by 1e-6 between an even and an odd coordinate no longer splits
    # the triangle's form, and the row raises, naming that coupling
    real = extremal._mirror_basis

    def turned(M, dim):
        slabs, even = real(M, dim)
        W = slabs[3].copy()
        c, s = math.cos(1e-6), math.sin(1e-6)
        W[0], W[1] = c * W[0] - s * W[1], s * W[0] + c * W[1]
        return slabs[:3] + [W] + slabs[4:], even

    monkeypatch.setattr(extremal, "_mirror_basis", turned)
    for kind in extremal._KINDS:
        with pytest.raises(NumericError, match="relative coupling") as caught:
            one_constant(4, 2, kind)
        coupling = float(re.search(r"relative coupling (\S+)", str(caught.value)).group(1))
        assert extremal._COUPLING < coupling < 1e-5, coupling
    monkeypatch.undo()
    # the mirror basis itself leaves roundoff, and the rows certify their
    # values against the blocks
    for N in (2, 6, 20):
        for dim in (1, 2):
            rec = one_constant(N, dim, "add_h1_denominator")
            assert rec.residual <= 1e-12, (N, dim, rec.residual)
        _, _, coupling = forms._h1_blocks(2 * N, 2, *_mirror_basis(2 * N, 2))
        assert coupling <= 1e-12, (N, coupling)
        # in 1-D the mirror basis is the Legendre basis, and the closed-form
        # stiffness has no entry between degrees of odd sum
        _, _, coupling = forms._h1_blocks(2 * N, 1, *_mirror_basis(2 * N, 1))
        assert coupling == 0.0, N


def test_row_rejects_nonfinite_blocks(monkeypatch):
    # LAPACK takes the blocks as they are, so a row checks them first
    real = extremal._h1_blocks

    def poisoned(*args, **kwargs):
        orders, blocks, coupling = real(*args, **kwargs)
        blocks[1][0, 0] = np.nan
        return orders, blocks, coupling

    monkeypatch.setattr(extremal, "_h1_blocks", poisoned)
    for N, dim in ((3, 1), (3, 2)):
        with pytest.raises(NumericError, match="mirror blocks must be finite"):
            list(row_constants(N, dim))


def test_row_rejects_blocks_it_cannot_factor_in_place(monkeypatch):
    # dpotrf overwrites a block only if it is a Fortran-ordered float64
    # array; on any other it factors a copy, and the kinds would solve
    # against the unfactored block
    real = extremal._h1_blocks
    for relayout in (np.ascontiguousarray, lambda F: np.asfortranarray(F, dtype=np.float32)):

        def relaid(*args, relayout=relayout, **kwargs):
            orders, blocks, coupling = real(*args, **kwargs)
            return orders, [blocks[0], relayout(blocks[1])], coupling

        monkeypatch.setattr(extremal, "_h1_blocks", relaid)
        for N, dim in ((3, 1), (3, 2)):
            with pytest.raises(NumericError, match="Fortran-ordered float64"):
                list(row_constants(N, dim))


def test_h1_stability_asks_for_its_top_eigenpair_only(monkeypatch):
    # the h1 kind uses the top eigenpair of the degree <= N part of each
    # mirror block, so the eigensolver takes one leading part at a time and
    # computes its top eigenpair and no other
    calls = []
    real_eigh = extremal.eigh

    def eigh(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("subset_by_index")))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(extremal, "eigh", eigh)
    for N, dim in _DENSE_ROWS:
        calls.clear()
        one_constant(N, dim, "h1_stability")
        even = _mirror_basis(2 * N, dim)[1][: math.comb(N + dim, dim)]
        leads = (np.count_nonzero(even), np.count_nonzero(~even))
        assert calls == [((n, n), [n - 1, n - 1]) for n in leads], (N, dim)


def test_multiplicative_avoids_full_size_decompositions(monkeypatch):
    # the mult solver reduces the full form only to tridiagonal form: every
    # eigensolve or factorization it takes is of the numerator's column count
    N, dim = 4, 2
    sizes = []
    for name in ("eigh", "eigvalsh", "dpotrf", "dsyevr"):
        real = getattr(extremal, name)

        def recorded(a, *args, _real=real, **kwargs):
            sizes.append(a.shape[0])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(extremal, name, recorded)
    next(row_constants(N, dim, ("mult",)))
    assert sizes and max(sizes) <= N + 1


def test_numerator_factor_and_scaling_match_per_index_loops():
    # the array forms give the bits of the loops over basis indices
    from simplex_spectra.forms import _scaling_vector
    from simplex_spectra.simplex import _norm_sq

    for dim in (1, 2):
        for N in (1, 7, 24):
            basis = enumerate_basis(2 * N, dim)
            comps = basis.components.tolist()
            s = np.array([1.0 / np.sqrt(_norm_sq(*c)) for c in comps])
            C = np.zeros((basis.cardinality, 1 if dim == 1 else N + 1))
            for k, c in enumerate(comps):
                if sum(c) <= N and dim == 1:
                    C[k, 0] = s[k]
                elif sum(c) <= N:
                    C[k, c[0]] = (-1.0) ** c[1] * s[k] * math.sqrt(2.0 / (2 * c[0] + 1))
            assert np.array_equal(_scaling_vector(basis), s), (dim, N)
            assert np.array_equal(extremal._numerator_factor(N, dim), C), (dim, N)


def test_numerator_factor_matches_quadrature_forms():
    # the closed-form factor against the quadrature-assembled truncated forms
    cases = [(N, 1) for N in (1, 5, 40)] + [(N, 2) for N in (1, 3, 8, 12)] + [(N, 3) for N in (1, 2, 3, 4)]
    for N, dim in cases:
        want = _numerator_form(N, dim)
        C = extremal._numerator_factor(N, dim)
        # one column per function of the bottom piece's degree-N basis
        assert C.shape == (len(want), math.comb(N + dim - 1, dim - 1))
        assert np.max(np.abs(C @ C.T - want)) <= 1e-13 * np.max(np.abs(want)), (N, dim)


def test_row_constants_share_one_row():
    for N, dim in ((3, 1), (3, 2)):
        recs = list(row_constants(N, dim))
        assert [r.kind for r in recs] == ["mult", "add_h1_denominator", "h1_stability"]
        assert recs == [one_constant(N, dim, kind) for kind in extremal._KINDS]
    # kinds come out in the fixed order whatever order they are asked in
    recs = row_constants(2, 2, ("h1_stability", "mult"))
    assert [r.kind for r in recs] == ["mult", "h1_stability"]
    with pytest.raises(ParameterError):
        row_constants(2, 2, ("mult", "slope"))
    with pytest.raises(ParameterError, match="kinds must be iterable"):
        row_constants(2, 1, None)
    with pytest.raises(ParameterError):
        row_constants(0, 2)


def test_triangle_row_peak_memory():
    # the whole H1 form is one array of the basis size, written chunk by
    # chunk below the diagonal and mirrored above it: with one chunk's
    # temporaries it stays within 1.6 arrays (1.42 measured). A row never
    # builds it: each chunk is changed to the mirror basis in its own
    # buffer and written into the two mirror blocks, together half an
    # array, which the additive kinds factor and mult reduces in place: the
    # row stays within 1.3 arrays (1.02 measured)
    unit = math.comb(2 * 24 + 2, 2) ** 2 * 8
    for run, bound in ((lambda: h1_form(48, 2), 1.6), (lambda: list(row_constants(24, 2)), 1.3)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit, (bound, peak / unit)
    # the mult kind reduces the two mirror blocks in place, one at a time:
    # with the blocks, half an array, it stays within 0.65 arrays (0.57
    # measured)
    split = extremal._split(24, 2)
    before = [F.copy() for F, _, _ in split]
    tracemalloc.start()
    try:
        extremal._multiplicative(24, 2, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(F.nbytes for F in before)
    assert held + peak <= 0.65 * unit, (held + peak) / unit
    # the reduction takes the blocks in place rather than copies of them
    assert not any(np.array_equal(F, G) for (F, _, _), G in zip(split, before))


def test_tetrahedron_h1_peak_memory():
    # the 3-D stiffness is assembled by row blocks from prefix Grams of its
    # two leading axes, so it too stays near one array of the basis size
    unit = math.comb(24 + 3, 3) ** 2 * 8
    tracemalloc.start()
    try:
        h1_form(24, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * unit, peak / unit


def test_tridiagonalize_reduces_each_parity_block():
    # the mirror of the interval (x -> -x) and of the triangle (x <-> y) is
    # an isometry, so in the coordinates of the mirror basis A couples no
    # even to odd function; the two blocks are reduced apart and T has an
    # exact 0 at the seam, the even block's size. In the interval's basis
    # the coupling A[::2, 1::2] is zero as assembled. Either way (d, e, U)
    # is A and C in the reduced coordinates: U^T (mu I + T)^-1 U is
    # C^T (mu I + A)^-1 C, and T has the extreme eigenvalues of A. The
    # reduction is backward stable, so the first agrees only to roundoff
    # times the condition of mu I + A, about 1e7 at N = 60: there it is
    # 2.8e-13 off a 30-digit solve at mu = 1
    for N, dim in ((1, 1), (2, 1), (10, 1), (60, 1), (3, 2), (8, 2), (12, 2)):
        A, C = h1_form(2 * N, dim).entries, extremal._numerator_factor(N, dim)
        if dim == 1:
            assert not np.any(A[::2, 1::2]), N
        d, e, U = extremal._tridiagonalize(extremal._split(N, dim))
        assert e[np.count_nonzero(_mirror_basis(2 * N, dim)[1]) - 1] == 0.0, (N, dim)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        for mu in (1e-2, 1.0, 1e3):
            got = U.T @ np.linalg.solve(mu * np.eye(d.size) + T, U)
            want = C.T @ np.linalg.solve(mu * np.eye(d.size) + A, C)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (N, dim, mu)
        ev, ev_T = eigvalsh(A), eigvalsh(T)
        assert_allclose(ev_T[[0, -1]], ev[[0, -1]], rtol=1e-13, atol=0, err_msg=str((N, dim)))


def _dense_mirror(M, dim):
    """The change of basis of ``_mirror_basis`` as one orthogonal matrix,
    block diagonal by degree, with its even/odd labels."""
    slabs, even = _mirror_basis(M, dim)
    W = np.zeros((even.size, even.size))
    start = 0
    for block in slabs:
        W[start : start + len(block), start : start + len(block)] = block
        start += len(block)
    return W, even


def _dense_split(A, C, M, dim, lead):
    """The row's [(F, U, k)] of ``extremal._split`` from a whole form A on
    the degree-M basis and a factor C, by the dense change of basis: each
    mirror block of W A W^T in the reverse of the basis order, symmetrized
    and Fortran-ordered, its rows of W C, and the count of its coordinates
    among the first ``lead``, which that order puts last."""
    W, even = _dense_mirror(M, dim)
    B, V = W @ A @ W.T, W @ C
    split = []
    for mask in (even, ~even):
        order = np.flatnonzero(mask)[::-1]
        k = np.count_nonzero(order < lead)
        F = B[np.ix_(order, order)]
        split.append((np.asfortranarray((F + F.T) / 2.0), V[order], k))
    return split


def test_mirror_blocks_match_the_whole_form():
    # the blocks assembled chunk by chunk in the mirror basis are those of
    # the whole form changed to it, to roundoff, and exactly symmetric; the
    # rows of C follow them
    for N, dim in ((1, 1), (10, 1), (1, 2), (2, 2), (8, 2), (12, 2)):
        A, C = h1_form(2 * N, dim).entries, extremal._numerator_factor(N, dim)
        want = _dense_split(A, C, 2 * N, dim, math.comb(N + dim, dim))
        for (F, U, k), (G, V, m) in zip(extremal._split(N, dim), want):
            assert F.flags.f_contiguous and np.array_equal(F, F.T), (N, dim)
            assert np.max(np.abs(F - G)) <= 1e-15 * np.max(np.abs(A)), (N, dim)
            assert np.max(np.abs(U - V)) <= 1e-15 * np.max(np.abs(C)), (N, dim)
            assert k == m, (N, dim)


def test_tridiagonalize_takes_any_mirror_symmetric_form():
    # a form that commutes with the mirror and couples every pair of
    # coordinates of one parity, the constant function too, which the H1
    # form does not: the reduction still has the form's solves and extreme
    # eigenvalues
    rng = np.random.default_rng(5)
    for M in (2, 6):
        W, even = _dense_mirror(M, 2)
        n = even.size
        X = rng.standard_normal((n, n))
        X = X @ X.T / n + np.eye(n)
        X[np.ix_(even, ~even)] = X[np.ix_(~even, even)] = 0.0
        A = W.T @ X @ W
        A = (A + A.T) / 2.0
        C = rng.standard_normal((n, 3))
        d, e, U = extremal._tridiagonalize(_dense_split(A, C, M, 2, math.comb(M // 2 + 2, 2)))
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        for mu in (0.1, 10.0):
            got = U.T @ np.linalg.solve(mu * np.eye(n) + T, U)
            want = C.T @ np.linalg.solve(mu * np.eye(n) + A, C)
            assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=str((M, mu)))
        assert_allclose(eigvalsh(T)[[0, -1]], eigvalsh(A)[[0, -1]], rtol=1e-12, err_msg=str(M))


def test_mirror_blocks_of_the_triangle_form_are_uncoupled():
    # W A W^T, with W the mirror basis, block diagonal by degree, has a
    # coupling between its even and odd coordinates at the roundoff level
    for N in (1, 2, 3, 8, 12):
        A = h1_form(2 * N, 2).entries
        W, even = _dense_mirror(2 * N, 2)
        coupling = (W @ A @ W.T)[np.ix_(even, ~even)]
        assert np.max(np.abs(coupling)) <= 1e-12 * np.max(np.abs(A)), N


def test_mirror_split_matches_the_whole_form_reduction(monkeypatch):
    # the reduction of the whole triangle form, the one 2-D reduction
    # before the mirror split, kept as its oracle: the search on either
    # reduction gives one mult value
    for N in (1, 2, 3, 8, 12, 20):
        A, C = h1_form(2 * N, 2).entries, extremal._numerator_factor(N, 2)
        rec = one_constant(N, 2, "mult")
        whole = extremal._reduce_block(A.T, C)
        with monkeypatch.context() as patch:
            patch.setattr(extremal, "_tridiagonalize", lambda split: whole)
            want = extremal._multiplicative(N, 2, None)
        assert abs(rec.value - want.value) <= 1e-13 * want.value, N


def test_multiplicative_bisection_bounded_by_bracket(monkeypatch):
    # an H1 form whose eigenvalues span 300 decades, so the bracket in
    # log r is about 345 wide; halving it takes it below the stopping width
    # 1e-14 within 55 evaluations, and the loop has no cap, so the bound
    # below checks that it ends. Like every H1 form it commutes with the
    # mirror, as it is constant on each degree slab. Its maximizer is the
    # constant function at r = 1, the bracket's lower end, where lambda is
    # c0^2 for c0 the constant function's row of the numerator factor: 1/2
    # in 1-D, 1 in 2-D; every other coordinate has a diagonal entry of at
    # least 1e15
    real = extremal._h1_blocks

    def wide(M, dim, *args, **kwargs):
        orders, _, _ = real(M, dim, *args, **kwargs)
        # the change to the mirror basis keeps each coordinate's degree
        degree = enumerate_basis(M, dim).components.sum(axis=1)
        spread = np.geomspace(1.0, 1e300, M + 1)
        return orders, [np.diag(spread[degree[p]]).T for p in orders], 0.0

    calls = []
    real_dptsv = extremal.dptsv

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 100, "the bisection did not stop"
        return real_dptsv(*args, **kwargs)

    monkeypatch.setattr(extremal, "_h1_blocks", wide)
    monkeypatch.setattr(extremal, "dptsv", counted)
    for N, dim in ((3, 1), (10, 1), (3, 2), (6, 2)):
        calls.clear()
        rec = one_constant(N, dim, "mult")
        assert rec.iterations == len(calls) <= 57, (N, dim, rec.iterations)
        c0_sq = {1: 0.5, 2: 1.0}[dim]
        assert abs(rec.value - c0_sq) <= 1e-13 * c0_sq, (N, dim, rec.value)
        assert rec.residual <= 1e-13, (N, dim, rec.residual)


def _bisected_mult(d, e, U):
    """The mult value from the reduction (d, e, U) of ``_tridiagonalize`` by
    bisecting the slope in s = log r down to the stopping width, on the
    bracket of T's extreme eigenvalues: the search the interpolation
    replaced, kept as its oracle."""
    n = d.size
    a_min, a_max = (
        float(eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0]) for i in (0, n - 1)
    )
    lo, hi = 0.5 * math.log(a_min), 0.5 * math.log(a_max)
    while True:
        s = (lo + hi) / 2.0
        r = math.exp(s)
        _, _, Z, info = dptsv(r + d / r, e / r, U)
        assert info == 0
        G = U.T @ Z
        mu, Y = eigh(G + G.T)
        z = Z @ Y[:, -1]
        Tz = d * z
        Tz[:-1] += e * z[1:]
        Tz[1:] += e * z[:-1]
        slope = -2.0 * float(z @ (r * z - Tz / r))
        if hi - lo <= extremal._LOG_R_WIDTH * max(1.0, abs(s)):
            return float(mu[-1])
        if slope > 0.0:
            lo = s
        else:
            hi = s


def test_multiplicative_search_matches_bisection(monkeypatch):
    # both searches run on one reduction, so they differ only in where they
    # sample lambda(r) near its maximum
    for N, dim in ((1, 1), (10, 1), (60, 1), (3, 2), (12, 2)):
        reduced = extremal._tridiagonalize(extremal._split(N, dim))
        monkeypatch.setattr(extremal, "_tridiagonalize", lambda split: reduced)
        rec = extremal._multiplicative(N, dim, None)
        want = _bisected_mult(*reduced)
        assert abs(rec.value - want) <= 1e-14 * want, (N, dim)
        assert rec.residual <= 1e-14, (N, dim)


@pytest.fixture
def solves(monkeypatch):
    """The list of the mult search's tridiagonal solves, one entry each;
    past 200 the search is taken not to stop."""
    calls = []
    real_dptsv = extremal.dptsv

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 200, "the search did not stop"
        return real_dptsv(*args, **kwargs)

    monkeypatch.setattr(extremal, "dptsv", counted)
    return calls


def test_multiplicative_search_takes_few_evaluations(solves):
    # bisection took 48 to 50 evaluations on these rows; the interpolation
    # search takes 8 to 12
    rows = [(N, 1) for N in _TABLE_ROWS[1]] + [(N, 2) for N in range(1, 13)]
    for N, dim in rows:
        solves.clear()
        rec = one_constant(N, dim, "mult")
        assert rec.iterations == len(solves) <= 15, (N, dim, rec.iterations)


def test_multiplicative_search_bounded_when_interpolation_creeps(monkeypatch, solves):
    # interpolation steps that move the least the clamp allows barely shrink
    # the bracket; the bisection after every two steps that did not halve
    # it still ends the search within the 3 * 55 evaluations of its argument
    want = {(N, dim): one_constant(N, dim, "mult").value for N, dim in ((10, 1), (3, 2))}

    def creeping(a, f_a, b, f_b, c, f_c, width):
        return a + math.copysign(0.5 * width, b - a)

    monkeypatch.setattr(extremal, "_interpolate", creeping)
    for (N, dim), value in want.items():
        solves.clear()
        rec = one_constant(N, dim, "mult")
        assert rec.iterations == len(solves) <= 165, (N, dim, rec.iterations)
        assert abs(rec.value - value) <= 1e-14 * value, (N, dim)


def test_multiplicative_rejects_indefinite_denominator(monkeypatch):
    real = extremal._h1_blocks

    def negated(*args, **kwargs):
        orders, blocks, coupling = real(*args, **kwargs)
        return orders, [-F for F in blocks], coupling

    monkeypatch.setattr(extremal, "_h1_blocks", negated)
    with pytest.raises(NumericError, match="eigenvalue range"):
        one_constant(2, 1, "mult")
    # the additive kinds share the row's H1 form and reject it the same way
    for kind in ("add_h1_denominator", "h1_stability"):
        with pytest.raises(NumericError, match="not positive definite: eigenvalue range"):
            one_constant(2, 1, kind)


def test_multiplicative_rejects_nonfinite_reduction(monkeypatch):
    # the search calls LAPACK without scipy's wrappers, so it checks what
    # they checked: a non-finite T or k x k matrix is a NumericError, also
    # where the arithmetic that made it is let pass without a warning
    d, e, U = extremal._tridiagonalize(extremal._split(3, 1))
    U_inf = U.copy()
    U_inf[0] = np.inf
    for bad, name in (((np.full_like(d, np.nan), e, U), "d"), ((d, e, U_inf), "2 U")):
        monkeypatch.setattr(extremal, "_tridiagonalize", lambda split, bad=bad: bad)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=f"{name}.* must be finite"):
            extremal._multiplicative(3, 1, None)


def test_multiplicative_rejects_a_bracket_it_cannot_take(monkeypatch):
    # the bracket's upper end is half the log of T's Gershgorin bound g,
    # which an H1 form, at least I, keeps finite and at least 1; a T below
    # I or one whose bound overflows is a NumericError that names the
    # Gershgorin interval, not a math domain error or an overflow warning
    _, _, U = extremal._tridiagonalize(extremal._split(3, 1))
    n = U.shape[0]
    for d, e in ((np.full(n, 0.5), np.zeros(n - 1)), (np.full(n, 1e308), np.full(n - 1, 1e308))):
        monkeypatch.setattr(extremal, "_tridiagonalize", lambda split, T=(d, e, U): T)
        with pytest.raises(NumericError, match="Gershgorin eigenvalue range"):
            extremal._multiplicative(3, 1, None)


def test_multiplicative_validation(monkeypatch):
    # bad arguments are rejected before the row assembles anything
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a form for invalid arguments")

    monkeypatch.setattr(extremal, "_h1_blocks", no_assembly)
    for N, dim in ((0, 1), (2, 3), (2.5, 1), (True, 1), ("3", 2)):
        with pytest.raises(ParameterError):
            row_constants(N, dim, ("mult",))


def test_trace_rate_polynomial_exact():
    rows, slope, _ = trace_error_rate(lambda x: x[:, 0] ** 3 + x[:, 1] ** 2, [4, 6, 8])
    for _, err in rows:
        assert err <= 1e-11
    # every error is roundoff, so no degree clears the floor and no rate is fitted
    assert math.isnan(slope)


def test_trace_rate_analytic_decay():
    rows, slope, floors = trace_error_rate(
        lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1]), [4, 8, 12, 16]
    )
    assert slope <= -3.0
    # the errors decay strictly until they reach the roundoff floor and stay there
    above = sum(1 for (_, e), f in zip(rows, floors) if e > f)
    assert above >= 2
    errs = [e for _, e in rows[:above]]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(e <= f for (_, e), f in zip(rows[above:], floors[above:]))


def test_trace_rate_edge_collapse_matches_per_index_loop():
    # the array collapse onto the edge gives the bits of a per-index sum in
    # basis order
    from simplex_spectra.jacobi import JacobiWeight, _jacobi_table
    from simplex_spectra.simplex import _gl_nodes, _norm_sq, analyze

    u = lambda x: ((x[:, 0] - 1.0) ** 2 + (x[:, 1] + 1.0) ** 2) ** 0.65
    Ns = list(range(4, 21))
    t_edge, w_edge = _gl_nodes(400)
    target = u(np.column_stack([t_edge, -np.ones_like(t_edge)]))
    want = []
    for N in Ns:
        raw = analyze(u, N, 2, nodes=2 * N + 40)
        ap = np.zeros(N + 1)
        for k, (p, q) in enumerate(enumerate_basis(N, 2).components.tolist()):
            ap[p] += (-1.0) ** q * raw[k] / _norm_sq(p, q)
        vals = ap @ _jacobi_table(N, JacobiWeight(0.0, 0.0), t_edge)
        want.append((N, float(np.sqrt(np.sum(w_edge * (target - vals) ** 2)))))
    rows, _, _ = trace_error_rate(u, Ns)
    assert rows == want


def test_trace_rate_validation():
    f = lambda x: np.ones(len(x))
    with pytest.raises(ParameterError):
        trace_error_rate(f, [4])
    with pytest.raises(ParameterError):
        trace_error_rate(f, [4, 4])
    with pytest.raises(ParameterError):
        trace_error_rate(f, [4, 2])
    with pytest.raises(ParameterError):
        trace_error_rate(f, [0, 2])
    with pytest.raises(ParameterError, match="must be iterable"):
        trace_error_rate(f, 5)
    for bad in (lambda x: 1.0, lambda x: np.ones(3), lambda x: x):
        with pytest.raises(ParameterError, match="shape"):
            trace_error_rate(bad, [4, 6])
    # a NaN or infinite value fails here, not as NaN errors and slope
    for bad in (
        lambda x: np.full(len(x), np.nan),
        lambda x: np.full(len(x), np.inf),
        lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0),
    ):
        with pytest.raises(ParameterError, match="finite"):
            trace_error_rate(bad, [2, 3])

