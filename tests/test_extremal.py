import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplex_spectra import (
    ConstantRecord,
    IterationError,
    NumericError,
    ParameterError,
    additive_constant,
    enumerate_basis,
    h1_form,
    mass_form,
    multiplicative_constant,
    point_eval_form,
    projection_form,
    rayleigh_sup,
    trace_error_rate,
    trace_form,
)
from simplex_spectra import extremal
from simplex_spectra.forms import SymmetricForm

# (N, dim) rows checked against the assembled dense pencil
_DENSE_ROWS = ((2, 1), (6, 1), (3, 2), (5, 2))


def small_form(entries):
    n = len(entries)
    basis = enumerate_basis(n - 1, 1)
    return SymmetricForm(
        basis=basis, kind="mass", entries=np.asarray(entries, float), scaling=np.ones(n)
    )


def test_rayleigh_identity_pencil():
    G = small_form(np.diag([1.0, 2.0]))
    sol = rayleigh_sup(G, G)
    assert_allclose(sol.lambda_max, 1.0, rtol=1e-13)
    assert sol.ortho_residual < 1e-9
    assert_allclose(sol.vector @ G.entries @ sol.vector, 1.0, rtol=1e-12)


def test_rayleigh_diagonal_pencil():
    B = small_form(np.diag([3.0, 1.0]))
    G = small_form(np.diag([1.0, 2.0]))
    sol = rayleigh_sup(B, G)
    assert_allclose(sol.lambda_max, 3.0, rtol=1e-13)


def test_rayleigh_rank_one():
    v0 = np.array([1.0, 2.0])
    B = small_form(np.outer(v0, v0))
    G = small_form(np.diag([1.0, 2.0]))
    sol = rayleigh_sup(B, G)
    assert_allclose(sol.lambda_max, v0 @ np.linalg.solve(G.entries, v0), rtol=1e-13)


def test_rayleigh_rejects_indefinite_denominator():
    B = small_form(np.eye(2))
    G = small_form(np.diag([1.0, -0.5]))
    with pytest.raises(NumericError, match="eigenvalue range"):
        rayleigh_sup(B, G)


def test_rayleigh_rejects_mismatched_bases():
    B = small_form(np.eye(2))
    G = small_form(np.eye(3))
    with pytest.raises(ParameterError):
        rayleigh_sup(B, G)


def test_additive_interval_closed_form():
    # N=1: numerator u(1)^2 over P_1 truncation, denominator full H1 on P_2
    rec = additive_constant(1, 1, "point")
    assert_allclose(rec.value, 7.0 / 8.0, atol=1e-12)
    assert rec.kind == "add_h1_denominator"
    assert rec.dim == 1 and rec.N == 1


def test_additive_validation():
    with pytest.raises(ParameterError):
        additive_constant(2, 2, "point")
    with pytest.raises(ParameterError):
        additive_constant(2, 1, "trace")
    with pytest.raises(ParameterError):
        additive_constant(2, 1, "mass")
    with pytest.raises(ParameterError):
        additive_constant(0, 1, "point")
    with pytest.raises(ParameterError):
        additive_constant(2, 3, "h1_of_projection")


def test_constant_record_validation():
    good = dict(dim=1, N=2, kind="mult", value=1.5, iterations=3, residual=1e-14)
    ConstantRecord(**good)
    for field, bad in [
        ("dim", 3),
        ("N", 0),
        ("kind", "product"),
        ("value", -1.0),
        ("value", np.nan),
        ("iterations", 0),
        ("residual", -1e-3),
    ]:
        args = dict(good)
        args[field] = bad
        with pytest.raises(ParameterError):
            ConstantRecord(**args)


def test_multiplicative_interval_closed_form():
    # N=1 admits a two-coefficient closed form; its maximum is known exactly
    rec = multiplicative_constant(1, 1)
    assert_allclose(rec.value, 1.181849168039031, atol=1e-11)
    assert rec.kind == "mult"
    assert rec.residual <= 1e-12


def _mult_forms(N, dim):
    """Truncated numerator, assembled mass and H1 forms of the mult row."""
    raw = point_eval_form(2 * N) if dim == 1 else trace_form(2 * N, dim, "edge")
    return projection_form(raw, N), mass_form(2 * N, dim), h1_form(2 * N, dim)


def _dense_lambda(B, M, A, r):
    """Top eigenvalue of the assembled pencil (2B, r M + A/r)."""
    num = SymmetricForm(basis=B.basis, kind=B.kind, entries=2.0 * B.entries, scaling=B.scaling)
    den = SymmetricForm(
        basis=A.basis, kind="h1", entries=r * M.entries + A.entries / r, scaling=A.scaling
    )
    return rayleigh_sup(num, den).lambda_max


def _log_r_grid(A, n=41):
    a = np.linalg.eigvalsh(A.entries)
    return np.linspace(0.5 * np.log(a[0]), 0.5 * np.log(a[-1]), n)


def test_multiplicative_matches_exhaustive_sampling():
    N = 3
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        rec = multiplicative_constant(N, dim)
        B, mass, A = _mult_forms(N, dim)
        for _ in range(50):
            v = rng.standard_normal(mass.basis.cardinality)
            q = (v @ B.entries @ v) / np.sqrt(
                (v @ mass.entries @ v) * (v @ A.entries @ v)
            )
            assert q <= rec.value + 1e-10


def test_multiplicative_monotone_in_degree():
    vals = [multiplicative_constant(N, 1).value for N in (1, 2, 3, 4)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-6


def test_multiplicative_is_max_over_dense_pencil():
    # every split r bounds the constant from below through the assembled
    # (not assumed) mass form, so no grid point may exceed the returned value
    for N, dim in _DENSE_ROWS:
        rec = multiplicative_constant(N, dim)
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
        M4 = SymmetricForm(
            basis=mass.basis, kind="mass", entries=4.0 * mass.entries, scaling=mass.scaling
        )
        A4 = SymmetricForm(basis=A.basis, kind="h1", entries=A.entries / 4.0, scaling=A.scaling)
        for s in _log_r_grid(A, 5):
            r = np.exp(s)
            assert_allclose(
                _dense_lambda(B, M4, A4, r / 4.0), _dense_lambda(B, mass, A, r), rtol=1e-12
            )


def _legendre_mult_oracle(N):
    """Interval constant at 40 digits from the exact orthonormal-Legendre H1
    Gram I + K, K_ij = s_i s_j m(m+1) for i+j even with m = min(i, j) and
    s_k = sqrt((2k+1)/2), and the truncated endpoint vector c_k = s_k, k <= N.

    Returns (the maximum over t = log r of 2 c^T (r I + A/r)^-1 c, the Gram).
    """
    with mp.workdps(40):
        M = 2 * N
        s = [mp.sqrt(mp.mpf(2 * k + 1) / 2) for k in range(M + 1)]
        A = mp.matrix(M + 1, M + 1)
        for i in range(M + 1):
            A[i, i] = 1
            for j in range(i % 2, M + 1, 2):
                m = min(i, j)
                A[i, j] += s[i] * s[j] * m * (m + 1)
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
    for N in (1, 2, 5, 10):
        value, gram = _legendre_mult_oracle(N)
        A = h1_form(2 * N, 1).entries
        assert np.max(np.abs(gram - A)) <= 1e-13 * np.max(np.abs(gram))
        rec = multiplicative_constant(N, 1)
        assert abs(rec.value - float(value)) <= 1e-12 * float(value), N


def test_iteration_budget_exhaustion():
    with pytest.raises(IterationError) as info:
        multiplicative_constant(10, 1, max_iterations=3)
    best = info.value.best
    assert isinstance(best, ConstantRecord)
    assert best.iterations == 3
    assert best.value > 0


def test_multiplicative_rejects_indefinite_denominator(monkeypatch):
    real = extremal.h1_form

    def negated(M, dim, nodes=None):
        A = real(M, dim, nodes=nodes)
        return SymmetricForm(basis=A.basis, kind="h1", entries=-A.entries, scaling=A.scaling)

    monkeypatch.setattr(extremal, "h1_form", negated)
    with pytest.raises(NumericError, match="eigenvalue range"):
        multiplicative_constant(2, 1)


def test_multiplicative_validation():
    with pytest.raises(ParameterError):
        multiplicative_constant(0, 1)
    with pytest.raises(ParameterError):
        multiplicative_constant(2, 3)
    with pytest.raises(ParameterError):
        multiplicative_constant(2.5, 1)


def test_trace_rate_polynomial_exact():
    rows, slope = trace_error_rate(lambda x: x[:, 0] ** 3 + x[:, 1] ** 2, [4, 6, 8])
    for _, err in rows:
        assert err <= 1e-11


def test_trace_rate_analytic_decay():
    rows, slope = trace_error_rate(
        lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1]), [4, 8, 12, 16]
    )
    assert slope <= -3.0
    errs = [e for _, e in rows]
    assert errs == sorted(errs, reverse=True)


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
