import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from oracles import jacobi_antideriv, jacobi_deriv, jacobi_eval, jacobi_norm_sq

from simplex_spectra import JacobiWeight, ParameterError, QuadratureRule, gauss_jacobi_rule
from simplex_spectra.jacobi import _deriv_table, _jacobi_table, _one_sided_norm_sq, _recurrence_coeffs


def test_weight_validation():
    JacobiWeight(-0.5, 0.0)
    with pytest.raises(ParameterError):
        JacobiWeight(-1.0, 0.0)
    with pytest.raises(ParameterError):
        JacobiWeight(0.0, -1.5)
    # exponents must be finite, a column of them included
    for alpha, beta in ((np.inf, 0.0), (0.0, np.inf), (np.nan, 0.0), (np.array([0.0, np.inf]), 0.0)):
        with pytest.raises(ParameterError):
            JacobiWeight(alpha, beta)


def test_public_functions_take_one_weight():
    # a column of weights is for the private tables; the Gauss rule and the
    # zeroth moment reject it rather than index its weight axis or fail
    # untyped
    for beta in (0.0, 0.5):
        w = JacobiWeight(np.arange(6.0), beta)
        for call in (
            lambda: gauss_jacobi_rule(3, w),
            lambda: w.zeroth_moment,
        ):
            with pytest.raises(ParameterError, match="one weight"):
                call()


def test_zeroth_moment():
    # int (1-x)(1+x)^0 = 2 over [-1,1] gives 2^2 B(2,1) = 2
    assert_allclose(JacobiWeight(1.0, 0.0).zeroth_moment, 2.0, rtol=1e-14)
    assert_allclose(JacobiWeight(0.0, 0.0).zeroth_moment, 2.0, rtol=1e-14)


def test_degree_rejection():
    # the node count goes through the one integer check
    w = JacobiWeight(0.0, 0.0)
    for call in (
        lambda: gauss_jacobi_rule(0, w),
        lambda: gauss_jacobi_rule(np.int64(-2), w),
        lambda: gauss_jacobi_rule(False, w),
        lambda: gauss_jacobi_rule(True, w),
        lambda: gauss_jacobi_rule(2.0, w),
    ):
        with pytest.raises(ParameterError):
            call()


def test_eval_frozen_values():
    # independently derived closed-form rationals
    assert_allclose(jacobi_eval(3, JacobiWeight(1.5, 0.5), 0.3), -3199 / 4000, rtol=1e-14)
    assert_allclose(jacobi_eval(5, JacobiWeight(2.0, 0.0), -0.4), -11011 / 25000, rtol=1e-14)
    assert_allclose(jacobi_eval(4, JacobiWeight(0.0, 3.0), 0.5), 37 / 128, rtol=1e-14)


def test_eval_endpoint_value():
    # P_n(1) = binom(n + alpha, n)
    for n in (0, 1, 4, 9):
        for alpha in (0.0, 1.0, 2.5):
            expect = scipy.special.binom(n + alpha, n)
            assert_allclose(jacobi_eval(n, JacobiWeight(alpha, 0.0), 1.0), expect, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 25),
    alpha=st.floats(-0.9, 8.0),
    beta=st.floats(-0.9, 8.0),
    x=st.floats(-1.0, 1.0),
)
def test_eval_matches_scipy(n, alpha, beta, x):
    ours = jacobi_eval(n, JacobiWeight(alpha, beta), x)
    ref = scipy.special.eval_jacobi(n, alpha, beta, x)
    assert_allclose(ours, ref, rtol=5e-12, atol=5e-12)


def test_eval_array_shape():
    x = np.linspace(-1, 1, 7).reshape(7, 1)
    out = jacobi_eval(3, JacobiWeight(0.5, 0.0), x)
    assert out.shape == (7, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 12),
    alpha=st.floats(0.0, 6.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(0.05, 2.0),
)
def test_scaled_table_homogenizes(n, alpha, a, b):
    # S_n(a, b) = b^n P_n(a/b) whenever a/b stays in the recurrence's reach
    w = JacobiWeight(alpha, 0.0)
    tab = _jacobi_table(n, w, np.array(a), np.array(b))
    plain = _jacobi_table(n, w, np.array(a / b))
    expect = plain * b ** np.arange(n + 1)[:, None].reshape(n + 1)
    assert_allclose(tab, expect, rtol=2e-12, atol=1e-12)


def _scalar_table(n, a, b, x, den=1.0):
    # the three-term recurrence one step at a time, with the scalar
    # coefficients of each step: the oracle of the column sweep
    xs = np.asarray(x, dtype=float)
    out = np.zeros((n + 1,) + np.broadcast_shapes(xs.shape, np.shape(den)))
    out[0] = 1.0
    if n >= 1:
        out[1] = 0.5 * ((a - b) * den + (a + b + 2.0) * xs)
    for k in range(1, n):
        c1, c2, c3, c4 = _recurrence_coeffs(k, a, b)
        out[k + 1] = ((c2 * den + c3 * xs) * out[k] - c4 * (den * den) * out[k - 1]) / c1
    return out


def _scalar_deriv_table(n, a, b, x):
    xs = np.asarray(x, dtype=float)
    out = np.zeros((n + 1,) + xs.shape)
    if n >= 1:
        shifted = _scalar_table(n - 1, a + 1.0, b + 1.0, xs)
        for k in range(1, n + 1):
            out[k] = 0.5 * (k + a + b + 1.0) * shifted[k - 1]
    return out


def test_tables_match_scalar_recurrence():
    x = np.linspace(-1.0, 1.0, 9)
    den = np.array([0.0, 0.25, 1.0, 1.5])[:, None]
    for a, b in ((0.0, 0.0), (0.5, -0.5), (2.0, 0.3), (1.5, 2.75), (-0.5, 0.5)):
        w = JacobiWeight(a, b)
        for n in (0, 1, 2, 3, 11):
            for pts in (x, 0.3):
                assert np.array_equal(_jacobi_table(n, w, pts), _scalar_table(n, a, b, pts)), (a, b, n)
                assert np.array_equal(_deriv_table(n, w, pts), _scalar_deriv_table(n, a, b, pts)), (a, b, n)
            assert np.array_equal(_jacobi_table(n, w, x, den), _scalar_table(n, a, b, x, den)), (a, b, n)


def test_deriv_matches_finite_difference():
    w = JacobiWeight(1.5, 0.5)
    x = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    fd = (jacobi_eval(6, w, x + h) - jacobi_eval(6, w, x - h)) / (2 * h)
    assert_allclose(jacobi_deriv(6, w, x), fd, rtol=1e-8)
    assert_allclose(jacobi_deriv(0, w, x), np.zeros_like(x), atol=0.0)


def test_norm_sq_frozen_values():
    assert_allclose(jacobi_norm_sq(3, JacobiWeight(2.0, 1.0)), 16 / 15, rtol=1e-14)
    assert_allclose(
        jacobi_norm_sq(2, JacobiWeight(0.5, 1.5)), 0.92038847273138473783, rtol=1e-14
    )
    assert_allclose(jacobi_norm_sq(4, JacobiWeight(3.0, 0.0)), 2.0**4 / 12, rtol=1e-14)
    # the package's one-sided closed form, 2^(alpha+1) / (2n + alpha + 1),
    # is exact, free of Gamma-function roundoff
    assert _one_sided_norm_sq(4, 3.0) == 2.0**4 / 12


def test_norm_sq_vs_quadrature():
    for alpha, beta in ((0.0, 0.0), (2.0, 0.0), (1.5, 2.5)):
        w = JacobiWeight(alpha, beta)
        rule = gauss_jacobi_rule(20, w)
        for n in (0, 3, 7):
            vals = jacobi_eval(n, w, rule.nodes)
            assert_allclose(jacobi_norm_sq(n, w), rule.weights @ vals**2, rtol=1e-13)


def test_gauss_rule_matches_scipy():
    for m, alpha, beta in ((5, 0.0, 0.0), (12, 2.0, 0.0), (9, 0.5, 1.5)):
        rule = gauss_jacobi_rule(m, JacobiWeight(alpha, beta))
        ref_x, ref_w = scipy.special.roots_jacobi(m, alpha, beta)
        assert_allclose(rule.nodes, ref_x, rtol=1e-12, atol=1e-13)
        assert_allclose(rule.weights, ref_w, rtol=1e-12, atol=1e-14)


def test_gauss_rule_frozen_moments():
    # (1,0)-weighted monomial moments: 2, -2/3, 2/3, -2/5
    rule = gauss_jacobi_rule(2, JacobiWeight(1.0, 0.0))
    for k, expect in enumerate([2.0, -2 / 3, 2 / 3, -2 / 5]):
        assert_allclose(rule.weights @ rule.nodes**k, expect, rtol=1e-14, atol=1e-15)


def test_gauss_rule_exactness_boundary():
    # an m-node rule is exact through degree 2m - 1, and not at degree 2m:
    # int x^k over [-1, 1] is 2/(k + 1) for even k, 0 for odd k
    m = 4
    rule = gauss_jacobi_rule(m, JacobiWeight(0.0, 0.0))
    for k in range(2 * m):
        assert_allclose(rule.weights @ rule.nodes**k, 2.0 / (k + 1) * (k % 2 == 0), rtol=1e-13, atol=1e-15)
    assert abs(rule.weights @ rule.nodes ** (2 * m) - 2.0 / (2 * m + 1)) > 1e-6


def test_gauss_rule_singular_weight_pair():
    # alpha + beta = -1 hits the removable 0/0 in the first off-diagonal
    rule = gauss_jacobi_rule(6, JacobiWeight(-0.5, -0.5))
    ref_x, ref_w = scipy.special.roots_jacobi(6, -0.5, -0.5)
    assert_allclose(rule.nodes, ref_x, rtol=1e-12, atol=1e-13)
    assert_allclose(rule.weights, ref_w, rtol=1e-11, atol=1e-14)


def test_quadrature_rule_validation():
    ones = np.array([1.0, 1.0])
    with pytest.raises(ParameterError):
        QuadratureRule(nodes=np.array([0.3, 0.1]), weights=ones)
    with pytest.raises(ParameterError):
        QuadratureRule(nodes=np.array([0.1, 0.3]), weights=np.array([1.0, -1.0]))


def test_antideriv_frozen_value():
    # int_{-1}^{0.3} P_3^{(2,0)} dt, exact rational -9243/40000
    assert_allclose(jacobi_antideriv(4, 2.0, 0.3), -9243 / 40000, rtol=1e-13, atol=1e-15)
    assert_allclose(jacobi_antideriv(1, 1.0, 0.3), 1.3, rtol=1e-14)


def test_antideriv_vs_quad():
    for n, alpha in ((2, 0.0), (3, 1.0), (6, 2.5), (9, 4.0)):
        for xv in (-0.7, 0.0, 0.55, 1.0):
            ref, _ = scipy.integrate.quad(
                lambda t: scipy.special.eval_jacobi(n - 1, alpha, 0.0, t), -1.0, xv
            )
            assert_allclose(jacobi_antideriv(n, alpha, xv), ref, rtol=1e-10, atol=1e-12)


def test_antideriv_vanishes_at_left_end():
    x = np.array([-1.0])
    for n in (1, 2, 5):
        assert_allclose(jacobi_antideriv(n, 1.5, x), 0.0, atol=1e-14)
