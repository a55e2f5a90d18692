import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from oracles import jacobi_antideriv, jacobi_deriv, jacobi_eval

from simplex_spectra import (
    ParameterError,
    VerificationReport,
    connect_coefficients,
    verify_coefficient_bound,
    verify_connection,
    verify_deriv_norm_bound,
    verify_deriv_representation,
    verify_factor_identities,
    verify_hardy,
    verify_weighted_antiderivative,
)
from simplex_spectra import identities
from simplex_spectra.jacobi import (
    _g1,
    _g2,
    _g3,
    _h1,
    _h2,
    _h3,
    _deriv_table,
    _jacobi_table,
    _one_sided_norm_sq,
    gauss_jacobi_rule,
    JacobiWeight,
)


def test_factors_frozen_values():
    q, a = 2.0, 1.0
    assert_allclose(
        [_h1(q, a), _h2(q, a), _h3(q, a), _g1(q, a), _g2(q, a), _g3(q, a)],
        [-1 / 7, 2 / 35, 1 / 5, 3 / 10, 2 / 15, -1 / 6],
        rtol=1e-15,
    )
    # q = 1, alpha = 0, where h2 has a vanishing numerator
    assert_allclose([_h1(1.0, 0.0), _h2(1.0, 0.0), _h3(1.0, 0.0), _g1(1.0, 0.0)], [-1 / 3, 0.0, 1 / 3, 1.0], rtol=1e-15)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(2, 60), alpha=st.integers(1, 40))
def test_difference_identity(q, alpha):
    q, a = float(q), float(alpha)
    assert_allclose(_h2(q, a) - _h1(q, a), _h3(q, a), rtol=1e-13, atol=1e-16)


def test_factor_identity_sweep():
    report = verify_factor_identities()
    assert report.passed
    assert report.max_residual <= 1e-12
    assert set(report.details) == {
        "ratio-g1-h3",
        "ratio-g2-h2",
        "ratio-g3-h1",
        "difference",
        "cancellation",
    }


def test_factor_identity_sweep_detects_sabotage(monkeypatch):
    # g2 off by 1e-6 fails the g2-h2 ratio check, the only one that reads it
    monkeypatch.setattr(identities, "_g2", lambda q, a: _g2(q, a) + 1e-6)
    report = verify_factor_identities()
    assert not report.passed
    assert report.details["ratio-g2-h2"] > 1e-8
    assert report.worst_case.startswith("ratio-g2-h2")


def test_connect_matches_quadrature_coefficients():
    # quadrature coefficients of exp, its own derivative, for (alpha, 0)
    for alpha in (0, 1, 3):
        w = JacobiWeight(float(alpha), 0.0)
        rule = gauss_jacobi_rule(29, w)
        coeffs = _jacobi_table(19, w, rule.nodes) @ (rule.weights * np.exp(rule.nodes))
        pred = connect_coefficients(coeffs, alpha)
        assert np.isnan(pred[0])
        assert_allclose(pred[1:], coeffs[1 : pred.size], rtol=0, atol=1e-12)


def test_connect_legendre_normalized_reduction():
    # for alpha=0 the normalized relation is b[q-1]/(2q-1) - b[q+1]/(2q+3)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(9)
    u = connect_coefficients(b, 0)
    norms = 2.0 / (2.0 * np.arange(9) + 1.0)
    bhat = b / norms
    for q in range(1, 8):
        expect = (bhat[q - 1] / (2 * q - 1) - bhat[q + 1] / (2 * q + 3)) * norms[q]
        assert_allclose(u[q], expect, rtol=1e-13, atol=1e-15)


def test_connect_validation():
    with pytest.raises(ParameterError):
        connect_coefficients([1.0, 2.0], 0)
    with pytest.raises(ParameterError):
        connect_coefficients(np.ones(5), -1)
    with pytest.raises(ParameterError, match="numeric"):
        connect_coefficients("x", 1)


def test_verify_connection_corpus():
    report = verify_connection()
    assert report.passed
    assert report.max_residual <= 1e-12
    assert report.n_checks > 0


def test_weighted_antiderivative_sweep():
    report = verify_weighted_antiderivative()
    assert report.passed
    assert report.max_residual <= 1e-10


def _antiderivative_residuals():
    # point-by-point oracle over the sweep's extent: a fresh 48-point rule on
    # (-1, x) for every (alpha, q, x), the worst residual of each check
    worst = {"weighted-antiderivative": -1.0, "antiderivative": -1.0}
    for alpha in range(7):
        fa = float(alpha)
        w = JacobiWeight(fa, 0.0)
        for q in range(1, 11):
            for x in np.linspace(-0.96, 0.98, 20):
                base = gauss_jacobi_rule(48, JacobiWeight(0.0, 0.0))
                half = 0.5 * (float(x) + 1.0)
                nodes, wts = -1.0 + half * (base.nodes + 1.0), half * base.weights
                tab = _jacobi_table(q + 1, w, nodes)
                rhs_w = -((1.0 - x) ** fa) * float(
                    _h1(q, fa) * jacobi_eval(q + 1, w, x)
                    + _h2(q, fa) * jacobi_eval(q, w, x)
                    + _h3(q, fa) * jacobi_eval(q - 1, w, x)
                )
                r1 = abs(float(wts @ ((1.0 - nodes) ** fa * tab[q])) - rhs_w)
                r2 = abs(float(wts @ tab[q]) - float(jacobi_antideriv(q + 1, fa, x)))
                worst["weighted-antiderivative"] = max(worst["weighted-antiderivative"], r1)
                worst["antiderivative"] = max(worst["antiderivative"], r2)
    return worst


def test_weighted_antiderivative_builds_one_rule(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gauss_jacobi_rule(*args, **kwargs)

    monkeypatch.setattr(identities, "gauss_jacobi_rule", counted)
    report = verify_weighted_antiderivative()
    assert len(calls) == 1
    assert report.n_checks == 2 * 10 * 7 * 20
    assert report.details == _antiderivative_residuals()


def test_deriv_representation_sweep():
    report = verify_deriv_representation()
    assert report.passed
    assert report.max_residual <= 1e-10


def _counting(monkeypatch, name):
    # route identities' binding of a jacobi table builder through a counter
    calls = []
    real = getattr(identities, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, name, counted)
    return calls


def test_weighted_antiderivative_reads_whole_tables(monkeypatch):
    calls = _counting(monkeypatch, "_jacobi_table")
    report = verify_weighted_antiderivative()
    assert report.n_checks == 2 * 10 * 7 * 20
    assert len(calls) <= 2 * 7


def _deriv_representation_residuals():
    # point-by-point oracle over the sweep's extent: one jacobi_eval and three
    # jacobi_deriv calls per (alpha, q), and the worst residual with the
    # point where it sits
    xs = np.linspace(-1.0, 1.0, 20)
    worst, worst_case = -1.0, ""
    for alpha in range(7):
        fa = float(alpha)
        w = JacobiWeight(fa, 0.0)
        for q in range(1, 11):
            lhs = jacobi_eval(q, w, xs) / _one_sided_norm_sq(q, fa)
            rhs = (
                _h1(q - 1.0, fa) / _one_sided_norm_sq(q - 1.0, fa) * jacobi_deriv(q - 1, w, xs)
                + _h2(q, fa) / _one_sided_norm_sq(q, fa) * jacobi_deriv(q, w, xs)
                + _h3(q + 1.0, fa) / _one_sided_norm_sq(q + 1.0, fa) * jacobi_deriv(q + 1, w, xs)
            )
            r = np.abs(lhs - rhs)
            if float(r.max()) > worst:
                worst = float(r.max())
                worst_case = f"q={q}, alpha={alpha}, x={xs[int(np.argmax(r))]:.3f}"
    return {"deriv-representation": worst}, worst_case


def test_deriv_representation_reads_whole_tables(monkeypatch):
    tables = _counting(monkeypatch, "_jacobi_table")
    derivs = _counting(monkeypatch, "_deriv_table")
    report = verify_deriv_representation()
    assert len(tables) == len(derivs) == 7
    assert (report.details, report.worst_case) == _deriv_representation_residuals()


def test_deriv_norm_bound_wide_sweep():
    report = verify_deriv_norm_bound()
    assert report.passed
    # violations are normalized (I^2 - bound)/bound, so margin is negative
    assert report.max_residual < 0.0


def test_hardy_corpus():
    report = verify_hardy()
    assert report.passed
    assert report.n_checks == 20


def test_coefficient_bound_corpus():
    report = verify_coefficient_bound()
    assert report.passed
    assert report.max_residual < 0.0


def test_report_properties():
    report = VerificationReport(
        name="toy", n_checks=2, tolerance=1e-10, details={"a": 1e-12, "b": 5e-11}, worst_case="b"
    )
    assert report.max_residual == 5e-11
    assert report.passed
    bad = VerificationReport(
        name="toy", n_checks=1, tolerance=1e-12, details={"a": 1e-3}, worst_case="a"
    )
    assert not bad.passed


def test_report_rule():
    # details hold the largest residual per key, the worst case is the first
    # largest residual of the sweep, and every array entry is one check
    labelled = []

    def case(label):
        return lambda i: labelled.append((label, i)) or f"{label}[{i}]"

    report = identities._report(
        "toy",
        1e-10,
        [
            ("a", np.array([1.0, 3.0, 3.0]), case("a0")),
            ("b", 3.0, case("b0")),
            ("a", np.array([[2.0], [0.5]]), case("a1")),
            ("c", np.array([]), case("c0")),
            ("b", np.array([-1.0, 4.0]), case("b1")),
        ],
    )
    assert report.details == {"a": 3.0, "b": 4.0}
    assert report.n_checks == 3 + 1 + 2 + 0 + 2
    assert report.worst_case == "b1[1]"
    # a label is formatted only for an entry that becomes the worst so far
    assert labelled == [("a0", 1), ("b1", 1)]
    assert report.max_residual == 4.0
    assert (report.name, report.tolerance) == ("toy", 1e-10)
    empty = identities._report("empty", 1e-10, [])
    assert (empty.details, empty.n_checks, empty.worst_case, empty.max_residual) == ({}, 0, "", 0.0)


def test_report_ranks_nan_worst():
    # a NaN residual is worse than any number wherever it stands in the
    # sweep: it is its key's detail and the sweep's worst case, so the
    # report fails with max_residual NaN
    def case(label):
        return lambda i: f"{label}[{i}]"

    sweeps = {
        "after a number of its key": [("a", 1e-3, case("a0")), ("a", math.nan, case("a1"))],
        "in a later key": [("a", 1e-3, case("a0")), ("b", math.nan, case("b0"))],
        "inside an array": [("a", np.array([1e-3, math.nan, 2e-3, math.nan]), case("a0"))],
        "before a larger number": [("a", math.nan, case("a0")), ("a", 5.0, case("a1")), ("b", 7.0, case("b0"))],
    }
    want = {
        "after a number of its key": ({"a"}, "a1[0]"),
        "in a later key": ({"b"}, "b0[0]"),
        "inside an array": ({"a"}, "a0[1]"),
        "before a larger number": ({"a"}, "a0[0]"),
    }
    for order, checks in sweeps.items():
        report = identities._report("toy", 1e-10, checks)
        nan_keys = {key for key, value in report.details.items() if math.isnan(value)}
        assert (nan_keys, report.worst_case) == want[order], order
        assert math.isnan(report.max_residual) and not report.passed, order
