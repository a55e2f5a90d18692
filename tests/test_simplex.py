import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from simplex_spectra import (
    BasisSet,
    ParameterError,
    SimplexIndex,
    SingularityError,
    analyze,
    boundary_trace_parseval,
    dubiner_eval,
    dubiner_norm_sq,
    duffy_map,
    enumerate_basis,
    jacobi_eval,
    JacobiWeight,
    line_functions,
    synthesize,
    trace_coefficient_sum,
    transformed_gradient,
)
from functools import reduce

from simplex_spectra import simplex
from simplex_spectra.simplex import (
    _axis_weights,
    _boundary_norm_direct,
    _boundary_rule,
    _check_simplex_point,
    _collapsed_grid,
    _component_values,
    _dubiner_matrix,
    _graded_components,
    _norm_sq,
    _rule_size,
)


def test_index_validation():
    idx = SimplexIndex(2, 1)
    assert idx.dim == 2 and idx.degree == 3 and idx.components() == (2, 1)
    assert SimplexIndex(1, 2, 3).degree == 6
    with pytest.raises(ParameterError):
        SimplexIndex(-1)
    with pytest.raises(ParameterError):
        SimplexIndex(1, None, 2)  # r without q
    with pytest.raises(ParameterError):
        SimplexIndex(True)


def test_enumerate_counts_and_order():
    for dim, N, count in ((1, 6, 7), (2, 5, 21), (3, 4, 35)):
        basis = enumerate_basis(N, dim)
        assert basis.cardinality == count
        degrees = [idx.degree for idx in basis.indices]
        # graded order: degrees never decrease, truncation is a prefix
        assert degrees == sorted(degrees)
    b2 = enumerate_basis(2, 2)
    assert [i.components() for i in b2.indices] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert b2.position(SimplexIndex(1, 1)) == 4
    # position is the row of the components; an index off the basis is refused
    for dim, N in ((1, 4), (2, 3), (3, 2)):
        basis = enumerate_basis(N, dim)
        assert [basis.position(i) for i in basis.indices] == list(range(basis.cardinality))
    for idx in (SimplexIndex(3, 0), SimplexIndex(1), SimplexIndex(0, 0, 0)):
        with pytest.raises(ParameterError, match="not in"):
            b2.position(idx)
    # a component array of the wrong size for (N, dim) is refused
    with pytest.raises(ParameterError):
        BasisSet(dim=2, N=3, components=_graded_components(2, 2))


def test_duffy_round_trip():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        for _ in range(25):
            eta = rng.uniform(-1, 0.95, size=dim)
            pt = duffy_map(eta, dim)
            # image lies in the simplex: coordinates >= -1, sum <= 2 - dim
            assert np.all(pt.xi >= -1 - 1e-12)
            assert pt.xi.sum() <= (2.0 - dim) + 1e-12
            _check_simplex_point(pt.xi.reshape(1, dim), dim)
            assert pt.jac_det > 0


def test_duffy_inverse_jacobian_matches_fd():
    for eta in (np.array([0.2, -0.3]), np.array([0.2, -0.3, 0.4])):
        dim = eta.size
        pt = duffy_map(eta, dim)
        h = 1e-6
        jac = np.zeros((dim, dim))
        for k in range(dim):
            ep, em = eta.copy(), eta.copy()
            ep[k] += h
            em[k] -= h
            jac[:, k] = (duffy_map(ep, dim).xi - duffy_map(em, dim).xi) / (2 * h)
        assert_allclose(pt.inv_jacobian @ jac, np.eye(dim), atol=5e-9)
        assert_allclose(np.linalg.det(jac), pt.jac_det, rtol=1e-8)


def test_duffy_map_matches_collapsed_grid():
    # one point at a time, the map gives the bits of the grid's lifts
    m = 7
    t, _ = simplex._gl_nodes(m)
    for dim in (2, 3):
        etas = itertools.product(t, repeat=dim)
        for eta, row in zip(etas, _collapsed_grid(dim, m), strict=True):
            assert np.array_equal(duffy_map(np.array(eta), dim).xi, row), (dim, eta)


def test_duffy_collapsed_point():
    pt = duffy_map(np.array([0.1, 1.0]), 2)
    assert_allclose(pt.xi, [-1.0, 1.0])
    with pytest.raises(SingularityError):
        pt.inv_jacobian
    with pytest.raises(ParameterError):
        duffy_map(np.array([1.5, 0.0]), 2)
    # a non-finite coordinate is outside the cube
    for eta in ([np.nan, 0.2], [0.1, np.inf]):
        with pytest.raises(ParameterError):
            duffy_map(np.array(eta), 2)
    with pytest.raises(ParameterError):
        transformed_gradient(lambda xi: np.ones(3), np.array([np.nan, 0.0, 0.0]))


def test_norm_frozen_values():
    assert_allclose(dubiner_norm_sq(SimplexIndex(2, 1)), 1 / 10, rtol=1e-15)
    assert_allclose(dubiner_norm_sq(SimplexIndex(1, 1, 1)), 4 / 81, rtol=1e-15)
    assert_allclose(dubiner_norm_sq(SimplexIndex(3)), 2 / 7, rtol=1e-15)


def test_dubiner_gram_small():
    # modest-degree orthogonality on both simplices by direct quadrature
    for dim, N in ((2, 5), (3, 4)):
        basis = enumerate_basis(N, dim)
        pts, w = _boundary_rule(dim + 1, 2 * N + 6) if dim == 2 else (None, None)
        if dim == 2:
            pts = pts[:, :2]
        else:
            from simplex_spectra.simplex import _gl_nodes

            t, wt = _gl_nodes(2 * N + 6)
            E = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
            half2 = (1 - E[:, 1]) / 2
            half3 = (1 - E[:, 2]) / 2
            w = (
                (wt[:, None, None] * wt[None, :, None] * wt[None, None, :]).ravel()
                * half2
                * half3**2
            )
            pts = np.column_stack(
                [
                    (1 + E[:, 0]) * (1 - E[:, 1]) * (1 - E[:, 2]) / 4 - 1,
                    (1 + E[:, 1]) * (1 - E[:, 2]) / 2 - 1,
                    E[:, 2],
                ]
            )
        tab = _dubiner_matrix(basis, pts)
        # any component rows, repeated or out of order, evaluate to the
        # matching rows of the basis matrix
        rows = np.r_[np.arange(len(tab))[::-3], 0, 0, len(tab) - 1, 4]
        assert np.array_equal(_component_values(basis.components[rows], pts), tab[rows])
        gram = (tab * w) @ tab.T
        diag = np.array([dubiner_norm_sq(i) for i in basis.indices])
        assert_allclose(np.diag(gram), diag, rtol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-13


def test_dubiner_eval_base_cases():
    # psi_{p,0} on the bottom edge reduces to Legendre in xi1
    for p in range(4):
        for t in (-0.8, 0.1, 0.9):
            val = dubiner_eval(SimplexIndex(p, 0), np.array([t, -1.0]), 2)
            assert_allclose(val, jacobi_eval(p, JacobiWeight(0.0, 0.0), t), rtol=1e-13)
    # psi_{0,0,r} depends only on xi3
    for r in range(3):
        val = dubiner_eval(SimplexIndex(0, 0, r), np.array([-0.7, -0.5, -0.1]), 3)
        assert_allclose(val, jacobi_eval(r, JacobiWeight(2.0, 0.0), -0.1), rtol=1e-13)


def test_dubiner_eval_polynomial_on_closed_simplex():
    # singularity-free form: finite values on the collapsed vertex itself
    val = dubiner_eval(SimplexIndex(3, 2), np.array([-1.0, 1.0]), 2)
    assert np.isfinite(val)


def test_analyze_synthesize_round_trip():
    rng = np.random.default_rng(11)
    # 3-D N=9 has several (p, q) that share one prefix sum p + q
    for dim, N in ((1, 4), (2, 4), (3, 4), (3, 9)):
        basis = enumerate_basis(N, dim)
        coeffs = rng.standard_normal(basis.cardinality)
        norms = np.array([dubiner_norm_sq(i) for i in basis.indices])

        def u(x):
            from simplex_spectra.simplex import _dubiner_matrix

            return (coeffs / norms) @ _dubiner_matrix(basis, x)

        raw = analyze(u, N, dim)
        assert_allclose(raw, coeffs, rtol=0, atol=1e-12)
        xi = np.full(dim, -0.4)
        assert_allclose(synthesize(raw, basis, xi), u(xi.reshape(1, dim))[0], atol=1e-12)


def test_analyze_node_count_validation():
    # a bool, a fraction and a rule too small for the degree are all refused
    f = lambda x: np.exp(x[:, 0] + x[:, 1])
    for nodes in (True, 2.7, 10.5, 5):
        with pytest.raises(ParameterError):
            analyze(f, 4, 2, nodes=nodes)
    assert analyze(f, 4, 2, nodes=6).shape == (15,)


def test_basis_order_is_graded_lex():
    # total degree first, then the components lexicographically
    for dim in (1, 2, 3):
        for N in (0, 1, 5):
            want = sorted(
                (c for c in itertools.product(range(N + 1), repeat=dim) if sum(c) <= N),
                key=lambda c: (sum(c), c),
            )
            assert [tuple(c) for c in _graded_components(N, dim).tolist()] == want
            basis = enumerate_basis(N, dim)
            assert [i.components() for i in basis.indices] == want
            # the basis holds the component array itself, read-only
            assert np.array_equal(basis.components, _graded_components(N, dim))
            assert not basis.components.flags.writeable
            with pytest.raises(ValueError):
                basis.components[0, 0] = 1


def test_norm_sq_of_arrays_matches_per_index():
    # the array form gives dubiner_norm_sq's bits for every index
    for dim in (1, 2, 3):
        basis = enumerate_basis(9, dim)
        want = np.array([dubiner_norm_sq(i) for i in basis.indices])
        assert np.array_equal(_norm_sq(*_graded_components(9, dim).T), want)


def test_analyze_order_without_basis_objects(monkeypatch):
    # rows follow enumerate_basis(N, dim).indices, checked against raw inner
    # products from the basis matrix on the same collapsed grid; analyze
    # itself builds no index objects
    f = lambda x: np.exp(0.7 * x[:, 0] - 0.4 * x.sum(axis=1)) + x[:, -1] ** 2
    oracles = {}
    for dim, N in ((1, 9), (2, 9), (3, 6)):
        m = _rule_size(N)
        pts = _collapsed_grid(dim, m)
        wts = reduce(np.multiply.outer, _axis_weights(dim, m)).ravel()
        oracles[dim, N] = _dubiner_matrix(enumerate_basis(N, dim), pts) @ (wts * f(pts))

    calls = []
    real = simplex.enumerate_basis
    monkeypatch.setattr(simplex, "enumerate_basis", lambda *a: calls.append(a) or real(*a))
    for (dim, N), want in oracles.items():
        got = analyze(f, N, dim)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (dim, N)
    assert calls == []


def test_analyze_argument_checks():
    f = lambda x: np.ones(len(x))
    for N in (-1, True, 2.5):
        with pytest.raises(ParameterError, match="N must"):
            analyze(f, N, 2)
    for dim in (0, 4):
        with pytest.raises(ParameterError, match="dim must"):
            analyze(f, 3, dim)


def test_node_overrides_are_checked():
    # a bool, a fraction and an empty rule are refused before any sampling
    f = lambda x: np.exp(x.sum(axis=1))
    for nodes in (True, 2.7, 0):
        with pytest.raises(ParameterError, match="nodes"):
            line_functions(f, 1, 0, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            trace_coefficient_sum(f, 0, 0, 1, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            _boundary_norm_direct(f, 2, nodes=nodes)


def test_degree_arguments_must_be_integers():
    # a fraction or a bool is refused as p, q or N, like a negative value
    f = lambda x: np.exp(x.sum(axis=1))
    for bad in (1.5, True, -1):
        with pytest.raises(ParameterError, match="p must"):
            line_functions(f, bad, 0)
        with pytest.raises(ParameterError, match="q must"):
            line_functions(f, 0, bad)
        with pytest.raises(ParameterError, match="p must"):
            trace_coefficient_sum(f, bad, 0, 1)
        with pytest.raises(ParameterError, match="q must"):
            trace_coefficient_sum(f, 0, bad, 1)
    for bad in (1.5, True, 0):
        with pytest.raises(ParameterError, match="N must"):
            trace_coefficient_sum(f, 0, 0, bad)


def test_boundary_norm_direct_checks_dim():
    f = lambda x: np.exp(x.sum(axis=1))
    for dim in (1, 4):
        with pytest.raises(ParameterError, match="dim must"):
            _boundary_norm_direct(f, dim)


def test_synthesize_length_check():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ParameterError):
        synthesize(np.ones(5), basis, np.array([-0.5, -0.5]))


def test_synthesize_checks_its_point():
    basis = enumerate_basis(3, 2)
    c = np.ones(basis.cardinality)
    with pytest.raises(ParameterError, match="outside"):
        synthesize(c, basis, [0.9, 0.9])
    for xi in ([-0.5, -0.5, -0.5], [-0.5]):
        with pytest.raises(ParameterError, match="coordinates"):
            synthesize(c, basis, xi)
        with pytest.raises(ParameterError, match="coordinates"):
            dubiner_eval(SimplexIndex(1, 1), xi, 2)
    # the closed simplex is accepted, its vertices included
    for xi in ([1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]):
        assert np.isfinite(synthesize(c, basis, xi))


def test_transformed_gradient_chain_rule():
    # u = xi1^2 xi3 + xi2: compose with the map and differentiate numerically
    def u(xi):
        return xi[0] ** 2 * xi[2] + xi[1]

    def grad(xi):
        return np.array([2 * xi[0] * xi[2], 1.0, xi[0] ** 2])

    eta = np.array([0.3, -0.2, 0.5])
    got = transformed_gradient(grad, eta)
    h = 1e-6
    fd = np.zeros(3)
    for k in range(3):
        ep, em = eta.copy(), eta.copy()
        ep[k] += h
        em[k] -= h
        fd[k] = (u(duffy_map(ep, 3).xi) - u(duffy_map(em, 3).xi)) / (2 * h)
    assert_allclose(got, fd, rtol=1e-7, atol=1e-9)


def test_line_functions_constant():
    u_line, u_scaled = line_functions(lambda x: np.ones(len(x)), 0, 0)
    for e3 in (-0.9, 0.0, 0.7):
        assert_allclose(u_line(e3), 2.0, rtol=1e-12)
        assert_allclose(u_scaled(e3), 2.0, rtol=1e-12)


def test_line_functions_endpoint_decay():
    # for (p,q) != (0,0) the line function vanishes at eta3 = 1
    u_line, u_scaled = line_functions(lambda x: x[:, 0] + x[:, 1] ** 2, 1, 0)
    assert abs(u_line(1.0)) < 1e-12
    with pytest.raises(SingularityError):
        u_scaled(1.0)


def test_trace_coefficient_sum_identity():
    fns = [
        lambda x: x[:, 2] ** 3,
        lambda x: x[:, 0] * x[:, 1] + 0.5 * x[:, 1] * x[:, 2] ** 2,
    ]
    for fn in fns:
        for p, q in ((0, 0), (1, 0), (1, 1)):
            for N in (1, 2, 3):
                tail, short = trace_coefficient_sum(fn, p, q, N)
                assert_allclose(tail, short, rtol=0, atol=1e-10 * max(1.0, abs(tail)))


def test_boundary_parseval_constant():
    # f = 1: the bottom edge/face has measure 2 in both dimensions
    one = lambda x: np.ones(len(x))
    assert_allclose(boundary_trace_parseval(one, 2, "edge"), 2.0, rtol=1e-12)
    assert_allclose(boundary_trace_parseval(one, 3, "face"), 2.0, rtol=1e-12)


def test_boundary_parseval_vs_direct():
    cases = [
        (2, "edge", lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1] + x[:, 0] ** 3),
        (3, "face", lambda x: x[:, 0] * x[:, 2] + x[:, 1] ** 2),
    ]
    for dim, gamma, fn in cases:
        via_sum = boundary_trace_parseval(fn, dim, gamma, N=12)
        assert_allclose(via_sum, _boundary_norm_direct(fn, dim), rtol=1e-11)


def test_boundary_parseval_validation():
    one = lambda x: np.ones(len(x))
    with pytest.raises(ParameterError):
        boundary_trace_parseval(one, 2, "face")
    with pytest.raises(ParameterError):
        boundary_trace_parseval(one, 1, "edge")


def test_point_checker_rejects_outside():
    with pytest.raises(ParameterError):
        _check_simplex_point(np.array([[0.5, 0.6]]), 2)
    with pytest.raises(ParameterError):
        _check_simplex_point(np.array([[-1.2, 0.0]]), 2)
    _check_simplex_point(np.array([[-0.5, -0.5]]), 2)
    # a non-finite coordinate is outside the simplex
    for bad in ([np.nan, 0.0], [-np.inf, 0.0], [0.0, np.inf]):
        with pytest.raises(ParameterError):
            _check_simplex_point(np.array([bad]), 2)
    with pytest.raises(ParameterError):
        synthesize(np.ones(10), enumerate_basis(3, 2), [np.nan, 0.0])
    with pytest.raises(ParameterError):
        dubiner_eval(SimplexIndex(1, 1), [np.nan, -0.5], 2)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(0, 5),
    q=st.integers(0, 5),
    e1=st.floats(-1.0, 1.0),
    e2=st.floats(-1.0, 0.999),
)
def test_dubiner_matches_collapsed_product(p, q, e1, e2):
    # away from the collapse, the basis equals the classical product form
    pt = duffy_map(np.array([e1, e2]), 2)
    got = dubiner_eval(SimplexIndex(p, q), pt.xi, 2)
    expect = (
        jacobi_eval(p, JacobiWeight(0.0, 0.0), e1)
        * ((1 - e2) / 2) ** p
        * jacobi_eval(q, JacobiWeight(2.0 * p + 1.0, 0.0), e2)
    )
    assert_allclose(got, expect, rtol=5e-12, atol=1e-12)
