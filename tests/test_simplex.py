import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from oracles import jacobi_eval, synthesize

from simplex_spectra import (
    ParameterError,
    analyze,
    boundary_trace_parseval,
    enumerate_basis,
    JacobiWeight,
)
from functools import reduce

from simplex_spectra.jacobi import _deriv_table, _jacobi_table
from simplex_spectra.simplex import (
    _axis_factors,
    _axis_weights,
    _boundary_norm_direct,
    _boundary_rule,
    _collapsed_grid,
    _component_values,
    _gl_nodes,
    _mirror_basis,
    _norm_sq,
    _rule_size,
    _trace_coefficient_sums,
)


def test_enumerate_counts_and_order():
    for dim, N, count in ((1, 6, 7), (2, 5, 21), (3, 4, 35)):
        comps = enumerate_basis(N, dim)
        assert comps.shape == (count, dim)
        degrees = comps.sum(axis=1).tolist()
        # graded order: degrees never decrease, truncation is a prefix
        assert degrees == sorted(degrees)
    assert enumerate_basis(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]
    # an N or a dim that is not an integer is refused, and so is a dim
    # with no simplex basis
    for dim, N in ((2, 2.0), (2.0, 2), (True, 2), (4, 2), (0, 2)):
        with pytest.raises(ParameterError):
            enumerate_basis(N, dim)


def test_norm_frozen_values():
    assert_allclose(_norm_sq(2, 1), 1 / 10, rtol=1e-15)
    assert_allclose(_norm_sq(1, 1, 1), 4 / 81, rtol=1e-15)
    assert_allclose(_norm_sq(3), 2 / 7, rtol=1e-15)
    # component arrays give the values row by row
    assert_allclose(_norm_sq(*np.array([[2, 1], [0, 0]]).T), [1 / 10, 2.0], rtol=1e-15)


def test_dubiner_gram_small():
    # modest-degree orthogonality on both simplices by direct quadrature
    for dim, N in ((2, 5), (3, 4)):
        comps = enumerate_basis(N, dim)
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
        tab = _component_values(comps, pts)
        # any component rows, repeated or out of order, evaluate to the
        # matching rows of the basis matrix
        rows = np.r_[np.arange(len(tab))[::-3], 0, 0, len(tab) - 1, 4]
        assert np.array_equal(_component_values(comps[rows], pts), tab[rows])
        gram = (tab * w) @ tab.T
        diag = _norm_sq(*comps.T)
        assert_allclose(np.diag(gram), diag, rtol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-13


def test_dubiner_eval_base_cases():
    # psi_{p,0} on the bottom edge reduces to Legendre in xi1
    for p in range(4):
        for t in (-0.8, 0.1, 0.9):
            val = _component_values(np.array([[p, 0]]), np.array([[t, -1.0]]))[0, 0]
            assert_allclose(val, jacobi_eval(p, JacobiWeight(0.0, 0.0), t), rtol=1e-13)
    # psi_{0,0,r} depends only on xi3
    for r in range(3):
        val = _component_values(np.array([[0, 0, r]]), np.array([[-0.7, -0.5, -0.1]]))[0, 0]
        assert_allclose(val, jacobi_eval(r, JacobiWeight(2.0, 0.0), -0.1), rtol=1e-13)


def test_dubiner_eval_polynomial_on_closed_simplex():
    # singularity-free form: finite values on the collapsed vertex itself
    val = _component_values(np.array([[3, 2]]), np.array([[-1.0, 1.0]]))[0, 0]
    assert np.isfinite(val)


def test_analyze_synthesize_round_trip():
    rng = np.random.default_rng(11)
    # 3-D N=9 has several (p, q) that share one prefix sum p + q
    for dim, N in ((1, 4), (2, 4), (3, 4), (3, 9)):
        comps = enumerate_basis(N, dim)
        coeffs = rng.standard_normal(len(comps))
        raw = analyze(lambda x: synthesize(coeffs, comps, x), N, dim)
        assert_allclose(raw, coeffs, rtol=0, atol=1e-12)
        # a polynomial of degree N given by monomials, analyzed on the
        # collapsed grid, is reproduced at points off the grid
        powers = rng.integers(0, N // dim + 1, size=(5, dim))
        weights = rng.standard_normal(len(powers))

        def u(x):
            return (x[:, None, :] ** powers).prod(axis=2) @ weights

        # random points of the closed simplex: x = -1 + 2 (barycentric)
        pts = -1.0 + 2.0 * rng.dirichlet(np.ones(dim + 1), size=20)[:, :dim]
        got = synthesize(analyze(u, N, dim), comps, pts)
        assert got.shape == (20,)
        assert_allclose(got, u(pts), rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(u(pts)))))


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
            comps = enumerate_basis(N, dim)
            assert [tuple(c) for c in comps.tolist()] == want
            # the basis is its component array, read-only
            assert not comps.flags.writeable
            with pytest.raises(ValueError):
                comps[0, 0] = 1


def test_analyze_order_without_basis_objects():
    # rows follow enumerate_basis(N, dim), checked against raw inner
    # products from the basis matrix on the same collapsed grid
    f = lambda x: np.exp(0.7 * x[:, 0] - 0.4 * x.sum(axis=1)) + x[:, -1] ** 2
    oracles = {}
    for dim, N in ((1, 9), (2, 9), (3, 6)):
        m = _rule_size(N)
        pts = _collapsed_grid(dim, m)
        wts = reduce(np.multiply.outer, _axis_weights(dim, m)).ravel()
        oracles[dim, N] = _component_values(enumerate_basis(N, dim), pts) @ (wts * f(pts))

    for (dim, N), want in oracles.items():
        got = analyze(f, N, dim)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (dim, N)


def test_analyze_nests_in_its_degree():
    # the basis is graded, so on one rule the analysis at a lower degree is
    # the leading block of the analysis at a higher one, bit for bit
    f = lambda x: np.exp(0.7 * x[:, 0] - 0.4 * x.sum(axis=1)) + np.abs(x[:, -1] - 0.3) ** 1.5
    rules = ((60, 160), (33, 80), (20, 50))
    for dim in (1, 2, 3):
        # the 3-D grid on 160 points per direction is too large for a unit test
        for top, m in rules[dim // 3 :]:
            raw = analyze(f, top, dim, nodes=m)
            for N in (0, 1, top // 3, top - 1):
                assert np.array_equal(analyze(f, N, dim, nodes=m), raw[: math.comb(N + dim, dim)]), (dim, top, N)


def test_analyze_argument_checks():
    f = lambda x: np.ones(len(x))
    for N in (-1, True, 2.5):
        with pytest.raises(ParameterError, match="N must"):
            analyze(f, N, 2)
    for dim in (0, 4):
        with pytest.raises(ParameterError, match="dim must"):
            analyze(f, 3, dim)
    # a callback that does not return one value per point is refused by
    # every entry point that samples it
    for bad in (lambda x: 1.0, lambda x: np.ones(3), lambda x: x):
        with pytest.raises(ParameterError, match="shape"):
            analyze(bad, 4, 2)
        with pytest.raises(ParameterError, match="shape"):
            boundary_trace_parseval(bad, 2, N=12)
        with pytest.raises(ParameterError, match="shape"):
            _boundary_norm_direct(bad, 3)
        with pytest.raises(ParameterError, match="shape"):
            _trace_coefficient_sums(bad, [(1, 0)], [1])
    # nor one that returns a value that is not finite, at every point or one
    for bad in (
        lambda x: np.full(len(x), np.nan),
        lambda x: np.full(len(x), np.inf),
        lambda x: np.where(x[:, 0] > 0.0, -np.inf, 1.0),
    ):
        for call in (
            lambda: analyze(bad, 4, 2),
            lambda: analyze(bad, 3, 3),
            lambda: boundary_trace_parseval(bad, 2, N=12),
            lambda: _boundary_norm_direct(bad, 3),
            lambda: _trace_coefficient_sums(bad, [(1, 0)], [1]),
        ):
            with pytest.raises(ParameterError, match="finite"):
                call()
    # nor anything that is not a function
    for call in (
        lambda: analyze(3, 3, 2),
        lambda: boundary_trace_parseval(np.ones(3), 2, N=12),
        lambda: _boundary_norm_direct("f", 3),
        lambda: _trace_coefficient_sums(None, [(1, 0)], [1]),
    ):
        with pytest.raises(ParameterError, match="callable"):
            call()


def test_degree_arguments_must_be_integers():
    # a fraction or a bool is refused as p, q or N, like a negative value
    f = lambda x: np.exp(x.sum(axis=1))
    for bad in (1.5, True, -1):
        with pytest.raises(ParameterError, match="p must"):
            _trace_coefficient_sums(f, [(0, 0), (bad, 0)], [1])
        with pytest.raises(ParameterError, match="q must"):
            _trace_coefficient_sums(f, [(0, bad)], [1])
    for bad in (1.5, True, 0):
        with pytest.raises(ParameterError, match="N must"):
            _trace_coefficient_sums(f, [(0, 0)], [bad])
    # the 40-point line rule serves degrees up to 38, in p + q and in N
    _trace_coefficient_sums(f, [(38, 0)], [38])
    with pytest.raises(ParameterError, match=r"p \+ q must be <= 38"):
        _trace_coefficient_sums(f, [(0, 0), (20, 19)], [1])
    with pytest.raises(ParameterError, match="N must be <= 38"):
        _trace_coefficient_sums(f, [(0, 0)], [39])


def test_boundary_norm_direct_checks_dim():
    f = lambda x: np.exp(x.sum(axis=1))
    for dim in (1, 4):
        with pytest.raises(ParameterError, match="dim must"):
            _boundary_norm_direct(f, dim)


def test_synthesize_checks_its_point():
    # the closed simplex is accepted, its vertices included
    comps = enumerate_basis(3, 2)
    vals = synthesize(np.ones(len(comps)), comps, [[1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert vals.shape == (3,) and np.all(np.isfinite(vals))


def test_trace_coefficient_sums_constant():
    # f = 1 has the constant line function 2, the area of the triangle, at
    # (p, q) = (0, 0): its coefficients vanish from degree 1 up and its
    # derivative is zero, so both sides vanish to roundoff at every N
    (sums,) = _trace_coefficient_sums(lambda x: np.ones(len(x)), [(0, 0)], (1, 2, 3))
    assert len(sums) == 3
    for tail, short in sums:
        assert abs(tail) < 1e-12 and abs(short) < 1e-12
    # f = 1 + x3 has the line function 2 (1 + eta3), whose degree-1 term
    # alone makes the N = 1 sums -1
    (sums,) = _trace_coefficient_sums(lambda x: 1.0 + x[:, 2], [(0, 0)], (1, 2, 3))
    assert_allclose(sums, [(-1.0, -1.0), (0.0, 0.0), (0.0, 0.0)], rtol=0, atol=1e-12)


def test_trace_coefficient_sum_identity():
    fns = [
        lambda x: x[:, 2] ** 3,
        lambda x: x[:, 0] * x[:, 1] + 0.5 * x[:, 1] * x[:, 2] ** 2,
    ]
    pairs = ((0, 0), (1, 0), (1, 1))
    for fn in fns:
        for sums in _trace_coefficient_sums(fn, pairs, (1, 2, 3)):
            for tail, short in sums:
                assert_allclose(tail, short, rtol=0, atol=1e-10 * max(1.0, abs(tail)))


def test_trace_coefficient_sums_match_single_degree():
    # one line function for several N gives the bits of one call per N, and
    # one sample for several pairs the bits of one call per pair
    f = lambda x: (0.3 + x[:, 0] + 0.7 * x[:, 1] - 0.4 * x[:, 2]) ** 5
    for p, q in ((0, 0), (2, 1)):
        want = [_trace_coefficient_sums(f, [(p, q)], [N])[0][0] for N in (1, 2, 3)]
        assert _trace_coefficient_sums(f, [(p, q)], (1, 2, 3)) == [want]
    pairs = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1))
    want = [_trace_coefficient_sums(f, [pair], (1, 2, 3))[0] for pair in pairs]
    assert _trace_coefficient_sums(f, pairs, (1, 2, 3)) == want


def test_axis_factors_match_per_weight_tables():
    # every [s, :N-s+1] slab of the all-prefix tables has the bits of the
    # tables built for the one weight (2s+k, 0); the rest of the row is zero
    t, _ = _gl_nodes(11)
    half = (1.0 - t) / 2.0
    for k in range(3):
        for N in (0, 1, 7):
            got = _axis_factors(k, N, t, "UDX")
            sums = range(N + 1) if k else range(1)
            for kind in "VUDX":
                assert got[kind].shape == (len(sums), N + 1, t.size), (k, N, kind)
            for s in sums:
                weight = JacobiWeight(2.0 * s + k, 0.0)
                tab = _jacobi_table(N - s, weight, t)
                d = _deriv_table(N - s, weight, t)
                if s >= 1:
                    d = d * half**s - (s / 2.0) * tab * half ** (s - 1)
                want = {
                    "V": tab * half**s,
                    "U": tab * half ** (s - 1) if s >= 1 else np.zeros(tab.shape),
                    "D": d,
                    "X": (1.0 + t) * d,
                }
                for kind, ref in want.items():
                    assert np.array_equal(got[kind][s, : N - s + 1], ref), (k, N, s, kind)
                    assert not np.any(got[kind][s, N - s + 1 :]), (k, N, s, kind)


def test_mirror_basis_is_orthogonal_per_degree_slab():
    # one square slab per degree, orthogonal, labelled even and odd in turn
    for dim in (1, 2):
        for M in (0, 1, 6, 24, 48, 80, 110):
            slabs, even = _mirror_basis(M, dim)
            assert [len(W) for W in slabs] == [1 if dim == 1 else d + 1 for d in range(M + 1)]
            assert even.shape == (len(enumerate_basis(M, dim)),)
            for W in slabs:
                assert np.max(np.abs(W @ W.T - np.eye(len(W)))) <= 1e-12, (dim, M)
    assert np.array_equal(_mirror_basis(5, 1)[1], [True, False] * 3)
    with pytest.raises(ParameterError):
        _mirror_basis(4, 3)


def test_mirror_basis_is_even_or_odd_under_the_swap():
    # the new coordinate (d, p) of the triangle's basis takes (x, y) and
    # (y, x) to one value up to the sign (-1)^p; the interval's P_k takes
    # x and -x to one value up to (-1)^k
    rng = np.random.default_rng(7)
    for dim, M in ((1, 9), (2, 3), (2, 12), (2, 24)):
        comps = enumerate_basis(M, dim)
        pts = rng.uniform(-1.0, 1.0, (400, dim))
        pts = pts[pts.sum(axis=1) < 2.0 - dim]
        mirrored = -pts if dim == 1 else pts[:, ::-1]
        scale = 1.0 / np.sqrt(_norm_sq(*comps.T))[:, None]
        values, swapped = (scale * _component_values(comps, x) for x in (pts, mirrored))
        slabs, even = _mirror_basis(M, dim)
        start = 0
        for W in slabs:
            stop = start + len(W)
            sign = np.where(even[start:stop], 1.0, -1.0)[:, None]
            got, want = W @ swapped[start:stop], sign * (W @ values[start:stop])
            assert np.max(np.abs(got - want)) <= 1e-12, (dim, M, stop)
            start = stop


def test_boundary_parseval_constant():
    # f = 1: the bottom edge/face has measure 2 in both dimensions
    one = lambda x: np.ones(len(x))
    assert_allclose(boundary_trace_parseval(one, 2, N=12), 2.0, rtol=1e-12)
    assert_allclose(boundary_trace_parseval(one, 3, N=12), 2.0, rtol=1e-12)


def test_boundary_parseval_vs_direct():
    cases = [
        (2, lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1] + x[:, 0] ** 3),
        (3, lambda x: x[:, 0] * x[:, 2] + x[:, 1] ** 2),
    ]
    for dim, fn in cases:
        via_sum = boundary_trace_parseval(fn, dim, N=12)
        assert_allclose(via_sum, _boundary_norm_direct(fn, dim), rtol=1e-11)


def test_boundary_parseval_validation():
    one = lambda x: np.ones(len(x))
    for dim in (1, 4):
        with pytest.raises(ParameterError, match="dim must"):
            boundary_trace_parseval(one, dim, N=12)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(0, 5),
    q=st.integers(0, 5),
    e1=st.floats(-1.0, 1.0),
    e2=st.floats(-1.0, 0.999),
)
def test_dubiner_matches_collapsed_product(p, q, e1, e2):
    # away from the collapse, the basis equals the classical product form
    xi = np.array([[(1 + e1) * (1 - e2) / 2 - 1, e2]])
    got = _component_values(np.array([[p, q]]), xi)[0, 0]
    expect = (
        jacobi_eval(p, JacobiWeight(0.0, 0.0), e1)
        * ((1 - e2) / 2) ** p
        * jacobi_eval(q, JacobiWeight(2.0 * p + 1.0, 0.0), e2)
    )
    assert_allclose(got, expect, rtol=5e-12, atol=1e-12)
