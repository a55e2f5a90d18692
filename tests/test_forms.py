import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import point_eval_form, projection_form

from simplex_spectra import (
    ParameterError,
    SymmetricForm,
    analyze,
    enumerate_basis,
    h1_form,
    mass_form,
    trace_form,
)
from simplex_spectra import forms
from simplex_spectra.forms import _ROW_BLOCK, _scaling_vector
from simplex_spectra.simplex import _axis_factors, _boundary_rule, _dubiner_matrix, _gl_nodes, _norm_sq, _rule_size


def orthonormal_coeffs(f, M, dim):
    basis = enumerate_basis(M, dim)
    raw = analyze(f, M, dim)
    return raw / np.sqrt(_norm_sq(*basis.components.T))


def test_mass_is_identity():
    for dim, M in ((1, 12), (2, 9), (3, 6)):
        G = mass_form(M, dim)
        n = G.basis.cardinality
        assert G.basis.dim == dim and G.basis.N == M
        assert np.max(np.abs(G.entries - np.eye(n))) < 1e-12


def test_h1_constant_row_is_exact():
    # the constant has no gradient: row 0 is the identity's, with no
    # quadrature roundoff from a mass Gram
    for dim, M in ((1, 12), (2, 9), (3, 6)):
        H = h1_form(M, dim)
        e0 = np.zeros(H.basis.cardinality)
        e0[0] = 1.0
        assert np.array_equal(H.entries[0], e0), dim


def test_h1_interval_diagonal():
    # orthonormal Legendre: |phi_1'|^2 = 3, |phi_2'|^2 = 15
    H = h1_form(4, 1)
    assert_allclose(H.entries[1, 1], 4.0, rtol=1e-13)
    assert_allclose(H.entries[2, 2], 16.0, rtol=1e-13)
    assert abs(H.entries[0, 0] - 1.0) < 1e-13


def test_h1_triangle_vs_direct_integral():
    def u(x):
        return x[:, 0] ** 2 * x[:, 1]

    chat = orthonormal_coeffs(u, 8, 2)
    H = h1_form(8, 2)
    pts, w = _boundary_rule(3, 60)
    x1, x2 = pts[:, 0], pts[:, 1]
    direct = np.sum(w * ((x1**2 * x2) ** 2 + 4 * x1**2 * x2**2 + x1**4))
    assert_allclose(chat @ H.entries @ chat, direct, rtol=1e-12)


def test_h1_tetrahedron_vs_direct_integral():
    def u(x):
        return x[:, 0] * x[:, 2] + x[:, 1] ** 2

    chat = orthonormal_coeffs(u, 6, 3)
    H = h1_form(6, 3)
    t, wt = _gl_nodes(40)
    E1, E2, E3 = np.meshgrid(t, t, t, indexing="ij")
    W = (
        wt[:, None, None]
        * wt[None, :, None]
        * wt[None, None, :]
        * ((1 - t) / 2)[None, :, None]
        * (((1 - t) / 2) ** 2)[None, None, :]
    )
    X1 = (1 + E1) * (1 - E2) * (1 - E3) / 4 - 1
    X2 = (1 + E2) * (1 - E3) / 2 - 1
    X3 = E3
    uu = X1 * X3 + X2**2
    direct = np.sum(W * (uu**2 + X3**2 + 4 * X2**2 + X1**2))
    assert_allclose(chat @ H.entries @ chat, direct, rtol=1e-12)


def _tensor_grid_grams(M, dim, nodes):
    # brute force over the full tensor grid: each integrand is sampled at
    # every node from the per-axis tables, then summed with tensor weights
    basis = enumerate_basis(M, dim)
    t, w = _gl_nodes(nodes)
    # every factor kind on every axis, one row per basis function: the
    # table of its prefix sum at its own component on that axis
    comps = basis.components
    prefix = np.cumsum(comps, axis=1) - comps
    T = {}
    for k in range(dim):
        for kind, table in _axis_factors(k, M, t, "DUX").items():
            T[kind, k] = table[prefix[:, k], comps[:, k]]
    s = _scaling_vector(basis)
    axes = "ijl"[:dim]
    weights = [w * ((1 - t) / 2) ** k for k in range(dim)]
    W = np.einsum(",".join(axes) + "->" + axes, *weights).ravel()

    def grid(kinds):
        # kinds[k] is the kind of the axis-k factor
        f = np.einsum(",".join("k" + a for a in axes) + "->k" + axes, *(T[c, k] for k, c in enumerate(kinds)))
        return s[:, None] * f.reshape(len(s), -1)

    value, grads = {
        1: lambda: (grid("V"), [grid("D")]),
        2: lambda: (grid("VV"), [grid("DU"), grid("XU") / 2 + grid("VD")]),
        3: lambda: (
            grid("VVV"),
            [
                grid("DUU"),
                grid("XUU") / 2 + grid("VDU"),
                grid("XUU") / 2 + grid("VXU") / 2 + grid("VVD"),
            ],
        ),
    }[dim]()
    mass = (value * W) @ value.T
    return mass, mass + sum((g * W) @ g.T for g in grads)


def test_volume_grams_match_tensor_grid():
    # in 1-D this is the quadrature cross-check of the closed-form H1 Gram
    # (16, 2) and (8, 3) span more than one row block of the assembly, and
    # (10, 3) spans three, whose rows repeat (p, q) prefixes across blocks
    for M, dim in ((12, 1), (7, 2), (5, 3), (16, 2), (8, 3), (10, 3)):
        mass, h1 = _tensor_grid_grams(M, dim, _rule_size(M))
        for name, form, ref in (
            ("mass", mass_form(M, dim), mass),
            ("h1", h1_form(M, dim), h1),
        ):
            err = np.max(np.abs(form.entries - ref)) / np.max(np.abs(ref))
            assert err < 1e-13, (name, M, dim, err)
            # exactly symmetric, so that a reduction may read either triangle
            assert np.array_equal(form.entries, form.entries.T), (name, M, dim)


def test_h1_dominates_mass():
    for dim, M in ((1, 10), (2, 7), (3, 5)):
        H = h1_form(M, dim)
        G = mass_form(M, dim)
        lo = np.linalg.eigvalsh(H.entries - G.entries)[0]
        assert lo > -1e-10


def test_trace_edge_closed_form():
    # bottom-edge Gram over orthonormal functions: sum_p (2/(2p+1)) v_p v_p^T
    # with v_p supported on fixed p and signs (-1)^q from the edge restriction
    T = trace_form(6, 2)
    b = T.basis
    s = _scaling_vector(b)
    closed = np.zeros((b.cardinality, b.cardinality))
    for p in range(7):
        v = np.zeros(b.cardinality)
        for k, (pk, qk) in enumerate(b.components.tolist()):
            if pk == p:
                v[k] = (-1.0) ** qk * s[k]
        closed += (2.0 / (2 * p + 1)) * np.outer(v, v)
    assert np.max(np.abs(T.entries - closed)) < 1e-13


def test_bottom_trace_factor_matches_basis_values():
    # the bottom piece's Gram against the one from the full basis matrix on
    # the bottom rule's points (x_dim = -1), factor s * values * sqrt(w)
    for dim, M in ((2, 6), (2, 12), (3, 4), (3, 9)):
        T = trace_form(M, dim)
        pts, w = _boundary_rule(dim, _rule_size(M))
        want = _scaling_vector(T.basis)[:, None] * _dubiner_matrix(T.basis, pts) * np.sqrt(w)
        gram = want @ want.T
        err = np.max(np.abs(T.entries - gram)) / np.max(np.abs(gram))
        assert err < 1e-13, (dim, M, err)


def test_trace_of_constant_is_boundary_measure():
    # the bottom edge and the bottom face both have measure 2
    for dim, c0 in ((2, np.sqrt(2.0)), (3, np.sqrt(4.0 / 3.0))):
        T = trace_form(4, dim)
        c = np.zeros(T.basis.cardinality)
        c[0] = c0  # orthonormal coefficient of f = 1
        assert_allclose(c @ T.entries @ c, 2.0, rtol=1e-12)


def test_trace_gamma_validation():
    # only the triangle and the tetrahedron have the bottom piece Gamma
    for dim in (1, 4):
        with pytest.raises(ParameterError, match="dim 2 or 3"):
            trace_form(4, dim)


def test_point_eval_squares_endpoint_value():
    # u(x) = x^2 has u(1) = 1; quadratic form must return u(1)^2
    P = point_eval_form(4)
    chat = orthonormal_coeffs(lambda x: x[:, 0] ** 2, 4, 1)
    assert_allclose(chat @ P @ chat, 1.0, rtol=1e-12)


def test_projection_form_blocks():
    T = trace_form(6, 2)
    PB = projection_form(T.entries, T.basis, 3)
    degrees = T.basis.components.sum(axis=1)
    live = np.flatnonzero(degrees <= 3)
    dead = np.flatnonzero(degrees > 3)
    assert live.size == 10  # dim P_3(T^2)
    assert np.max(np.abs(PB[dead])) == 0.0
    assert np.max(np.abs(PB[:, dead])) == 0.0
    assert np.array_equal(PB[np.ix_(live, live)], T.entries[np.ix_(live, live)])


def test_quadrature_doubling_stability(monkeypatch):
    # default rule already integrates every assembled entry: doubling the
    # node count must not move any entry beyond roundoff
    cases = [(mass_form, 2, 6), (mass_form, 3, 5), (h1_form, 2, 7), (h1_form, 3, 5), (trace_form, 2, 6)]
    default = [build(M, dim).entries for build, dim, M in cases]
    monkeypatch.setattr(forms, "_rule_size", lambda M: 2 * (2 * M + 6))
    for (build, dim, M), A in zip(cases, default):
        B = build(M, dim).entries
        scale = np.max(np.abs(A)) if build is h1_form else 1.0
        assert np.max(np.abs(A - B)) / scale < 1e-12, (build.__name__, dim, M)


def test_form_validation():
    basis = enumerate_basis(2, 1)
    n = basis.cardinality
    good = np.eye(n)
    SymmetricForm(basis=basis, entries=good)
    bad = good.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ParameterError):
        SymmetricForm(basis=basis, entries=bad)
    with pytest.raises(ParameterError):
        SymmetricForm(basis=basis, entries=np.eye(n + 1))
    with pytest.raises(ParameterError):
        mass_form(-1, 2)


def test_symmetry_check_covers_every_block():
    # more rows than one block, so the last block is a partial one
    basis = enumerate_basis(19, 2)
    n = basis.cardinality
    assert _ROW_BLOCK < n < 2 * _ROW_BLOCK
    # the scale is the largest magnitude, here that of a negative entry
    good = -1e3 * np.eye(n)
    SymmetricForm(basis=basis, entries=good)
    for i, j in ((n - 1, n - 2), (n - 3, 3), (3, n - 3), (5, 2), (0, _ROW_BLOCK)):
        bad = good.copy()
        bad[i, j] += 1e-9
        with pytest.raises(ParameterError, match="not symmetric"):
            SymmetricForm(basis=basis, entries=bad)
        # a skew under 1e-13 of the scale is roundoff, and is accepted
        bad[i, j] = good[i, j] + 1e-11
        SymmetricForm(basis=basis, entries=bad)


def test_symmetric_form_rejects_non_finite_entries():
    # a NaN fails every comparison, so the symmetry check alone lets it by
    basis = enumerate_basis(2, 1)
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.eye(3)
        entries[1, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            SymmetricForm(basis=basis, entries=entries)
