"""End-to-end gate: published constants, identity residuals, orthogonality,
projection correctness, and boundary convergence rates."""

import time

import numpy as np
import pytest
from oracles import synthesize

from simplex_spectra import (
    analyze,
    enumerate_basis,
    h1_form,
    mass_form,
    row_constants,
    trace_error_rate,
    trace_form,
)
from simplex_spectra import forms
from simplex_spectra.cli import _SUITES, _TABLE_ROWS
from simplex_spectra.identities import verify_deriv_norm_bound
from simplex_spectra.simplex import _component_values, _gl_nodes, _norm_sq

# published 4-decimal interval constants: N -> (mult, add)
INTERVAL_TABLE = {
    1: (1.1818, 0.8750),
    2: (1.8298, 1.1436),
    3: (2.1527, 1.1507),
    4: (2.3410, 1.1353),
    5: (2.4594, 1.1199),
    10: (2.7219, 1.0826),
    15: (2.8221, 1.0685),
    20: (2.8740, 1.0611),
    25: (2.9051, 1.0565),
    30: (2.9254, 1.0534),
    35: (2.9394, 1.0512),
    40: (2.9497, 1.0495),
    45: (2.9574, 1.0481),
    50: (2.9633, 1.0471),
}

# published triangle constants: N -> (mult, add, h1 stability)
TRIANGLE_TABLE = {
    1: (1.8417, 1.4717, 0.63072),
    2: (2.4820, 1.7051, 0.53460),
    3: (2.8401, 1.7157, 0.50256),
    4: (3.0694, 1.6988, 0.46983),
    5: (3.2214, 1.6814, 0.45149),
    6: (3.3282, 1.6683, 0.44284),
    7: (3.4079, 1.6585, 0.43994),
    8: (3.4701, 1.6508, 0.43835),
    9: (3.5203, 1.6448, 0.43732),
    10: (3.5619, 1.6398, 0.43664),
    15: (3.6957, 1.6244, 0.43502),
    20: (3.7681, 1.6165, 0.43421),
}

TABLE_TOL = 5e-4

# every `table 1` row at full precision, recorded when the interval H1 form
# was still assembled by Gauss quadrature: N -> (mult, its iterations, add);
# add takes one iteration. The mult iterations are those of the interpolation
# search at one BLAS thread; an adaptive search sees the last bits of the
# reduction, which move with the thread count, and at N = 80 it takes 12 at
# two threads
TABLE_1_ROWS = {
    1: (1.1818491680390308, 8, 0.875),
    2: (1.829821129796034, 8, 1.143612831677179),
    3: (2.1527076837258896, 8, 1.150720482618526),
    4: (2.341062597186098, 9, 1.1353860086456757),
    5: (2.4594899125641034, 9, 1.1199278838831652),
    10: (2.7219766887903236, 9, 1.08267283507986),
    15: (2.8221038805363596, 10, 1.0685338160547813),
    20: (2.8740641622395517, 9, 1.0611106476488639),
    25: (2.9051245564511423, 9, 1.0565383438049565),
    30: (2.925403102563975, 10, 1.053439542900186),
    35: (2.9394815034674497, 10, 1.0512009237149382),
    40: (2.9497112929622715, 10, 1.0495080255019171),
    45: (2.957411396702178, 10, 1.0481829997612753),
    50: (2.963372797891442, 10, 1.047117698796473),
    55: (2.9680954780116195, 11, 1.0462425796382586),
    60: (2.971909204711488, 11, 1.04551089085116),
    65: (2.9750392613174843, 11, 1.044890043190268),
    70: (2.9776441721145415, 11, 1.0443566247746838),
    75: (2.9798383378140687, 11, 1.0438933831821453),
    80: (2.981706138001646, 11, 1.0434873249076602),
    85: (2.983311006218589, 12, 1.0431284776059895),
    90: (2.984701436451424, 12, 1.0428090602800826),
    95: (2.98591505801317, 12, 1.0425229127259754),
    100: (2.9869814610793637, 12, 1.0422650944146332),
    105: (2.9879241944864994, 12, 1.0420315968768554),
    110: (2.9887622032210506, 11, 1.0418191338090215),
    115: (2.9895108791907594, 11, 1.0416249854535826),
    120: (2.990182840423456, 11, 1.041446881557605),
}


# every triangle row N = 1..20 at full precision, recorded before the
# bracket of the mult search was set without an eigensolve:
# N -> (mult, its iterations, add, h1 stability); the additive kinds take
# one iteration each. As for TABLE_1_ROWS, the iterations are those at one
# BLAS thread
TABLE_2_ROWS = {
    1: (1.841709179901962, 8, 1.4717181304388798, 0.6307656826568263),
    2: (2.4820082608660514, 9, 1.7051221810476975, 0.5346057877464929),
    3: (2.8401876616606847, 9, 1.715716151553368, 0.5025638922274219),
    4: (3.0694993434008913, 9, 1.6988177945454745, 0.4698375382416512),
    5: (3.2214096444428444, 9, 1.6814560185436414, 0.4514905489817917),
    6: (3.3282273448608235, 8, 1.6683769744008496, 0.4428417774764216),
    7: (3.4079092782346794, 9, 1.6585189241264682, 0.4399475157440342),
    8: (3.470131098161665, 10, 1.6508837025580139, 0.4383575978122089),
    9: (3.5203813270943076, 9, 1.6448026617530087, 0.4373243089253432),
    10: (3.5619742050231515, 10, 1.6398470703851222, 0.4366490575436023),
    11: (3.597047215946522, 10, 1.6357320613171733, 0.43616296240434566),
    12: (3.6270554031221542, 10, 1.632261308353422, 0.4357952227773219),
    13: (3.653032616328413, 10, 1.6292951228537658, 0.4354979025865943),
    14: (3.6757397319995144, 10, 1.6267314076376165, 0.43524741752602647),
    15: (3.6957519657765836, 9, 1.6244938144721117, 0.4350284833849067),
    16: (3.7135143791542378, 10, 1.6225241140950568, 0.4348331523020309),
    17: (3.729377544445324, 10, 1.6207771275165532, 0.4346562129265059),
    18: (3.743622134346895, 10, 1.619217268307182, 0.4344949156397167),
    19: (3.7564757491817344, 10, 1.6178161284531767, 0.4343473607502085),
    20: (3.7681252007200787, 10, 1.6165507579115346, 0.4342125318666885),
}


@pytest.fixture(scope="module")
def interval_rows():
    t0 = time.perf_counter()
    rows = {
        N: tuple(r.value for r in row_constants(N, 1, ("mult", "add_h1_denominator")))
        for N in INTERVAL_TABLE
    }
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def triangle_rows():
    """N -> the row's records (mult, add, h1) for N = 1..20, and the time
    each row took."""
    rows, times = {}, {}
    for N in TABLE_2_ROWS:
        t0 = time.perf_counter()
        rows[N] = tuple(row_constants(N, 2))
        times[N] = time.perf_counter() - t0
    return rows, times


def test_interval_constants_match_published_values(interval_rows):
    rows, elapsed = interval_rows
    for N, (mult, add) in INTERVAL_TABLE.items():
        assert abs(rows[N][0] - mult) <= TABLE_TOL, f"mult at N={N}"
        assert abs(rows[N][1] - add) <= TABLE_TOL, f"add at N={N}"
    assert elapsed < 5.0


def test_interval_extended_precision_values(interval_rows):
    rows, _ = interval_rows
    assert abs(rows[1][0] - 1.181849168039031) <= 1e-11
    assert abs(rows[1][1] - 0.875) <= 1e-8
    v120 = next(row_constants(120, 1, ("mult",))).value
    assert abs(v120 - 2.99018284042270) <= 1e-8


def test_table_1_rows_match_recorded_values():
    assert list(TABLE_1_ROWS) == _TABLE_ROWS[1]
    for N, (mult, its, add) in TABLE_1_ROWS.items():
        got = list(row_constants(N, 1, ("mult", "add_h1_denominator")))
        assert [r.kind for r in got] == ["mult", "add_h1_denominator"]
        assert abs(got[0].value - mult) <= 1e-11 * mult, N
        assert abs(got[1].value - add) <= 1e-11 * add, N
        assert abs(got[0].iterations - its) <= 1 and got[1].iterations == 1, N


def test_triangle_constants_match_published_values(triangle_rows):
    rows, times = triangle_rows
    for N, expect in TRIANGLE_TABLE.items():
        got = rows[N]
        for col in range(3):
            assert abs(got[col].value - expect[col]) <= TABLE_TOL, f"column {col} at N={N}"
    assert times[20] < 180.0


def test_table_2_rows_match_recorded_values(triangle_rows):
    rows, _ = triangle_rows
    assert list(TABLE_2_ROWS) == list(range(1, 21))
    for N, (mult, its, add, h1) in TABLE_2_ROWS.items():
        got = rows[N]
        assert [r.kind for r in got] == ["mult", "add_h1_denominator", "h1_stability"]
        for rec, want in zip(got, (mult, add, h1)):
            assert abs(rec.value - want) <= 1e-11 * want, (N, rec.kind)
        assert abs(got[0].iterations - its) <= 1, N
        assert got[1].iterations == got[2].iterations == 1, N


def test_identity_suites_within_tolerance():
    wanted = (
        "factor-identities",
        "weighted-antiderivative",
        "deriv-representation",
        "connection",
        "finite-sum",
        "trace-parseval",
    )
    t0 = time.perf_counter()
    reports = {name: fn() for name, fn in _SUITES if name in wanted}
    elapsed = time.perf_counter() - t0
    assert set(reports) == set(wanted)
    for name, report in reports.items():
        assert report.max_residual <= 1e-10, name
    assert elapsed < 30.0


def test_tetrahedron_gram_is_diagonal():
    comps = enumerate_basis(6, 3)
    t, wt = _gl_nodes(18)
    E = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    w = (
        (wt[:, None, None] * wt[None, :, None] * wt[None, None, :]).ravel()
        * (1 - E[:, 1])
        / 2
        * ((1 - E[:, 2]) / 2) ** 2
    )
    pts = np.column_stack(
        [
            (1 + E[:, 0]) * (1 - E[:, 1]) * (1 - E[:, 2]) / 4 - 1,
            (1 + E[:, 1]) * (1 - E[:, 2]) / 2 - 1,
            E[:, 2],
        ]
    )
    tab = _component_values(comps, pts)
    gram = (tab * w) @ tab.T
    expect = _norm_sq(*comps.T)
    assert np.max(np.abs(np.diag(gram) - expect)) <= 1e-11
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-11


def test_quadrature_doubling_is_inert(monkeypatch):
    # the default rule already integrates every assembled entry exactly:
    # doubling its node count must not move any entry beyond roundoff
    defaults = {}
    for dim, M in ((2, 8), (3, 6)):
        defaults["mass", dim, M] = mass_form(M, dim)
    for dim, M in ((2, 7), (3, 5)):
        defaults["h1", dim, M] = h1_form(M, dim)
    defaults["trace", 2, 6] = trace_form(6, 2)
    monkeypatch.setattr(forms, "_rule_size", lambda M: 2 * (2 * M + 6))
    for dim, M in ((2, 8), (3, 6)):
        a = defaults["mass", dim, M]
        b = mass_form(M, dim)
        assert np.max(np.abs(a - b)) <= 1e-12
    for dim, M in ((2, 7), (3, 5)):
        a = defaults["h1", dim, M]
        b = h1_form(M, dim)
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) <= 1e-12
    a = defaults["trace", 2, 6]
    b = trace_form(6, 2)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_forms_nest_in_their_degree():
    # the graded orthonormal basis is hierarchical, so the degree-M form is
    # the leading block of the degree-2M form, which its larger rule
    # assembles: every rule integrates its entries exactly, up to roundoff
    for build, M, dim in (
        (mass_form, 6, 2),
        (mass_form, 5, 3),
        (h1_form, 7, 2),
        (h1_form, 5, 3),
        (trace_form, 6, 2),
    ):
        A = build(M, dim)
        n = len(A)
        B = build(2 * M, dim)[:n, :n]
        err = np.max(np.abs(A - B)) / max(np.max(np.abs(A)), 1.0)
        assert err < 1e-12, (build.__name__, M, dim, err)


def test_inequality_suite(interval_rows, triangle_rows):
    report = verify_deriv_norm_bound()
    assert report.passed and report.max_residual < 0
    hardy = dict(_SUITES)["hardy"]()
    assert hardy.passed
    rows_2d, _ = triangle_rows
    assert all(v[0].value <= 4.0 for v in rows_2d.values())
    rows_1d, _ = interval_rows
    assert all(v[0] <= 3.0 + 1e-3 for v in rows_1d.values())


def test_projection_reproduces_polynomials():
    rng = np.random.default_rng(20)
    for dim in (1, 2, 3):
        for N in range(1, 7):
            comps = enumerate_basis(N, dim)
            scale = np.sqrt(_norm_sq(*comps.T))
            for _ in range(17):
                c = rng.standard_normal(len(comps))
                # c holds orthonormal coefficients; c * scale the raw ones
                v = lambda x: synthesize(c * scale, comps, x)
                chat = analyze(v, N, dim) / scale
                assert np.max(np.abs(chat - c)) <= 1e-11


def test_projection_matches_normal_equations():
    # oracle: least squares against raw monomials via normal equations
    N, dim = 3, 2
    f = lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1])
    t, wt = _gl_nodes(40)
    E1, E2 = np.meshgrid(t, t, indexing="ij")
    w = (wt[:, None] * wt[None, :]).ravel() * ((1 - E2.ravel()) / 2)
    pts = np.column_stack(
        [(1 + E1.ravel()) * (1 - E2.ravel()) / 2 - 1, E2.ravel()]
    )
    powers = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]
    mono = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in powers])
    A = (mono * w) @ mono.T
    b = (mono * w) @ f(pts)
    coef = np.linalg.solve(A, b)

    comps = enumerate_basis(N, dim)
    raw = analyze(f, N, dim)

    rng = np.random.default_rng(4)
    eta = rng.uniform(-1, 0.9, size=(30, 2))
    test_pts = np.column_stack(
        [(1 + eta[:, 0]) * (1 - eta[:, 1]) / 2 - 1, eta[:, 1]]
    )
    oracle_vals = coef @ np.array(
        [test_pts[:, 0] ** a * test_pts[:, 1] ** b for a, b in powers]
    )
    proj_vals = synthesize(raw, comps, test_pts)
    assert np.max(np.abs(proj_vals - oracle_vals)) <= 1e-10


def test_boundary_error_rates():
    rows, slope, _ = trace_error_rate(
        lambda x: np.exp(x[:, 0] + x[:, 1]), list(range(4, 17, 2))
    )
    assert slope <= -3.0
    rows, _, _ = trace_error_rate(
        lambda x: (0.25 + x[:, 0] + 0.5 * x[:, 1]) ** 3, [4, 6, 8]
    )
    for _, err in rows:
        assert err <= 1e-11
