import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import simplex_spectra
from simplex_spectra import cli, extremal, forms, identities, simplex
from simplex_spectra.cli import _TABLE_ROWS, _fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_round_trip_and_cap():
    assert _fmt(0.875) == "0.875"
    assert _fmt(1.0) == "1.0"
    assert float(_fmt(1.181849168039031)) == pytest.approx(1.181849168039031, abs=1e-12)
    assert len(_fmt(np.pi).replace("-", "").replace(".", "").lstrip("0")) <= 13


def test_table_rows_match_published_ranges():
    assert _TABLE_ROWS[1] == list(range(1, 6)) + list(range(10, 125, 5))
    assert _TABLE_ROWS[2] == list(range(1, 11)) + list(range(15, 60, 5))


def test_constants_interval_golden(capsys):
    code, out, err = run(capsys, "constants", "--dim", "1", "--n", "1..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,N,kind,value,iterations,residual"
    assert len(lines) == 5  # two kinds at N=1, two at N=2
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[:3] for r in rows] == [
        ["1", "1", "mult"],
        ["1", "1", "add_h1_denominator"],
        ["1", "2", "mult"],
        ["1", "2", "add_h1_denominator"],
    ]
    assert float(rows[0][3]) == pytest.approx(1.1818, abs=5e-4)
    assert rows[1][3] == "0.875"
    assert float(rows[2][3]) == pytest.approx(1.8298, abs=5e-4)
    assert int(rows[0][4]) >= 1
    assert float(rows[0][5]) <= 1e-12


def test_constants_triangle_has_three_kinds(capsys):
    code, out, _ = run(capsys, "constants", "--dim", "2", "--n", "1..1")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["mult", "add_h1_denominator", "h1_stability"]
    assert float(rows[0][3]) == pytest.approx(1.8417, abs=5e-4)
    assert float(rows[1][3]) == pytest.approx(1.4717, abs=5e-4)
    assert float(rows[2][3]) == pytest.approx(0.63072, abs=5e-4)


def test_constants_kind_filter(capsys):
    code, out, _ = run(capsys, "constants", "--dim", "1", "--n", "2", "--kinds", "add")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1 and ",add_h1_denominator," in rows[0]
    # the stability ratio is defined on the interval too, just not a default
    code, out, _ = run(capsys, "constants", "--dim", "1", "--n", "2", "--kinds", "h1")
    assert code == 0
    assert ",h1_stability," in out


def test_constants_byte_stable(capsys):
    argv = ("constants", "--dim", "1", "--n", "1..3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_constants_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "constants", "--dim", "1", "--n", "1", "--out", str(path))
    assert code == 0
    assert out == ""
    body = path.read_text()
    assert body.startswith("dim,N,kind,value,iterations,residual\n")
    assert ",mult," in body


def _negated_h1(monkeypatch):
    real = extremal._h1_blocks

    def negated(*args, **kwargs):
        orders, blocks, coupling = real(*args, **kwargs)
        return orders, [-F for F in blocks], coupling

    monkeypatch.setattr(extremal, "_h1_blocks", negated)


def test_constants_solver_failure_row(capsys, monkeypatch):
    _negated_h1(monkeypatch)
    code, out, err = run(capsys, "constants", "--dim", "1", "--n", "5")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "dim,N,kind,value,iterations,residual"
    assert lines[1] == "1,5,mult,error,0,nan"
    assert "solver failure at N=5 kind=mult" in err


def test_constants_failure_after_an_earlier_kind(capsys, monkeypatch):
    # the mult solver takes no Cholesky factor, so it prints its row before
    # the additive kind of the same N fails to factor the H1 form
    def no_factor(a, **kwargs):
        return a, 1

    monkeypatch.setattr(extremal, "dpotrf", no_factor)
    code, out, err = run(capsys, "constants", "--dim", "2", "--n", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,2,mult,") and ",error," not in lines[1]
    assert lines[2] == "2,2,add_h1_denominator,error,0,nan"
    assert "solver failure at N=2 kind=add_h1_denominator" in err
    assert "not positive definite" in err


def test_constants_row_assembles_each_form_once(capsys, monkeypatch):
    # count calls through every binding of each name, so that a call from
    # any module is seen; the edge factor is closed-form, not a trace form,
    # and the H1 form is assembled by one chunk loop straight into its
    # mirror blocks, never whole
    calls = {"h1_form": 0, "_h1_blocks": 0, "_gram_chunks": 0, "trace_form": 0}
    for module in (cli, extremal, forms):
        for name in calls:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "constants", "--dim", "2", "--n", "3..4")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 * 3
    assert calls == {"h1_form": 0, "_h1_blocks": 2, "_gram_chunks": 2, "trace_form": 0}


def test_verify_all_suites(capsys, monkeypatch):
    # the suite table looks each verify_* function up on cli when it runs,
    # so a name rebound there, as a counter or a tracer, sees its call
    names = (
        "verify_factor_identities",
        "verify_connection",
        "verify_weighted_antiderivative",
        "verify_deriv_representation",
        "verify_deriv_norm_bound",
        "verify_hardy",
        "verify_coefficient_bound",
    )
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert calls == dict.fromkeys(names, 1)
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 10
    for ln in lines:
        assert ln.endswith(" ok")
        assert "max residual" in ln


def test_verify_suites_take_no_input():
    # every sweep fixes its own corpus and extent, so neither a suite runner
    # nor an exported verify_* function has a parameter to pass one through
    verifiers = [getattr(identities, name) for name in identities.__all__ if name.startswith("verify_")]
    assert len(verifiers) == 7
    for fn in [runner for _, runner in cli._SUITES] + verifiers:
        assert not inspect.signature(fn).parameters, fn


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hardy")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("hardy:")


def test_verify_detects_seeded_defect(capsys, monkeypatch):
    # g2 off by 1e-6 breaks the g2-h2 ratio identity, which only that check
    # of the suite reads
    real = identities._g2
    monkeypatch.setattr(identities, "_g2", lambda q, a: real(q, a) + 1e-6)
    code, out, err = run(capsys, "verify", "--suite", "factor-identities")
    assert code == 1
    assert "FAIL" in out
    assert "  worst: ratio-g2-h2 at q=1, alpha=1" in out.splitlines()
    assert "failed suites: factor-identities" in err


def test_verify_fails_on_a_nan_residual(capsys, monkeypatch):
    # every g2-h2 ratio residual is NaN: the suite fails and names the
    # first of them, though the other checks of the sweep are finite
    real = identities._g2
    monkeypatch.setattr(identities, "_g2", lambda q, a: real(q, a) + math.nan)
    code, out, err = run(capsys, "verify", "--suite", "factor-identities")
    assert code == 1
    assert out.splitlines() == [
        "factor-identities: max residual nan (tol 1.0e-12) FAIL",
        "  worst: ratio-g2-h2 at q=1, alpha=0",
    ]
    assert "failed suites: factor-identities" in err


def _fail_every_suite(monkeypatch):
    # every report gets a tolerance of 1e-30, which no residual meets
    for module in (cli, identities):
        real = module._report
        monkeypatch.setattr(module, "_report", lambda name, tol, checks, real=real: real(name, 1e-30, checks))


def test_verify_failure_names_worst_components(capsys, monkeypatch):
    # the worst Gram entry is labelled by the component tuples of its row
    # and column
    _fail_every_suite(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "orthogonality")
    assert code == 1
    assert re.search(r"worst: gram-dim[23] at \([0-9, ]+\) x \([0-9, ]+\)$", out, re.M)


def test_every_failing_suite_names_its_worst_case(capsys, monkeypatch):
    # at a tolerance no residual meets, each FAIL line is followed by the
    # worst: line of its suite
    _fail_every_suite(monkeypatch)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    fails = [i for i, ln in enumerate(lines) if ln.endswith(" FAIL")]
    assert fails
    for i in fails:
        assert i + 1 < len(lines) and lines[i + 1].startswith("  worst: "), lines[i]


def test_finite_sum_samples_each_function_once(monkeypatch):
    # one sample of each of the three corpus functions serves all five
    # (p, q) pairs and every eta3 node
    calls = []
    real = simplex._sample
    monkeypatch.setattr(simplex, "_sample", lambda f, pts: calls.append(len(pts)) or real(f, pts))
    assert cli._suite_finite_sum().passed
    assert calls == [simplex._LINE_RULE**3] * 3


def test_orthogonality_worst_case_is_its_largest_residual(monkeypatch):
    # a Gram entry is the worst at the suite's rules; the degree-14 H1 form
    # moved by 1e-13 of itself makes a nesting check the worst
    report = cli._suite_orthogonality()
    key = max(report.details, key=report.details.get)
    assert key.startswith("gram-") and report.worst_case.startswith(key)
    real = forms.h1_form

    def moved(M, dim):
        form = real(M, dim)
        if M == 14:
            form = form * (1.0 + 1e-13)
        return form

    monkeypatch.setattr(forms, "h1_form", moved)
    report = cli._suite_orthogonality()
    assert max(report.details, key=report.details.get) == "nesting-h1-2d"
    assert report.worst_case == "nesting-h1-2d"


def test_constants_are_independent_of_the_h1_rule(capsys, monkeypatch):
    # the row's H1 rule, 2M + 6 Gauss points per direction, is exact for
    # the stiffness integrands: three more points per direction may move
    # the iteration and residual columns by roundoff, and no printed 2-D
    # value
    argv = ("constants", "--dim", "2", "--n", "1..12")
    _, default, _ = run(capsys, *argv)
    sizes, nodes = [], []
    real, real_nodes = forms._gram_chunks, forms._gl_nodes

    def recorded(M, dim, integrands):
        # the degree asked for, and the node count the assembly then takes
        nodes.clear()
        chunks = real(M, dim, integrands)
        sizes.append((M, *nodes))
        return chunks

    monkeypatch.setattr(forms, "_gram_chunks", recorded)
    monkeypatch.setattr(forms, "_gl_nodes", lambda m: nodes.append(m) or real_nodes(m))
    monkeypatch.setattr(forms, "_rule_size", lambda M: 2 * M + 9)
    code, widened, _ = run(capsys, *argv)
    assert code == 0
    assert sizes == [(2 * N, 4 * N + 9) for N in range(1, 13)]

    def values(out):
        return [line.split(",")[:4] for line in out.splitlines()]

    assert values(widened) == values(default)
    # a 1-D row takes its H1 form in closed form and assembles nothing by
    # quadrature
    sizes.clear()
    code, _, _ = run(capsys, "table", "1")
    assert code == 0 and sizes == []


def test_rates_polynomial(capsys):
    code, out, _ = run(capsys, "rates", "--family", "poly", "--n", "4..8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,N,error"
    assert lines[-1] == "poly,slope,nan"
    for ln in lines[1:-1]:
        family, N, err = ln.split(",")
        assert family == "poly"
        assert float(err) <= 1e-11


def test_rates_analytic_slope(capsys):
    code, out, _ = run(capsys, "rates", "--family", "analytic", "--n", "4..16")
    assert code == 0
    slope = float(out.strip().splitlines()[-1].split(",")[2])
    assert slope <= -3.0


def test_rates_independent_of_blas_threads():
    # OpenBLAS reads its thread count once, at load, so each count needs
    # its own process
    path = os.pathsep.join([str(Path(simplex_spectra.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    for argv, head in (
        (["rates", "--family", "hs:1.3", "--n", "4..60"], "family,N,error\n"),
        (["verify"], "factor-identities: "),
    ):
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            cmd = [sys.executable, "-m", "simplex_spectra.cli", *argv]
            outs.append(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
        assert outs[0].startswith(head), argv
        assert outs[0] == outs[1], argv


def test_rates_analyze_once_per_call(capsys, monkeypatch):
    # one analysis at the largest degree, on its 2N + 40 points, serves
    # every degree of the call
    seen = []
    real = extremal.analyze

    def recorded(u, N, dim, nodes=None):
        seen.append((N, nodes))
        return real(u, N, dim, nodes=nodes)

    monkeypatch.setattr(extremal, "analyze", recorded)
    code, _, _ = run(capsys, "rates", "--family", "analytic", "--n", "4..6")
    assert code == 0
    assert seen == [(6, 52)]


def test_largest_accepted_smoothness_runs_clean(capsys):
    # hs:360 and up are usage errors (test_usage_errors_exit_two): their
    # far-vertex value 8^(S/2) squares past the float range; the largest S
    # accepted runs with no overflow warning
    s = math.nextafter(cli._HS_MAX, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "rates", "--family", f"hs:{s!r}", "--n", "4..60")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 58 and all(math.isfinite(float(row[2])) for row in rows)


def test_usage_errors_exit_two(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "out.csv")
    bad_argvs = [
        ["constants", "--dim", "1", "--n", "5..2"],
        ["constants", "--dim", "3", "--n", "1..2"],
        ["constants", "--dim", "1", "--n", "0..2"],
        ["constants", "--dim", "1", "--n", "x"],
        ["constants", "--dim", "1", "--n", "2", "--kinds", "slope"],
        ["verify", "--suite", "no-such-suite"],
        ["rates", "--family", "hs:0.3", "--n", "4..8"],
        ["rates", "--family", "hs:inf", "--n", "4..8"],
        ["rates", "--family", "hs:1e400", "--n", "4..8"],
        ["rates", "--family", "hs:360", "--n", "4..6"],
        ["rates", "--family", "hs:700", "--n", "4..6"],
        ["rates", "--family", "weird", "--n", "4..8"],
        ["rates", "--family", "poly", "--n", "4..4"],
        ["rates", "--family", "poly", "--n", "7"],
        ["table", "3"],
        ["constants", "--dim", "1", "--n", "1..2", "--out", missing],
        ["table", "1", "--out", missing],
        ["rates", "--family", "poly", "--n", "4..8", "--out", missing],
        [],
    ]
    # every rule follows from its degree and takes no extra quadrature
    # points, verify injects no defect, and each suite keeps its own
    # tolerance
    unknown_argvs = [
        ["constants", "--dim", "1", "--n", "1", "--quad-safety", "1"],
        ["verify", "--quad-safety", "1"],
        ["table", "1", "--quad-safety", "1"],
        ["rates", "--family", "poly", "--n", "4..8", "--quad-safety", "1"],
        ["verify", "--perturb-h2", "nan"],
        ["verify", "--tol", "1e-3"],
    ]
    for argv in bad_argvs + unknown_argvs:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        if argv in unknown_argvs:
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err, argv
