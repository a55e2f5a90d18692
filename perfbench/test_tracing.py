"""Checks of the benchmark's own tracing; run from the repository root:

    python3 -m pytest perfbench/test_tracing.py
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Item, _check_constants  # noqa: E402
from simplex_spectra import cli  # noqa: E402


def _bound_names():
    out = {}
    for mod_name, attr, _, _ in tracing.BOUNDARIES:
        module = importlib.import_module(f"simplex_spectra.{mod_name}")
        out[(mod_name, attr)] = getattr(module, attr)
    return out


def _small_items():
    expected = {(2, "mult"): (1.8298, 5e-4), (2, "add_h1_denominator"): (1.1436, 5e-4)}
    return [
        Item("small", "cli", "main", cli.main, (["constants", "--dim", "1", "--n", "2..2"],),
             _check_constants(expected, 1)),
        Item("verify", "cli", "main", cli.main, (["verify", "--suite", "trace-parseval"],),
             lambda rc, text: [("verify:exit", rc == 0)]),
    ]


def test_every_boundary_name_exists():
    assert all(fn is not None for fn in _bound_names().values())


def test_traced_pass_restores_every_wrapped_name():
    before = _bound_names()
    wall, checks, hit, tracer, unrestored = worker.traced_pass(_small_items())
    assert unrestored == []
    after = _bound_names()
    assert all(after[key] is before[key] for key in before)
    assert all(ok for _, ok in checks)
    assert tracer.spans and tracer.fp_iters >= 1
    assert 0.0 < hit <= 1.0


def test_an_item_that_raises_fails_its_checks():
    usage = Item("usage", "cli", "main", cli.main, (["constants", "--dim", "1", "--n", "x"],),
                 _check_constants({(1, "mult"): (1.1818, 5e-4)}, 1))
    _, checks, _, _, unrestored = worker.traced_pass([usage])
    assert unrestored == []
    assert checks == [("dim1:exit", False), ("dim1:N1:mult", False)]


def test_names_are_restored_when_the_traced_pass_raises():
    before = _bound_names()

    def broken_check(rc, text):
        raise RuntimeError("check failed to run")

    item = Item("small", "cli", "main", cli.main, (["constants", "--dim", "1", "--n", "1..1"],),
                broken_check)
    with pytest.raises(RuntimeError):
        worker.traced_pass([item])
    after = _bound_names()
    assert all(after[key] is before[key] for key in before)


def test_counts_repeat_and_self_times_partition_the_pass():
    items = _small_items()
    _, _, hit_a, a, _ = worker.traced_pass(items)
    _, _, hit_b, b, _ = worker.traced_pass(items)
    (ma, _), (mb, _) = worker.layer_metrics(a, hit_a), worker.layer_metrics(b, hit_b)
    assert all(ma[k] == mb[k] for k in worker.EXACT_COUNTS)
    top = sum(s[6] - s[5] for s in a.spans if s[1] < 0) * 1e-9
    self_total = sum(tracing.aggregate(a.spans)["self_s"].values())
    assert self_total == pytest.approx(top, rel=1e-9)
