"""The benchmark's workloads: what each runs and how its outputs are checked.

Each workload is a list of items. An item is one call into the package's
public entry points (``simplex_spectra.cli.main`` or an ``extremal``
function) plus a check that turns its output into named pass/fail checks.
Every check counts as one attempted operation.

- interval-table: the ``table 1`` row set (dim 1, mult and add, N = 1..5 and
  10..120 step 5). Bound by the dense eigensolves of the 1-D fixed point;
  form assembly is under 1% of it.
- triangle-rows: dim 2, all three kinds, N in {8, 12, 16, 20, 24}. Bound by
  form assembly and memory, and it straddles the card >= 600 switch between
  the dense and the factored pencil (N=16 dense, N=20 factored).
- verify-rates: all ten ``verify`` suites plus boundary error rates for the
  poly, analytic and hs:S families. Analysis direction only (sample, then
  contract): no large forms, no eigensolves. The control for solver and
  assembly changes.

Only verify-rates has free inputs: the seed draws the smoothness S of the
hs family and the direction of the analytic function. The constant rows
are fixed by the published tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import reference as ref
from simplex_spectra import cli, extremal

# Checks that fail at the commit that added the benchmark because of a known
# program defect. They count as failed operations (and lower pass_frac), but
# do not make the run incorrect; a fix turns them into passes.
KNOWN_DEFECTS = {
    # ROADMAP item 0: trace_error_rate fits the roundoff plateau
    "rates-analytic:slope": "analytic rate slope sits on the roundoff plateau",
}

_KIND_COLUMNS = ("mult", "add_h1_denominator", "h1_stability")


@dataclass(frozen=True)
class Item:
    name: str
    layer: str  # layer of the entry point, for the item's top-level span
    op: str
    fn: object
    args: tuple
    check: object  # (return value, captured stdout) -> [(label, ok)]


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def _check_constants(expected, dim: int):
    """expected: {(N, kind): (reference value, tolerance)}."""

    def check(rc, text):
        got = {}
        for row in _csv_rows(text, "dim,N,kind,value,iterations,residual") or []:
            if len(row) == 6 and row[0] == str(dim):
                got[(int(row[1]), row[2])] = row[3]
        out = [(f"dim{dim}:exit", rc == 0)]
        for (N, kind), (want, tol) in expected.items():
            try:
                ok = abs(float(got[(N, kind)]) - want) <= tol
            except (KeyError, ValueError):
                ok = False
            out.append((f"dim{dim}:N{N}:{kind}", ok))
        return out

    return check


def _interval_expected():
    expected = {}
    for table, tol in ((ref.INTERVAL_PUBLISHED, ref.TABLE_TOL), (ref.INTERVAL_RECORDED, ref.RECORDED_TOL)):
        for N, values in table.items():
            for kind, value in zip(_KIND_COLUMNS, values):
                expected[(N, kind)] = (value, tol)
    for key, value in ref.INTERVAL_SPOT.items():
        expected[key] = (value, ref.SPOT_TOL)
    return expected


def _interval_table(seed: int):
    return [
        Item("table-1", "cli", "main", cli.main, (["table", "1"],), _check_constants(_interval_expected(), 1))
    ]


def _triangle_rows(seed: int):
    items = []
    for N in (8, 12, 16, 20, 24):
        if N in ref.TRIANGLE_PUBLISHED:
            values, tol = ref.TRIANGLE_PUBLISHED[N], ref.TABLE_TOL
        else:
            values, tol = ref.TRIANGLE_RECORDED[N], ref.RECORDED_TOL
        expected = {(N, kind): (v, tol) for kind, v in zip(_KIND_COLUMNS, values)}
        argv = ["constants", "--dim", "2", "--n", f"{N}..{N}"]
        items.append(Item(f"triangle-N{N}", "cli", "main", cli.main, (argv,), _check_constants(expected, 2)))
    return items


_SUITES = (
    "factor-identities",
    "connection",
    "weighted-antiderivative",
    "deriv-representation",
    "deriv-norm-bound",
    "hardy",
    "coefficient-bound",
    "orthogonality",
    "finite-sum",
    "trace-parseval",
)


def _check_verify(rc, text):
    status = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": max residual ")
        if sep:
            status[name] = rest.endswith(" ok")
    return [("verify:exit", rc == 0)] + [(f"verify:{name}", status.get(name, False)) for name in _SUITES]


def _rate_rows(text: str, family: str):
    errors, slope = [], None
    for row in _csv_rows(text, "family,N,error") or []:
        if len(row) == 3 and row[0] == family:
            if row[1] == "slope":
                slope = float(row[2])
            else:
                errors.append((int(row[1]), float(row[2])))
    return errors, slope


def _check_poly(n_range):
    def check(rc, text):
        errors, _ = _rate_rows(text, "poly")
        ok = [n for n, _ in errors] == list(n_range) and all(e <= ref.POLY_RATE_TOL for _, e in errors)
        return [("rates-poly:exit", rc == 0), ("rates-poly:errors", ok)]

    return check


def _check_hs(family: str, s: float, n_range):
    # the boundary error of a vertex singularity of order s decays at least
    # like N^-(s+1) (observed: about N^-(2s+1)) and strictly monotonically
    def check(rc, text):
        errors, slope = _rate_rows(text, family)
        errs = [e for _, e in errors]
        ok = (
            [n for n, _ in errors] == list(n_range)
            and all(b < a for a, b in zip(errs, errs[1:]))
            and slope is not None
            and slope <= -(s + 1.0)
        )
        return [("rates-hs:exit", rc == 0), ("rates-hs:rate", ok)]

    return check


def _check_analytic(result, text):
    ok = result is not None and result[1] <= ref.ANALYTIC_SLOPE_MAX
    return [("rates-analytic:slope", ok)]


def seeded_inputs(seed: int):
    """The free inputs of verify-rates: (S of hs:S, analytic direction)."""
    rng = random.Random(seed)
    s = round(rng.uniform(1.1, 1.9), 2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return s, theta


def _verify_rates(seed: int):
    s, theta = seeded_inputs(seed)
    a, b = math.sqrt(2.0) * math.cos(theta), math.sqrt(2.0) * math.sin(theta)

    def analytic(x):
        return np.exp(a * x[:, 0] + b * x[:, 1])

    poly_n, hs_n, analytic_n = range(4, 61), range(4, 61), range(4, 41)
    family = f"hs:{s}"
    return [
        Item("verify", "cli", "main", cli.main, (["verify"],), _check_verify),
        Item(
            "rates-poly", "cli", "main", cli.main,
            (["rates", "--family", "poly", "--n", "4..60"],), _check_poly(poly_n),
        ),
        Item(
            "rates-hs", "cli", "main", cli.main,
            (["rates", "--family", family, "--n", "4..60"],), _check_hs(family, s, hs_n),
        ),
        Item(
            "rates-analytic", "extremal", "rates", extremal.trace_error_rate,
            (analytic, list(analytic_n)), _check_analytic,
        ),
    ]


WORKLOADS = {
    "interval-table": _interval_table,
    "triangle-rows": _triangle_rows,
    "verify-rates": _verify_rates,
}
