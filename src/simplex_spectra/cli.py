"""Command line driver: constant tables, verification suites, rate runs.

Output contract: CSV with header ``dim,N,kind,value,iterations,residual``,
floats printed as the shortest round-trip representation capped at 12
significant digits, rows ordered by N then by a fixed kind order. Exit
codes: 0 success, 1 verification or solver failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .errors import NumericError
from .extremal import _DIMS, _KINDS, row_constants, trace_error_rate
from .forms import h1_form, mass_form, trace_form
from .identities import (
    VerificationReport,
    _report,
    expand_pair,
    verify_coefficient_bound,
    verify_connection,
    verify_deriv_norm_bound,
    verify_deriv_representation,
    verify_factor_identities,
    verify_hardy,
    verify_weighted_antiderivative,
)
from .simplex import _boundary_norm_direct, _trace_coefficient_sums, boundary_trace_parseval

_CSV_HEADER = "dim,N,kind,value,iterations,residual"
_KIND_TOKENS = {
    "mult": "mult",
    "add": "add_h1_denominator",
    "add_h1_denominator": "add_h1_denominator",
    "h1": "h1_stability",
    "h1_stability": "h1_stability",
}
_TABLE_ROWS = {
    1: list(range(1, 6)) + list(range(10, 125, 5)),
    2: list(range(1, 11)) + list(range(15, 60, 5)),
}


def _fmt(x: float) -> str:
    text = repr(float(x))
    digits = text.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    if len(digits) <= 12:
        return text
    return f"{float(x):.12g}"


def _parse_range(text: str, parser: argparse.ArgumentParser):
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        parser.error(f"range must look like A..B with integers, got {text!r}")
    if a < 1 or b < a:
        parser.error(f"need 1 <= A <= B, got {text!r}")
    return a, b


def _parse_kinds(text: str | None, dim: int, parser: argparse.ArgumentParser):
    if text is None:
        kinds = ["mult", "add_h1_denominator"] + (["h1_stability"] if dim == 2 else [])
        return tuple(kinds)
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in _KIND_TOKENS:
            parser.error(f"unknown kind {token!r} (choose from mult, add, h1)")
        out.append(_KIND_TOKENS[token])
    return tuple(dict.fromkeys(out))


@contextlib.contextmanager
def _output(path: str | None, parser: argparse.ArgumentParser):
    """The CSV stream: stdout, or the file at ``path``, opened before any
    work so that a path that cannot be written is a usage error."""
    if not path:
        yield sys.stdout
        return
    try:
        stream = open(path, "w")
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")
    with stream:
        yield stream


def _emit_constants(dim: int, kinds, ns, stream) -> int:
    print(_CSV_HEADER, file=stream)
    for N in ns:
        pending = [kind for kind in _KINDS if kind in kinds]
        try:
            for rec in row_constants(N, dim, pending):
                print(
                    f"{rec.dim},{rec.N},{rec.kind},{_fmt(rec.value)},"
                    f"{rec.iterations},{_fmt(rec.residual)}",
                    file=stream,
                )
                pending.pop(0)
        except NumericError as exc:
            print(f"{dim},{N},{pending[0]},error,0,nan", file=stream)
            print(f"solver failure at N={N} kind={pending[0]}: {exc}", file=sys.stderr)
            return 1
    return 0


# verification suite corpora (fixed, no randomness: output must be byte-stable)

def _pair_corpus():
    specs = [
        (np.exp, np.exp, 0, 24),
        (lambda x: np.cos(2.0 * x), lambda x: -2.0 * np.sin(2.0 * x), 1, 24),
        (lambda x: 1.0 / (2.0 + x), lambda x: -1.0 / (2.0 + x) ** 2, 2, 28),
        (lambda x: np.sin(x) + x**3, lambda x: np.cos(x) + 3.0 * x**2, 3, 24),
    ]
    return [expand_pair(fn, dfn, alpha, n) for fn, dfn, alpha, n in specs]


def _hardy_corpus():
    return [
        ("exponential", np.exp, np.exp),
        ("cosine", lambda x: np.cos(3.0 * x), lambda x: -3.0 * np.sin(3.0 * x)),
        ("shifted-cubic", lambda x: (x - 0.3) ** 3, lambda x: 3.0 * (x - 0.3) ** 2),
        ("sqrt-shift", lambda x: np.sqrt(x + 0.5), lambda x: 0.5 / np.sqrt(x + 0.5)),
    ]


def _suite_orthogonality() -> VerificationReport:
    def checks():
        for dim, M in ((2, 8), (3, 6)):
            form = mass_form(M, dim)
            comps, card = form.basis.components, form.basis.cardinality
            dev = np.abs(form.entries - np.eye(card))

            def case(i):
                row, col = divmod(i, card)
                return f"gram-dim{dim} at {tuple(comps[row].tolist())} x {tuple(comps[col].tolist())}"

            yield f"gram-dim{dim}", dev, case
        # nesting: the basis is hierarchical, so the degree-M form is the
        # leading block of the degree-2M form, which a larger rule assembles;
        # relative to the largest entry of each form
        for label, base, big in (
            ("mass-3d", mass_form(5, 3), mass_form(10, 3)),
            ("h1-2d", h1_form(7, 2), h1_form(14, 2)),
            ("trace-2d", trace_form(6, 2), trace_form(12, 2)),
        ):
            n = base.basis.cardinality
            scale = max(float(np.max(np.abs(base.entries))), 1.0)
            key = f"nesting-{label}"
            yield key, float(np.max(np.abs(base.entries - big.entries[:n, :n]))) / scale, lambda _: key

    return _report("orthogonality", 1e-11, checks())


def _suite_finite_sum() -> VerificationReport:
    fns = [
        ("cubic", lambda x: x[:, 2] ** 3),
        ("mixed", lambda x: x[:, 0] * x[:, 1] + 0.5 * x[:, 1] * x[:, 2] ** 2),
        ("quintic", lambda x: (0.3 + x[:, 0] + 0.7 * x[:, 1] - 0.4 * x[:, 2]) ** 5),
    ]

    pairs, Ns = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)), (1, 2, 3)

    def checks():
        for label, fn in fns:
            # one sample of fn serves every pair, one line function every N
            for (p, q), sums in zip(pairs, _trace_coefficient_sums(fn, pairs, Ns)):
                for N, (tail, short) in zip(Ns, sums):
                    key = f"{label}-p{p}q{q}N{N}"
                    yield key, abs(tail - short) / max(1.0, abs(tail)), lambda _: key

    return _report("finite-sum", 1e-10, checks())


def _suite_trace_parseval() -> VerificationReport:
    corpus = [
        (2, "affine", lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1]),
        (2, "quartic", lambda x: (x[:, 0] + x[:, 1] ** 3) ** 1 + x[:, 0] ** 4),
        (3, "affine", lambda x: 1.0 - x[:, 0] + 0.5 * x[:, 1] + 0.25 * x[:, 2]),
        (3, "cubic", lambda x: x[:, 0] * x[:, 2] + x[:, 1] ** 3),
    ]

    def checks():
        for dim, label, fn in corpus:
            via_sum = boundary_trace_parseval(fn, dim, N=12)
            direct = _boundary_norm_direct(fn, dim)
            key = f"dim{dim}-{label}"
            yield key, abs(via_sum - direct) / max(1.0, abs(direct)), lambda _: key

    return _report("trace-parseval", 1e-10, checks())


# each lambda looks its verify_* function up on this module when it runs,
# so a name rebound here, to count or trace the call, takes effect
_SUITES = (
    ("factor-identities", lambda: verify_factor_identities()),
    ("connection", lambda: verify_connection(_pair_corpus())),
    ("weighted-antiderivative", lambda: verify_weighted_antiderivative()),
    ("deriv-representation", lambda: verify_deriv_representation()),
    ("deriv-norm-bound", lambda: verify_deriv_norm_bound()),
    ("hardy", lambda: verify_hardy(_hardy_corpus())),
    ("coefficient-bound", lambda: verify_coefficient_bound(_pair_corpus())),
    ("orthogonality", _suite_orthogonality),
    ("finite-sum", _suite_finite_sum),
    ("trace-parseval", _suite_trace_parseval),
)


def _run_verify(args, parser) -> int:
    names = [name for name, _ in _SUITES]
    if args.suite is not None and args.suite not in names:
        parser.error(f"unknown suite {args.suite!r} (choose from {', '.join(names)})")
    failures = []
    for name, runner in _SUITES:
        if args.suite is not None and name != args.suite:
            continue
        report = runner()
        status = "ok" if report.passed else "FAIL"
        print(f"{name}: max residual {report.max_residual:.3e} (tol {report.tolerance:.1e}) {status}")
        if not report.passed:
            print(f"  worst: {report.worst_case}")
            failures.append(name)
    if failures:
        print(f"failed suites: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# hs:S is ((x-1)^2 + (y+1)^2)^(S/2), largest at the far vertex (-1, 1),
# where it is 8^(S/2); its square stays finite for S ln 8 < ln(float max)
_HS_MAX = math.log(sys.float_info.max) / math.log(8.0)


def _rate_function(family: str, n_min: int, parser):
    if family == "poly":
        d = min(3, n_min)
        return lambda x: (0.25 + x[:, 0] + 0.5 * x[:, 1]) ** d
    if family == "analytic":
        return lambda x: np.exp(x[:, 0] + x[:, 1])
    if family.startswith("hs:"):
        try:
            s = float(family[3:])
        except ValueError:
            parser.error(f"bad family {family!r}")
        if not 0.5 < s < _HS_MAX:
            parser.error(f"hs family needs 1/2 < s < {_HS_MAX:.1f}, got {s}")
        return lambda x: ((x[:, 0] - 1.0) ** 2 + (x[:, 1] + 1.0) ** 2) ** (s / 2.0)
    parser.error(f"unknown family {family!r} (choose poly, analytic, or hs:S)")


def _run_rates(args, parser) -> int:
    a, b = _parse_range(args.n, parser)
    if b == a:
        parser.error(f"rates needs at least two degrees to fit a rate, got {args.n!r}")
    fn = _rate_function(args.family, a, parser)
    with _output(args.out, parser) as stream:
        rows, slope, _ = trace_error_rate(fn, list(range(a, b + 1)))
        print("family,N,error", file=stream)
        for N, err in rows:
            print(f"{args.family},{N},{_fmt(err)}", file=stream)
        print(f"{args.family},slope,{_fmt(slope)}", file=stream)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simplex-spectra",
        description="Projection stability constants and identity checks on "
        "interval, triangle, and tetrahedron bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="compute constants over a degree range")
    p_const.add_argument("--dim", type=int, choices=_DIMS, required=True)
    p_const.add_argument("--n", required=True, help="degree range A..B")
    p_const.add_argument("--kinds", help="comma list: mult, add, h1 (default: all for dim)")
    p_const.add_argument("--out", help="write CSV here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument("--suite", help="run one suite by name")

    p_rates = sub.add_parser("rates", help="boundary projection error rates")
    p_rates.add_argument("--family", required=True, help="poly | analytic | hs:S")
    p_rates.add_argument("--n", required=True, help="degree range A..B")
    p_rates.add_argument("--out", help="write CSV here instead of stdout")

    p_table = sub.add_parser("table", help="reproduce a published table's row set")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--out", help="write CSV here instead of stdout")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return _run_verify(args, parser)
    if args.command == "rates":
        return _run_rates(args, parser)

    if args.command == "constants":
        a, b = _parse_range(args.n, parser)
        dim, ns = args.dim, range(a, b + 1)
        kinds = _parse_kinds(args.kinds, dim, parser)
    else:
        dim = args.which
        ns, kinds = _TABLE_ROWS[dim], _parse_kinds(None, dim, parser)

    with _output(args.out, parser) as stream:
        return _emit_constants(dim, kinds, ns, stream)


if __name__ == "__main__":
    sys.exit(main())
