"""The coefficient connection formula built from the scalar factors that
relate weighted Jacobi polynomials to integrals and derivatives of their
neighbors, and quadrature-backed verification sweeps of those factors and
of the inequalities the analysis rests on."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .jacobi import (
    JacobiWeight,
    _check_int,
    _deriv_table,
    _g1,
    _g2,
    _g3,
    _h1,
    _h2,
    _h3,
    _jacobi_table,
    _one_sided_norm_sq,
    gauss_jacobi_rule,
)
from .simplex import _sample

__all__ = [
    "CoefficientPair",
    "VerificationReport",
    "connect_coefficients",
    "expand_pair",
    "verify_factor_identities",
    "verify_connection",
    "verify_weighted_antiderivative",
    "verify_deriv_representation",
    "verify_deriv_norm_bound",
    "verify_hardy",
    "verify_coefficient_bound",
]


@dataclass(frozen=True, eq=False)
class CoefficientPair:
    """Raw weighted expansion coefficients of a function (u) and its
    derivative (b) for the shared weight (alpha, 0)."""

    u: np.ndarray
    b: np.ndarray
    alpha: int

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", b)
        if u.ndim != 1 or u.shape != b.shape:
            raise ParameterError("coefficient sequences must be 1-d and share a truncation length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(b))):
            raise ParameterError("coefficient sequences must be finite")
        object.__setattr__(self, "alpha", _check_int("alpha", self.alpha))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one verification sweep.

    ``details`` maps a check name to its worst residual: an absolute
    residual for identity checks, a normalized violation (LHS-RHS)/scale
    for inequality checks (negative values mean satisfied with margin).
    A NaN residual is worse than any number. ``n_checks`` counts the
    residuals, and ``worst_case`` labels the first largest residual of the
    sweep, the one ``max_residual`` reports ("" for a sweep with no
    residuals).
    """

    name: str
    n_checks: int
    tolerance: float
    details: dict = field(default_factory=dict)
    worst_case: str = ""

    @property
    def max_residual(self) -> float:
        # np.max, unlike max, returns a NaN wherever it stands
        return float(np.max(list(self.details.values()))) if self.details else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worse(a: float, b: float) -> bool:
    """Whether residual a ranks above b: it is larger, or a NaN where b is
    not."""
    return a > b or (math.isnan(a) and not math.isnan(b))


def _report(name: str, tolerance: float, checks) -> VerificationReport:
    """The report of a sweep given as ``(key, residuals, case)`` triples in
    sweep order: ``residuals`` is a number or an array, and ``case(i)``
    labels its i-th flat entry, called before the sweep resumes and only
    when that entry becomes the worst so far. ``details[key]`` is the
    largest residual under ``key``, ``worst_case`` the label of the first
    largest residual of the sweep, ``n_checks`` the number of residuals.
    A NaN is the largest residual: argmax finds an array's first NaN, and
    a NaN replaces any number but no earlier NaN."""
    details, worst, worst_case, n = {}, -np.inf, "", 0
    for key, residuals, case in checks:
        r = np.asarray(residuals)
        if r.size == 0:
            continue
        i = int(r.argmax())
        top = r.item(i)
        n += r.size
        if key not in details or _worse(top, details[key]):
            details[key] = top
        if _worse(top, worst):
            worst, worst_case = top, case(i)
    return VerificationReport(name=name, n_checks=n, tolerance=tolerance, details=details, worst_case=worst_case)


def connect_coefficients(b, alpha: int) -> np.ndarray:
    """Coefficients of U from the coefficients b of U' for the weight (alpha, 0).

    Returns u of length len(b) - 1 with u[q] filled for 1 <= q <= len(b) - 2;
    u[0] is NaN because the relation starts at q = 1.
    """
    bs = np.asarray(b, dtype=float)
    if bs.ndim != 1 or bs.size < 3:
        raise ParameterError("need at least 3 derivative coefficients")
    alpha = _check_int("alpha", alpha)
    fa = float(alpha)
    qs = np.arange(1, bs.size - 1, dtype=float)
    u = np.full(bs.size - 1, np.nan)
    u[1:] = _h1(qs, fa) * bs[2:] + _h2(qs, fa) * bs[1:-1] + _h3(qs, fa) * bs[:-2]
    return u


def expand_pair(fn, dfn, alpha: int, n_terms: int) -> CoefficientPair:
    """Quadrature coefficients of fn and dfn against weight (alpha, 0).

    The rule is exact for fn and dfn of degree up to 30. Each callback
    takes the rule's nodes and must return one value per node; any other
    shape is a ParameterError.
    """
    alpha = _check_int("alpha", alpha)
    n_terms = _check_int("n_terms", n_terms, least=1)
    w = JacobiWeight(float(alpha), 0.0)
    m = (30 + n_terms) // 2 + 4
    rule = gauss_jacobi_rule(m, w)
    table = _jacobi_table(n_terms - 1, w, rule.nodes)
    u = table @ (rule.weights * _sample(fn, rule.nodes))
    b = table @ (rule.weights * _sample(dfn, rule.nodes))
    return CoefficientPair(u=u, b=b, alpha=alpha)


def verify_factor_identities() -> VerificationReport:
    """Sweep 1 <= q <= 50, 0 <= alpha <= 20 over the exact factor
    relations: the three norm-ratio identities, the difference identity
    h2 - h1 = h3, and the alternating three-term cancellation.
    """
    q = np.arange(1.0, 51.0)[:, None]
    a = np.arange(0.0, 21.0)[None, :]

    res = {
        "ratio-g1-h3": np.abs(
            _g1(q + 1, a) / _one_sided_norm_sq(q, a) - _h3(q + 1, a) / _one_sided_norm_sq(q + 1, a)
        ),
        "ratio-g2-h2": np.abs(_g2(q + 1, a) - _h2(q, a)),
        "ratio-g3-h1": np.abs(
            _g3(q + 1, a) / _one_sided_norm_sq(q, a) - _h1(q - 1, a) / _one_sided_norm_sq(q - 1, a)
        ),
        "difference": np.abs((_h2(q, a) - _h1(q, a)) - _h3(q, a)),
    }
    # the alternating (-1)^q prefactor is common to all three terms and
    # drops out of the absolute residual
    res["cancellation"] = np.abs(
        _h1(q, a) / _one_sided_norm_sq(q, a)
        - _h2(q + 1, a) / _one_sided_norm_sq(q + 1, a)
        + _h3(q + 2, a) / _one_sided_norm_sq(q + 2, a)
    )

    checks = ((key, grid, lambda i: f"{key} at q={i // a.size + 1}, alpha={i % a.size}") for key, grid in res.items())
    return _report("factor-identities", 1e-12, checks)


def verify_connection(pairs) -> VerificationReport:
    """Check each quadrature-computed pair against connect_coefficients."""
    def checks():
        for i, pair in enumerate(pairs):
            u = connect_coefficients(pair.b, pair.alpha)
            r = np.abs(u[1:] - pair.u[1 : u.size])
            yield "connection", r, lambda j: f"pair {i} (alpha={pair.alpha}) at q={1 + j}"

    return _report("connection", 1e-12, checks())


def verify_weighted_antiderivative() -> VerificationReport:
    """Check the closed three-term forms of the weighted antiderivative.

    Two checks per (q, alpha, x) with 1 <= q <= 10, 0 <= alpha <= 6 and 20
    points x from -0.96 to 0.98: the weighted integral of the degree-q
    polynomial from -1 to x against -(1-x)^alpha [h1 P_{q+1} + h2 P_q
    + h3 P_{q-1}](x), and the antiderivative's three-term form (g1, g2,
    g3 at q+1) against the plain integral. Per alpha, one table spans the rules on
    (-1, x) for every x, and one the points x.
    """
    q_max = 10
    xs = np.linspace(-0.96, 0.98, 20)
    base = gauss_jacobi_rule(48, JacobiWeight(0.0, 0.0))
    # row i is the rule transplanted to (-1, xs[i])
    half = 0.5 * (xs + 1.0)[:, None]
    nodes, wts = -1.0 + half * (base.nodes + 1.0), half * base.weights

    def checks():
        for alpha in range(7):
            fa = float(alpha)
            w = JacobiWeight(fa, 0.0)
            tab = _jacobi_table(q_max + 1, w, nodes)
            at_x = _jacobi_table(q_max + 1, w, xs)
            weighted = (1.0 - nodes) ** fa * tab
            factor = [-((1.0 - x) ** fa) for x in xs]
            for q in range(1, q_max + 1):
                h = _h1(q, fa) * at_x[q + 1] + _h2(q, fa) * at_x[q] + _h3(q, fa) * at_x[q - 1]
                g = _g1(q + 1.0, fa) * at_x[q + 1] + _g2(q + 1.0, fa) * at_x[q] + _g3(q + 1.0, fa) * at_x[q - 1]
                for i, x in enumerate(xs):
                    case = lambda _: f"q={q}, alpha={alpha}, x={x:.3f}"
                    lhs_w, lhs_p = float(wts[i] @ weighted[q, i]), float(wts[i] @ tab[q, i])
                    yield "weighted-antiderivative", abs(lhs_w - factor[i] * float(h[i])), case
                    yield "antiderivative", abs(lhs_p - float(g[i])), case

    return _report("weighted-antiderivative", 1e-10, checks())


def verify_deriv_representation() -> VerificationReport:
    """Check the three-term derivative representation of P_q/gamma_q for
    1 <= q <= 10 and 0 <= alpha <= 6 at 20 points from -1 to 1."""
    q_max = 10
    xs = np.linspace(-1.0, 1.0, 20)

    def checks():
        for alpha in range(7):
            fa = float(alpha)
            w = JacobiWeight(fa, 0.0)
            tab = _jacobi_table(q_max, w, xs)
            dtab = _deriv_table(q_max + 1, w, xs)
            for q in range(1, q_max + 1):
                lhs = tab[q] / _one_sided_norm_sq(q, fa)
                rhs = (
                    _h1(q - 1.0, fa) / _one_sided_norm_sq(q - 1.0, fa) * dtab[q - 1]
                    + _h2(q, fa) / _one_sided_norm_sq(q, fa) * dtab[q]
                    + _h3(q + 1.0, fa) / _one_sided_norm_sq(q + 1.0, fa) * dtab[q + 1]
                )
                yield "deriv-representation", np.abs(lhs - rhs), lambda i: f"q={q}, alpha={alpha}, x={xs[i]:.3f}"

    return _report("deriv-representation", 1e-10, checks())


def verify_deriv_norm_bound() -> VerificationReport:
    """Weighted L2 norms of derivatives against the closed-form bound
    4 q (q+1+alpha)^2 gamma_q for 1 <= q <= 60 and 0 <= alpha <= 30; values
    are reported as normalized violations (negative means the bound holds
    with margin)."""
    q_max = 60

    def checks():
        for alpha in range(31):
            fa = float(alpha)
            w = JacobiWeight(fa, 0.0)
            rule = gauss_jacobi_rule(q_max + 1, w)
            dtab = _deriv_table(q_max, w, rule.nodes)
            dsq = dtab * dtab
            for q in range(1, q_max + 1):
                i_sq = float(rule.weights @ dsq[q])
                bound = 4.0 * q * (q + 1.0 + fa) ** 2 * _one_sided_norm_sq(float(q), fa)
                yield "deriv-norm-bound", (i_sq - bound) / bound, lambda _: f"q={q}, alpha={alpha}"

    return _report("deriv-norm-bound", 1e-10, checks())


def _unit_interval_rule(beta: float):
    """48-point rule for integrals of x^beta * f(x) over (0, 1)."""
    rule = gauss_jacobi_rule(48, JacobiWeight(0.0, beta))
    x = 0.5 * (rule.nodes + 1.0)
    return x, rule.weights * 0.5 ** (beta + 1.0)


def verify_hardy(test_functions) -> VerificationReport:
    """Weighted Hardy inequality on (0, 1) for the weights x^beta, beta in
    0, 1/2, 1, 2 and 3, over a corpus of C^1 functions.

    ``test_functions`` holds (label, u, u_prime) triples; each callback
    must return one finite value per node, or it is a ParameterError.
    Violations are normalized by the right-hand side.
    """
    def checks():
        for beta in (0.0, 0.5, 1.0, 2.0, 3.0):
            x_l, w_l = _unit_interval_rule(beta)
            x_r, w_r = _unit_interval_rule(beta + 2.0)
            for label, u, du in test_functions:
                lhs = float(w_l @ _sample(u, x_l) ** 2)
                rhs = (2.0 / (beta + 1.0)) ** 2 * float(w_r @ _sample(du, x_r) ** 2)
                rhs += float(_sample(u, np.ones(1))[0]) ** 2 / (beta + 1.0)
                yield "hardy", (lhs - rhs) / rhs, lambda _: f"{label} at beta={beta}"

    return _report("hardy", 1e-10, checks())


def verify_coefficient_bound(pairs) -> VerificationReport:
    """Sanity check of the product-of-sums coefficient bound with constant 10.

    Not a tight-constant claim; truncated tails only shrink the right-hand
    side, so passing is meaningful."""
    def checks():
        for i, pair in enumerate(pairs):
            fa = float(pair.alpha)
            j = np.arange(pair.u.size, dtype=float)
            inv_norm = 1.0 / _one_sided_norm_sq(j, fa)
            u_tail = np.cumsum((pair.u**2 * inv_norm)[::-1])[::-1]
            b_tail = np.cumsum((pair.b**2 * inv_norm)[::-1])[::-1]
            for q in range(1, pair.u.size - 1):
                lhs = pair.b[q - 1] ** 2 + pair.b[q] ** 2
                rhs = 10.0 * 2.0 ** (fa + 1.0) * np.sqrt(u_tail[q]) * np.sqrt(b_tail[q - 1])
                scale = max(rhs, 1e-300)
                yield "coefficient-bound", (lhs - rhs) / scale, lambda _: f"pair {i} (alpha={pair.alpha}) at q={q}"

    return _report("coefficient-bound", 1e-10, checks())
