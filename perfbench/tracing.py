"""Outside-in layer tracing for the benchmark.

The program has no tracing of its own, so the benchmark wraps the names
one layer uses to call the next, as the calling module binds them (for
example ``extremal.eigh`` or ``forms._jacobi_table``). A call through a
wrapped name records a span: operation, layer, start, end, parent span and
the benchmark item it belongs to. Spans stay in memory until the run ends.
``install`` returns the originals so ``uninstall`` can put every name back;
an untraced run never calls ``install``.
"""

from __future__ import annotations

import functools
import importlib
import time

# (calling module, bound name, layer of the callee, operation).
# Dense LAPACK calls made from extremal belong to extremal; they carry the
# layer tag "lapack" only so that extremal's self time (the search over r)
# can be split from the factorizations it drives.
BOUNDARIES = (
    ("cli", "multiplicative_constant", "extremal", "mult"),
    ("cli", "additive_constant", "extremal", "add"),
    ("cli", "trace_error_rate", "extremal", "rates"),
    ("cli", "h1_form", "forms", "h1"),
    ("cli", "mass_form", "forms", "mass"),
    ("cli", "trace_form", "forms", "trace"),
    ("cli", "expand_pair", "identities", "expand"),
    ("cli", "verify_factor_identities", "identities", "verify"),
    ("cli", "verify_connection", "identities", "verify"),
    ("cli", "verify_weighted_antiderivative", "identities", "verify"),
    ("cli", "verify_deriv_representation", "identities", "verify"),
    ("cli", "verify_deriv_norm_bound", "identities", "verify"),
    ("cli", "verify_hardy", "identities", "verify"),
    ("cli", "verify_coefficient_bound", "identities", "verify"),
    ("cli", "_boundary_norm_direct", "simplex", "boundary"),
    ("cli", "boundary_trace_parseval", "simplex", "boundary"),
    ("cli", "trace_coefficient_sum", "simplex", "boundary"),
    ("cli", "enumerate_basis", "simplex", "basis"),
    ("cli", "dubiner_norm_sq", "simplex", "norm"),
    ("extremal", "h1_form", "forms", "h1"),
    ("extremal", "mass_form", "forms", "mass"),
    ("extremal", "trace_form", "forms", "trace"),
    ("extremal", "point_eval_form", "forms", "point"),
    ("extremal", "projection_form", "forms", "projection"),
    ("extremal", "eigh", "lapack", "eigh"),
    ("extremal", "eigvalsh", "lapack", "eigh"),
    ("extremal", "cholesky", "lapack", "chol"),
    ("extremal", "solve_triangular", "lapack", "trisolve"),
    ("extremal", "_jacobi_table", "jacobi", "table"),
    ("extremal", "analyze", "simplex", "analyze"),
    ("extremal", "enumerate_basis", "simplex", "basis"),
    ("extremal", "dubiner_norm_sq", "simplex", "norm"),
    ("forms", "_jacobi_table", "jacobi", "table"),
    ("forms", "_dubiner_matrix", "simplex", "basis"),
    ("forms", "enumerate_basis", "simplex", "basis"),
    ("forms", "_boundary_rule", "simplex", "rule"),
    ("forms", "dubiner_norm_sq", "simplex", "norm"),
    ("simplex", "_jacobi_table", "jacobi", "table"),
    ("simplex", "_scaled_jacobi_table", "jacobi", "table"),
    ("simplex", "gauss_jacobi_rule", "jacobi", "rule"),
    ("simplex", "_h2", "identities", "factor"),
    ("simplex", "_h3", "identities", "factor"),
    ("simplex", "analyze", "simplex", "analyze"),
    ("simplex", "enumerate_basis", "simplex", "basis"),
    ("simplex", "_dubiner_matrix", "simplex", "basis"),
    ("identities", "_jacobi_table", "jacobi", "table"),
    ("identities", "gauss_jacobi_rule", "jacobi", "rule"),
    ("identities", "jacobi_antideriv", "jacobi", "antideriv"),
    ("identities", "jacobi_deriv", "jacobi", "deriv"),
    ("identities", "jacobi_eval", "jacobi", "eval"),
    ("identities", "jacobi_norm_sq", "jacobi", "norm"),
)

LAYERS = ("jacobi", "identities", "simplex", "forms", "extremal", "lapack", "cli")


class Tracer:
    """In-memory span recorder. Each span is a tuple
    (id, parent id or -1, item, layer, op, start_ns, end_ns)."""

    def __init__(self):
        self.spans = []
        self.item = ""
        self.missing = []
        self.forms_out = []  # (basis size, has dense entries) per returned form
        self.fp_iters = 0
        self._stack = []
        self._next_id = 0

    def call(self, layer: str, op: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.item, layer, op, t0, t1))
        if layer == "forms":
            entries = getattr(out, "entries", None)
            self.forms_out.append((int(out.basis.cardinality), getattr(entries, "ndim", 0) == 2))
        elif op == "mult":
            self.fp_iters += int(out.iterations)
        return out

    def _wrapper(self, original, layer: str, op: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(layer, op, original, *args, **kwargs)

        return traced

    def install(self):
        """Wrap every boundary name; returns [(module, name, original)]."""
        saved = []
        for mod_name, attr, layer, op in BOUNDARIES:
            module = importlib.import_module(f"simplex_spectra.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, layer, op))
        return saved


def uninstall(saved) -> list:
    """Restore the originals; returns the names still not restored."""
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
    return [
        f"{module.__name__}.{attr}"
        for module, attr, original in saved
        if getattr(module, attr) is not original
    ]


def aggregate(spans) -> dict:
    """Per (layer, op): calls, outermost inclusive seconds; per layer: self
    seconds (span duration minus its direct children)."""
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, _, _, _, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    ops, self_s = {}, {layer: 0.0 for layer in LAYERS}
    for sid, parent, _, layer, op, t0, t1 in spans:
        dur = t1 - t0
        self_s[layer] += (dur - child_ns.get(sid, 0)) * 1e-9
        entry = ops.setdefault((layer, op), [0, 0.0])
        entry[0] += 1
        # a call nested in another call of the same op is already inside it
        p, nested = parent, False
        while p >= 0:
            anc = by_id[p]
            if anc[3] == layer and anc[4] == op:
                nested = True
                break
            p = anc[1]
        if not nested:
            entry[1] += dur * 1e-9
    return {"ops": ops, "self_s": self_s}
