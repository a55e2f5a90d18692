"""One benchmark process: imports the package, runs a workload, reports JSON.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
count pinned. ``--probe`` only imports and reports when it was ready, for
the set-up time. Otherwise it runs passes over the workload's items and
prints one JSON line. A pass is the whole item set; untraced passes repeat
while another one fits in ``--seconds`` (at least one always runs). With
``--trace 1`` two traced passes follow: the first gives the per-layer
split, the second must repeat its counts exactly.
"""

import sys
import time

import numpy  # noqa: F401  (part of set-up)
import scipy
import scipy.linalg  # noqa: F401
import simplex_spectra  # noqa: F401

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from simplex_spectra import simplex  # noqa: E402

# the layers predicted, when the workloads were chosen, to take the largest
# self-time share of each; every traced run reports whether that holds
PREDICTED_LARGEST = {
    "interval-table": ("lapack",),
    "triangle-rows": ("forms",),
    "verify-rates": ("simplex", "jacobi", "identities"),
}

# counts that must repeat exactly between the two traced passes
EXACT_COUNTS = (
    "extremal.fp_iters",
    "forms.card_max",
    "forms.dense_mb",
    "forms.h1_calls",
    "forms.mass_calls",
    "forms.trace_calls",
    "extremal.mult_calls",
    "extremal.add_calls",
    "extremal.eigh_calls",
    "extremal.chol_calls",
    "extremal.trisolve_calls",
    "simplex.analyze_calls",
    "jacobi.table_calls",
    "identities.suite_calls",
)


def fingerprint() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_pass(items, tracer=None):
    """Runs every item once; returns (wall seconds, checks, gl cache hit
    ratio). The Gauss-Legendre cache starts empty, as in a fresh process."""
    gl = getattr(simplex, "_gl_nodes", None)
    if hasattr(gl, "cache_clear"):
        gl.cache_clear()
    outputs = []
    t0 = time.perf_counter()
    for item in items:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    out = item.fn(*item.args)
                else:
                    tracer.item = item.name
                    out = tracer.call(item.layer, item.op, item.fn, *item.args)
        except (Exception, SystemExit):
            # an item that raises fails every one of its checks
            traceback.print_exc()
            out, buf = None, io.StringIO()
        outputs.append((item, out, buf.getvalue()))
    wall = time.perf_counter() - t0
    checks = [c for item, out, text in outputs for c in item.check(out, text)]
    hit = 0.0
    if hasattr(gl, "cache_info"):
        info = gl.cache_info()
        hit = info.hits / max(info.hits + info.misses, 1)
    return wall, checks, hit


def traced_pass(items):
    """One pass with every layer boundary wrapped; the originals are put
    back before returning. Returns (wall, checks, hit, tracer, unrestored)."""
    tracer = tracing.Tracer()
    saved = tracer.install()
    try:
        wall, checks, hit = run_pass(items, tracer)
    finally:
        unrestored = tracing.uninstall(saved)
    return wall, checks, hit, tracer, unrestored


def layer_metrics(tracer, hit: float):
    """The per-layer metrics of one traced pass, and self seconds per layer."""
    agg = tracing.aggregate(tracer.spans)
    ops, self_s = agg["ops"], agg["self_s"]

    def calls(layer, *names):
        return sum(ops.get((layer, n), (0, 0.0))[0] for n in names)

    def secs(layer, *names):
        return sum(ops.get((layer, n), (0, 0.0))[1] for n in names)

    dense = [card for card, is_dense in tracer.forms_out if is_dense]
    m = {
        "forms.h1_s": secs("forms", "h1"),
        "forms.h1_calls": calls("forms", "h1"),
        "forms.mass_s": secs("forms", "mass"),
        "forms.mass_calls": calls("forms", "mass"),
        "forms.trace_s": secs("forms", "trace"),
        "forms.trace_calls": calls("forms", "trace"),
        "forms.projection_s": secs("forms", "projection"),
        "forms.card_max": max((card for card, _ in tracer.forms_out), default=0),
        "forms.dense_mb": sum(8 * c * c for c in dense) / 2**20,
        "forms.self_s": self_s["forms"],
        "extremal.mult_s": secs("extremal", "mult"),
        "extremal.mult_calls": calls("extremal", "mult"),
        "extremal.add_s": secs("extremal", "add"),
        "extremal.add_calls": calls("extremal", "add"),
        "extremal.fp_iters": tracer.fp_iters,
        "extremal.eigh_s": secs("lapack", "eigh"),
        "extremal.eigh_calls": calls("lapack", "eigh"),
        "extremal.chol_s": secs("lapack", "chol"),
        "extremal.chol_calls": calls("lapack", "chol"),
        "extremal.trisolve_s": secs("lapack", "trisolve"),
        "extremal.trisolve_calls": calls("lapack", "trisolve"),
        "extremal.lapack_s": self_s["lapack"],
        "extremal.self_s": self_s["extremal"],
        "extremal.rates_s": secs("extremal", "rates"),
        "simplex.analyze_s": secs("simplex", "analyze"),
        "simplex.analyze_calls": calls("simplex", "analyze"),
        "simplex.basis_s": secs("simplex", "basis"),
        "simplex.self_s": self_s["simplex"],
        "jacobi.table_s": secs("jacobi", "table"),
        "jacobi.table_calls": calls("jacobi", "table"),
        "jacobi.gl_cache_hit": hit,
        "jacobi.self_s": self_s["jacobi"],
        "identities.verify_s": secs("identities", "verify"),
        "identities.suite_calls": calls("identities", "verify"),
        "identities.self_s": self_s["identities"],
        "cli.emit_s": self_s["cli"],
    }
    return m, self_s


def write_spans(root: str, workload: str, seed: int, tracer, report: dict) -> str:
    out_dir = os.path.join(root, ".perfbench_runs")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    t_base = min((s[5] for s in tracer.spans), default=0)
    rows = [
        [sid, parent, item, layer, op, (t0 - t_base) * 1e-9, (t1 - t_base) * 1e-9]
        for sid, parent, item, layer, op, t0, t1 in tracer.spans
    ]
    columns = ["id", "parent", "item", "layer", "op", "start_s", "end_s"]
    with open(path, "w") as fh:
        json.dump({"report": report, "span_columns": columns, "spans": rows}, fh)
    return path


def layer_shares(self_s: dict, wall: float, workload: str):
    """Self time per layer as a share of the traced wall time, and whether
    the predicted layers together outweigh every other layer."""
    shares = {layer: t / wall for layer, t in self_s.items()}
    predicted = PREDICTED_LARGEST[workload]
    ours = sum(shares[layer] for layer in predicted)
    holds = all(ours > v for layer, v in shares.items() if layer not in predicted)
    return shares, {"largest": "+".join(predicted), "share": ours, "holds": holds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    items = workloads.WORKLOADS[args.workload](args.seed)
    walls, checks = [], []
    t_start = time.perf_counter()
    while True:
        wall, pass_checks, _ = run_pass(items)
        walls.append(wall)
        checks += pass_checks
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    result = {
        "ready": READY,
        "walls": walls,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(),
    }

    if args.trace:
        wall_a, checks_a, hit_a, tracer_a, lost_a = traced_pass(items)
        wall_b, checks_b, hit_b, tracer_b, lost_b = traced_pass(items)
        checks += checks_a + checks_b
        metrics, self_s = layer_metrics(tracer_a, hit_a)
        repeat, _ = layer_metrics(tracer_b, hit_b)
        drifted = [k for k in EXACT_COUNTS if metrics[k] != repeat[k]]
        checks.append(("trace:counts-repeat", not drifted))
        checks.append(("trace:names-restored", not (lost_a or lost_b)))
        untraced = statistics.median(walls)
        metrics["trace.wall_s"] = wall_a
        metrics["trace.overhead_s"] = wall_a - untraced
        metrics["trace.spans"] = len(tracer_a.spans)
        shares, prediction = layer_shares(self_s, wall_a, args.workload)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_wall_s": untraced,
            "traced_wall_s": [wall_a, wall_b],
            "metrics": metrics,
            "layer_shares": shares,
            "prediction": prediction,
            "drifted_counts": drifted,
            "unrestored": sorted(set(lost_a + lost_b)),
            "missing_names": tracer_a.missing,
            "fingerprint": result["fingerprint"],
        }
        report["trace_file"] = os.path.relpath(
            write_spans(os.getcwd(), args.workload, args.seed, tracer_a, report)
        )
        result["report"] = report

    failed = [label for label, ok in checks if not ok]
    result["attempted"] = len(checks)
    result["failed"] = len(failed)
    result["known_failed"] = sorted({f for f in failed if f in workloads.KNOWN_DEFECTS})
    result["unexpected_failed"] = sorted({f for f in failed if f not in workloads.KNOWN_DEFECTS})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
