"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload interval-table --seed 1 --seconds 30 --trace 0

Workloads: interval-table, triangle-rows, verify-rates (see workloads.py).
Everything runs in fresh interpreters with one BLAS thread, importing the
package from ./src. Set-up time is measured on several import-only
processes plus the workload process; the workload process reports its
pass times, peak RSS and the checks of its outputs against references.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass, whose spans are written
to .perfbench_runs/. A human-readable summary goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 3  # import-only processes before and again after the workload
DEADLINE_S = 170.0
# one BLAS thread, so that timings do not depend on how many threads
# OpenBLAS would pick on the machine at hand
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("pass_frac", "ratio"))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "forms.dense_mb":
        return "MiB_computed"
    if name == "jacobi.gl_cache_hit":
        return "ratio"
    return "count"


def _spawn(argv, env, root, deadline):
    """Runs one child to completion; returns (start time, parsed last line)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"benchmark process overran the deadline: {argv}")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process failed with code {proc.returncode}: {argv}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"benchmark process printed nothing: {argv}")
    return t0, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("interval-table", "triangle-rows", "verify-rates"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "simplex_spectra", "__init__.py")):
        print("no src/simplex_spectra under the current directory; run from a checkout",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    worker = os.path.join(here, "worker.py")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def probe():
        t0, out = _spawn([sys.executable, worker, "--probe"], env, root, deadline)
        return out["ready"] - t0

    # probes on both sides of the workload, so that a slow spell of the
    # machine during one of them does not move the median
    setups = [probe() for _ in range(SETUP_PROBES)]
    t0, res = _spawn(
        [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, root, deadline,
    )
    setups.append(res["ready"] - t0)
    setups += [probe() for _ in range(SETUP_PROBES)]

    attempted, failed = res["attempted"], res["failed"]
    e2e = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["rss_mb"],
        "pass_frac": 1.0 - failed / attempted,
    }
    if args.trace:
        report = res["report"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in report["metrics"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {len(res['walls'])} untraced pass(es), "
          f"pass walls {[round(w, 3) for w in res['walls']]}", file=log)
    for k, u in END_TO_END:
        print(f"  {k} = {e2e[k]:.6g} {u}", file=log)
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} checks)", file=log)
    if res["known_failed"]:
        print(f"  known defects still failing: {', '.join(res['known_failed'])}", file=log)
    if res["unexpected_failed"]:
        print(f"  FAILED: {', '.join(res['unexpected_failed'])}", file=log)
    if args.trace:
        for k, v in report["metrics"].items():
            print(f"  {k} = {v:.6g} {_unit(k)}", file=log)
        shares = ", ".join(f"{k} {v:.1%}" for k, v in report["layer_shares"].items())
        print(f"  self-time shares of the traced pass: {shares}", file=log)
        pred = report["prediction"]
        print(f"  prediction '{pred['largest']} is the largest share' "
              f"{'holds' if pred['holds'] else 'FAILS'} ({pred['share']:.1%})", file=log)
        if report["missing_names"]:
            print(f"  boundary names absent from the package: {report['missing_names']}", file=log)
        print(f"  spans: {report['trace_file']}", file=log)
    print(json.dumps({"fingerprint": res["fingerprint"]}))
    print(json.dumps({
        "correct": not res["unexpected_failed"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
