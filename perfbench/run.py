"""Benchmark of the dro_portfolio package: three workloads, one command.

    python3 perfbench/run.py --workload scale_lp --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
its ``src/``.  A run generates its inputs from ``--seed``, runs jobs in
a closed loop (the next job starts when the previous one ends) while
they fit in ``--seconds`` (always at least one), checks every result,
prints a readable summary and, as its last line, one JSON object.  With
``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "rebalances_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "data.load_s": "s", "data.window_s": "s", "data.windows": "count",
    "data.self_s": "s",
    "partition.family_s": "s", "partition.families": "count",
    "partition.L": "count", "partition.R": "count",
    "partition.certify_s": "s", "partition.certify_cells": "count",
    "partition.removal_s": "s", "partition.self_s": "s",
    "ambiguity.from_gamma_s": "s", "ambiguity.linprog_calls": "count",
    "ambiguity.self_s": "s",
    "robust_lp.assemble_s": "s", "robust_lp.assemble_peak_mb": "MiB",
    "robust_lp.dense_mb": "MiB", "robust_lp.solve_s": "s",
    "robust_lp.iterations": "count", "robust_lp.iterations_sum": "count",
    "robust_lp.rows": "count", "robust_lp.rows_sum": "count",
    "robust_lp.cols": "count", "robust_lp.cols_sum": "count",
    "robust_lp.nnz": "count", "robust_lp.nnz_sum": "count",
    "robust_lp.linprog_calls": "count", "robust_lp.extract_s": "s",
    "robust_lp.self_s": "s",
    "backtest.rebalances": "count", "backtest.linprog_per_rebalance": "ratio",
    "backtest.self_s": "s", "backtest.account_step_s": "s",
    "backtest.account_steps": "count",
    "oracle.duality_s": "s", "oracle.inner_s": "s",
    "oracle.approximation_s": "s", "oracle.concavity_s": "s",
    "oracle.survivability_s": "s", "oracle.exact_small_solve_s": "s",
    "oracle.linprog_calls": "count", "oracle.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.spans": "count", "trace.overhead_s": "s",
}

# counts recorded in ROADMAP.md before this benchmark existed
BASELINES = {
    "scale_lp": {"robust_lp.rows": 3605, "robust_lp.cols": 1687,
                 "robust_lp.nnz": 3_621_836, "robust_lp.iterations": 6282},
    "certify": {"partition.L": 145, "partition.R": 9},
    "backtest": {"backtest.linprog_per_rebalance": 2.0},
}


def bootstrap():
    """Import the package from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "dro_portfolio", "__init__.py")):
        sys.exit(f"error: no package source under {SRC}; "
                 "run from a dro-portfolio source checkout")
    sys.path[:0] = [SRC, HERE]
    import dro_portfolio

    found = os.path.dirname(os.path.dirname(os.path.abspath(dro_portfolio.__file__)))
    if found != SRC:
        sys.exit(f"error: dro_portfolio was imported from {found}, not {SRC}")


def make_workdir(workload: str) -> str:
    path = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(path)
    return path


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def tail_summary(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return text + f", p{p:g} {q[round(p * 10) - 1]:.6g} (n={n})"
    return text + f" (n={n}; a tail percentile needs 20 or more)"


def setup_samples(args) -> list:
    """Seconds from the start of a fresh process to its inputs being ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
    return samples


def setup_probe(args):
    import workloads

    workdir = make_workdir(args.workload)
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_untraced(workload, seconds, checks, setup):
    """Closed loop of jobs while the next one is expected to fit."""
    results = []
    start = time.perf_counter()
    while True:
        res = workload.job()
        workload.check(res, checks)
        results.append(res)
        typical = statistics.median(r.seconds for r in results)
        if time.perf_counter() - start + typical > seconds:
            break
    job_s = [r.seconds for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(job_s),
        "rebalances_per_s": statistics.median(r.rebalances / r.seconds
                                              for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (checks.attempted - len(checks.failures)) / checks.attempted,
    }
    lines = [f"setup_s: {tail_summary(setup)} s",
             f"job_s: {tail_summary(job_s)} s; each job: "
             + " ".join(f"{x:.4g}" for x in job_s),
             f"rebalances per job: {results[0].rebalances}"]
    return metrics, lines


def run_traced(workload, seconds, checks, args):
    """A warm-up job, then traced and untraced jobs in turn.

    The per-layer metrics are medians over the traced jobs; the warm-up
    keeps the first job's extra cost out of the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    plain, traced, per_job, spans_out = [], [], [], []
    start = time.perf_counter()
    try:
        workload.check(workload.job(), checks)
        while True:
            tracer.enabled = True
            try:
                res = workload.job()
            finally:
                tracer.enabled = False
            spans = tracer.take()
            workload.check(res, checks)
            traced.append(res.seconds)
            m = tracing.layer_metrics(spans)
            m["cli.bytes_written"] = res.bytes_written
            per_job.append(m)
            spans_out.append([s.to_dict() for s in spans])
            res = workload.job()
            workload.check(res, checks)
            plain.append(res.seconds)
            pair = statistics.median(plain) + statistics.median(traced)
            if time.perf_counter() - start + pair > seconds:
                break
    finally:
        tracer.uninstall()
    metrics = {name: statistics.median(m[name] for m in per_job)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    lines = [f"untraced job_s: {tail_summary(plain)} s",
             f"traced job_s: {tail_summary(traced)} s"]
    if not args.smoke:
        for name, expected in BASELINES.get(args.workload, {}).items():
            verdict = "matches" if metrics[name] == expected else "differs from"
            lines.append(f"baseline {name}: {metrics[name]!r} {verdict} "
                         f"ROADMAP {expected!r}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "machine": machine_facts(), "jobs": spans_out}, fh)
    lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics, lines


def measure(args, out=print) -> dict:
    """One benchmark run; returns the object printed as the last line."""
    import workloads

    setup = None if args.trace else setup_samples(args)
    workdir = make_workdir(args.workload)
    checks = workloads.Checks()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                      smoke=args.smoke)
        if args.trace:
            metrics, lines = run_traced(workload, args.seconds, checks, args)
        else:
            metrics, lines = run_untraced(workload, args.seconds, checks, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = len(checks.failures)
    out(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
        f"trace {args.trace}")
    out("machine " + json.dumps(machine_facts(), sort_keys=True))
    for line in lines:
        out(line)
    out(f"fail_ratio: {failed}/{checks.attempted} = {failed / checks.attempted:.6g}")
    for name in checks.failures[:20]:
        out(f"FAILED {name}")
    for name, value in metrics.items():
        out(f"{name}: {value!r} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def smoke() -> int:
    """Tiny run of every workload, both modes, against BENCHMARK.json."""
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=name, seed=workloads.DEFAULT_SEED,
                                      seconds=0, trace=trace, smoke=True)
            result = measure(args, out=lambda line: None)
            if result["failed"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace {trace}: metric "
                                    f"{metric['name']} missing or not in "
                                    f"{metric['unit']}: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{name} trace {trace}: not in BENCHMARK.json: "
                                f"{sorted(extra)}")
    # a wrong objective must count as a failed operation
    workdir = make_workdir("smoke")
    try:
        wl = workloads.ScaleLp(workloads.DEFAULT_SEED, workdir, smoke=True)
        checks = workloads.Checks()
        wl.check(workloads.perturbed(wl.job()), checks)
        if not checks.failures:
            problems.append("a perturbed objective passed the scale_lp checks")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"smoke: {line}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("scale_lp", "backtest", "certify"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-test of every workload and metric")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ.pop("DRO_PORTFOLIO_THREADS", None)
    bootstrap()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
