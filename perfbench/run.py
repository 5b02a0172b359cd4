"""pricelab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
``correct`` is false when an operation completed with a wrong output, and
``failed`` counts every failed operation, wrong output or not.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, taken from a traced half of the
run, and the spans go to ``.perfbench_out/``.  Every run also writes a
record there (environment, failures, output digests, iteration times).
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
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Runner

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Per-layer metrics read straight from the tracer: metric -> function whose
# inclusive seconds ("_s") or call count ("_calls") per iteration it reports.
_FUNCTION_METRICS = (
    "dataset.generate_synthetic_s", "dataset.write_csv_s", "dataset.load_csv_s",
    "dataset.encode_dataset_s", "dataset.encode_calls", "dataset.encode_s",
    "artifacts.save_model_s", "artifacts.load_model_s",
    "glm.fit_glm_s", "glm.predict_glm_calls", "glm.predict_glm_s",
    "smoothing.design_matrix_calls", "smoothing.design_matrix_s",
    "smoothing.evaluate_calls", "smoothing.evaluate_s",
    "gam.fit_gam_calls", "gam.fit_gam_s", "gam.add_interaction_calls",
    "gam.add_interaction_s", "gam.interaction_scan_s", "gam.collinearity_report_s",
    "gam.predict_gam_calls", "gam.predict_gam_s",
    "ann.train_s", "ann.train_trajectory_s", "ann.predict_ann_calls", "ann.predict_ann_s",
    "ann.sigmoid_s",
    "evaluation.compare_s", "evaluation.accuracy_band_s", "evaluation.learning_curve_s",
)
# Counters filled by the tracer's post-call hooks.
_COUNTER_METRICS = (
    "artifacts.bytes", "gam.cycles", "ann.epochs",
    "evaluation.overfit_scan_s.glm", "evaluation.overfit_scan_s.gam",
    "evaluation.overfit_scan_s.ann", "evaluation.thresholds_found",
    "evaluation.overfit_steps_used", "evaluation.overfit_steps_tried",
)
# Top-level CLI commands timed by the benchmark: metric -> operation label.
_CLI_METRICS = {
    "cli.gen_s": "gen", "cli.compare_s": "compare", "cli.replay_s": "replay",
    **{f"cli.fit_s.{f}": f"fit.{f}" for f in ("glm", "gam", "ann")},
    **{f"cli.predict_s.{f}": f"predict.{f}" for f in ("glm", "gam", "ann")},
}
_SETUP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for checking the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _startup_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import pricelab.cli"],
        cwd=ROOT, env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment() -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "machine": platform.machine(),
    }


def _maxrss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _measure(workload, runner, phase: str, seconds: float) -> list[float]:
    """Closed loop for about ``seconds``; returns the iteration times.  Each
    iteration's time is the sum of its operations, so the benchmark's own
    checks are not counted.  A run ends after a whole cycle, when one more
    cycle of median iterations would overrun."""
    runner.phase = phase
    times: list[float] = []
    start = time.perf_counter()
    while True:
        first = len(runner.ops)
        if runner.tracer is not None:
            runner.tracer.iteration = len(times)
            with runner.tracer.span("iteration"):
                workload.iteration(runner, len(times))
        else:
            workload.iteration(runner, len(times))
        ops = runner.ops[first:]
        times.append(sum(op.seconds for op in ops))
        elapsed = time.perf_counter() - start
        if (len(times) % workload.cycle == 0
                and elapsed + workload.cycle * statistics.median(times) > seconds):
            return times


def _typical(times: list[float], cycle: int) -> float:
    """Median over the cycle's inputs of each input's median iteration time.
    Every run times the same inputs, so an iteration with a failed
    operation counts at the time it took."""
    return statistics.median(statistics.median(times[j::cycle]) for j in range(cycle))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(workload, runner, tracer, traced, untraced, cpu) -> tuple[dict, list[str]]:
    iters = len(traced)
    found = tracer.found
    absent: list[str] = []
    metrics: dict[str, dict] = {}

    for name in _FUNCTION_METRICS:
        base, _, kind = name.rpartition("_")
        if base not in found:
            absent.append(base)
        if kind == "calls":
            metrics[name] = _metric(tracer.calls[base] / iters, "count")
        else:
            metrics[name] = _metric(tracer.seconds[base] / iters, "s")
    metrics["gam.fit_gam_failed"] = _metric(tracer.errors["gam.fit_gam"] / iters, "count")
    metrics["gam.nonconverged_inputs"] = _metric(len(workload.skipped), "count")
    for name in _COUNTER_METRICS:
        unit = "B" if name == "artifacts.bytes" else "s" if "_s." in name else "count"
        metrics[name] = _metric(tracer.counters[name] / iters, unit)
    epochs = tracer.counters["ann.epochs"]
    ann_s = tracer.seconds["ann.train"] + tracer.seconds["ann.train_trajectory"]
    metrics["ann.epoch_us"] = _metric(1e6 * ann_s / epochs if epochs else 0.0, "us")

    traced_ops = [op for op in runner.ops if op.phase == "traced"]
    for name, label in _CLI_METRICS.items():
        seconds = sum(op.seconds for op in traced_ops if op.label == label)
        metrics[name] = _metric(seconds / iters, "s")
    for layer in ("bench", *LAYERS):
        metrics[f"{layer}.self_s"] = _metric(tracer.self_seconds[layer] / iters, "s")

    plain = [op for op in runner.ops if op.phase == "untraced"]
    rows = sum(workload.rows_priced(op) for op in plain)
    rows_s = sum(op.seconds for op in plain if workload.rows_priced(op))
    metrics["rows_per_s"] = _metric(rows / rows_s if rows_s else 0.0, "1/s")
    epochs = sum(workload.epochs(op) for op in plain)
    epochs_s = sum(op.seconds for op in plain if workload.epochs(op))
    metrics["epochs_per_s"] = _metric(epochs / epochs_s if epochs_s else 0.0, "1/s")
    for fam in ("glm", "gam", "ann"):
        errs = workload.price_err.get(fam)
        metrics[f"price_err.{fam}"] = _metric(statistics.mean(errs.values()) if errs else 0.0, "ratio")
    failed = sum(op.error is not None for op in runner.ops)
    metrics["failed_frac"] = _metric(failed / len(runner.ops), "ratio")
    metrics["bench.cpu_s"] = _metric(cpu / len(untraced), "s")
    metrics["bench.cpu_per_wall"] = _metric(cpu / sum(untraced), "ratio")
    metrics["bench.trace_overhead_s"] = _metric(
        _typical(traced, workload.cycle) - _typical(untraced, workload.cycle), "s")
    return metrics, sorted(set(absent))


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "pricelab" / "__init__.py").is_file():
        print(f"error: no pricelab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    startup = [_startup_seconds() for _ in range(_SETUP_REPEATS)]
    import pricelab.cli  # noqa: F401  (loaded before any timing in this process)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(work)
    cwd = os.getcwd()
    try:
        work.mkdir(parents=True)
        setups = []
        for k in range(_SETUP_REPEATS):
            first = len(runner.ops)
            start = time.perf_counter()
            workload.setup(runner, k)
            ops = runner.ops[first:]
            setups.append(sum(op.seconds for op in ops) if ops else time.perf_counter() - start)
        maxrss = {"after_setup": _maxrss_mb()}

        cpu0 = _cpu_seconds()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = _measure(workload, runner, "untraced", budget)
        cpu = _cpu_seconds() - cpu0
        maxrss["after_loop"] = _maxrss_mb()
        traced = []
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced = _measure(workload, runner, "traced", budget)
            finally:
                tracer.uninstall()
                runner.tracer = None
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failures = [op for op in runner.ops if op.error is not None]
    if args.trace:
        metrics, absent = _per_layer(workload, runner, tracer, traced, untraced, cpu)
    else:
        absent = []
        metrics = {
            "wall_s": _metric(_typical(untraced, workload.cycle), "s"),
            "setup_s": _metric(statistics.median(startup) + statistics.median(setups), "s"),
            "peak_rss_mb": _metric(maxrss["after_loop"], "MB"),
        }

    environment = _environment()
    print(f"environment: {json.dumps(environment)}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment,
        "startup_s": startup,
        "setup_ops_s": setups,
        "cycle": workload.cycle,
        "skipped_inputs": workload.skipped,
        "iterations_s": untraced,
        "traced_iterations_s": traced,
        "maxrss_mb": maxrss,
        "failures": [{"op": op.label, "phase": op.phase, "error": op.error} for op in failures],
        "wrong_outputs": runner.wrong,
        "output_sha256": {k: sorted(v) for k, v in sorted(runner.digests.items())},
        "absent_functions": absent,
        "tracer_hook_errors": tracer.hook_errors if tracer else {},
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
        print(tracer.self_time_table(len(traced)))
        print(f"tracing overhead: {metrics['bench.trace_overhead_s']['value']:+.4f} s/iteration")
    if workload.skipped:
        print(f"known defect: the GAM fit does not converge on inputs {workload.skipped}; "
              "they are left out of the run")
    for op in failures:
        print(f"failed: {op.label} ({op.phase}): {op.error}")
    print(f"record: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": len(runner.ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
