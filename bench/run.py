"""scatterfit benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload single-profile --seed 1 --seconds 25 --trace 0

Run it from the repository root. It uses the package under ``src/`` and
nothing installed. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the same operations untraced and then traced, and
prints the per-layer metrics. Either way the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and the full result, with a quality record for every fit, is
written to ``bench/out/<workload>-seed<seed>-trace<0|1>.json``. The exit
code is 0 only when every operation and every correctness check passed.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One caller, one BLAS thread: the arrays are small, and a second thread
# would compete with the caller for the same cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5

# The host's speed drifts by up to +-20% within seconds, which moves every
# timing of a run together. A fixed reference kernel (a pure-Python loop) is
# timed before every operation and after the last, and each operation's wall
# time is scaled by REFERENCE_NOMINAL_S / (mean of the two reference times
# around it). Every end-to-end time is such a scaled time: seconds at the
# host speed where the kernel takes REFERENCE_NOMINAL_S. Raw wall times stay
# in the result file. See bench/README.md.
REFERENCE_NOMINAL_S = 1.5e-3
REFERENCE_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "fits_per_s": "1/s",
    "fit_s": "s",
    "final_loss": "loss",
    "residual_ratio": "ratio",
    "sweep_s": "s",
    "crlb_s": "s",
}

# Per-layer metrics and their units. Times and calls are per cycle of the
# workload (see workloads.SPECS); the set-up ones are per set-up.
PER_LAYER = {
    "loss.batch_loss.calls": "count/cycle",
    "loss.batch_loss.busy_s": "s/cycle",
    "loss.batch_loss.self_s": "s/cycle",
    "loss.batch_gradient.calls": "count/cycle",
    "loss.batch_gradient.busy_s": "s/cycle",
    "loss.batch_gradient.self_s": "s/cycle",
    "model.unpack.calls": "count/cycle",
    "model.unpack.busy_s": "s/cycle",
    "model.synthesize_profiles.calls": "count/cycle",
    "model.synthesize_profiles.busy_s": "s/cycle",
    "model.synthesize_profiles.self_s": "s/cycle",
    "model.profile_jacobians.calls": "count/cycle",
    "model.profile_jacobians.busy_s": "s/cycle",
    "model.profile_jacobians.self_s": "s/cycle",
    "waveform.autocorr.calls": "count/cycle",
    "waveform.autocorr.busy_s": "s/cycle",
    "waveform.autocorr.lags": "count/cycle",
    "waveform.autocorr_deriv.calls": "count/cycle",
    "waveform.autocorr_deriv.busy_s": "s/cycle",
    "scatterer.positions.busy_s": "s/cycle",
    "scatterer.jacobians.busy_s": "s/cycle",
    "estimate.line_search.evals_per_iter": "count/iter",
    "estimate.fit.iterations": "count/fit",
    "estimate.status.converged": "count",
    "estimate.status.stalled": "count",
    "estimate.status.max_iters": "count",
    "estimate.iter_ms": "ms",
    "estimate.self_s": "s/cycle",
    "estimate.crlb.busy_s": "s/cycle",
    "cli.crlb.self_s": "s/cycle",
    "cli.sweep_loss.self_s": "s/cycle",
    "cli.import_s": "s",
    "cli.resolve_config.busy_s": "s",
    "sim.synthesize_pattern.busy_s": "s",
    "trace.overhead": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here: no package source, or set-up failed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def use_package_source() -> None:
    """Pin the BLAS threads and import scatterfit from src/ only."""
    if not (SRC / "scatterfit" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'scatterfit'}")
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scatterfit

    if not Path(scatterfit.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"scatterfit was imported from {scatterfit.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "cpu_isolation": "none: the benchmark pins no CPU and isolates none, so other processes may share its cores",
        "platform": platform.platform(),
    }


def setup_probe(name: str, seed: int, tiny: bool) -> dict:
    """Time one fresh-interpreter set-up, raw and scaled to the reference speed."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)] + (["--tiny"] if tiny else [])
    before = reference_s()
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    after = reference_s()
    if proc.returncode != 0:
        raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return {"wall_s": wall, "scaled_s": _scaled(wall, before, after), **json.loads(proc.stdout.strip().splitlines()[-1])}


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def reference_s() -> float:
    """Median time of one pass of the fixed reference kernel."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _scaled(wall: float, before: float, after: float) -> float:
    """Wall time at the reference speed, from the reference times around it."""
    return wall * 2.0 * REFERENCE_NOMINAL_S / (before + after)


def run_cycles(workload, seconds: float | None = None, count: int | None = None) -> list[list]:
    """Closed loop of whole cycles: `count` of them, or as many as start within
    `seconds` (at least one). Sets every operation's scaled time."""
    cycles = []
    end = time.perf_counter() + (seconds or 0.0)
    before = reference_s()
    while len(cycles) < (count or 1) or (count is None and time.perf_counter() < end):
        cycle = []
        for operation in workload.cycle(len(cycles)):
            op = operation()
            after = reference_s()
            op.scaled_s = _scaled(op.wall_s, before, after)
            before = after
            cycle.append(op)
        cycles.append(cycle)
    return cycles


def end_to_end(workload, probes: list[dict], cycles: list[list], clock: str = "scaled_s") -> dict:
    """End-to-end metrics; times are the operations' `clock` attribute."""
    ops = [op for cycle in cycles for op in cycle if op.ok]
    fits = [op for op in ops if op.kind == "fit"]
    walls = [getattr(op, clock) for op in fits]

    def command_s(kind: str) -> float | None:
        medians = [_median(getattr(op, clock) for op in ops if op.kind == kind and op.scenario == scn.label)
                   for scn in workload.scenarios]
        return None if None in medians else sum(medians)

    return {
        "setup_s": _median(p[clock] for p in probes),
        "fits_per_s": len(fits) / sum(walls) if walls else None,
        "fit_s": _median(walls),
        "final_loss": _median(op.quality["final_loss"] for op in fits),
        "residual_ratio": _median(op.quality["residual_ratio"] for op in fits),
        "sweep_s": command_s("sweep"),
        "crlb_s": command_s("crlb"),
    }


def fit_tail(cycles: list[list]) -> dict | None:
    """Highest whole percentile of fit time with at least ten fits beyond it."""
    walls = sorted(op.scaled_s for cycle in cycles for op in cycle if op.kind == "fit" and op.ok)
    if len(walls) < 11:
        return None
    pct = (100 * (len(walls) - 10)) // len(walls)
    return {"percentile": pct, "fit_s": statistics.quantiles(walls, n=100)[pct - 1], "fits": len(walls)}


def per_layer(tracer, setup_tracer, probes: list[dict], untraced: list[list], traced: list[list]) -> dict:
    n = len(traced)
    fits = [op for cycle in traced for op in cycle if op.kind == "fit" and op.quality]
    iterations = sum(op.quality["iterations"] for op in fits)
    out = {}
    for fn in ("loss.batch_loss", "loss.batch_gradient", "model.unpack", "model.synthesize_profiles",
               "model.profile_jacobians", "waveform.autocorr", "waveform.autocorr_deriv"):
        out[f"{fn}.calls"] = tracer.calls[fn] / n
        out[f"{fn}.busy_s"] = tracer.busy[fn] / n
        out[f"{fn}.self_s"] = tracer.self_time[fn] / n
    out["waveform.autocorr.lags"] = tracer.counts["waveform.autocorr.lags"] / n
    out["scatterer.positions.busy_s"] = tracer.busy["scatterer.positions"] / n
    out["scatterer.jacobians.busy_s"] = tracer.busy["scatterer.jacobians"] / n
    searches = tracer.calls["estimate.line_search"]
    out["estimate.line_search.evals_per_iter"] = tracer.counts["estimate.line_search.evals"] / searches if searches else 0.0
    out["estimate.fit.iterations"] = iterations / len(fits) if fits else 0.0
    for status in ("converged", "stalled", "max_iters"):
        out[f"estimate.status.{status}"] = sum(op.quality["status"] == status for op in fits)
    out["estimate.iter_ms"] = 1e3 * tracer.busy["estimate.gradient_descent"] / iterations if iterations else 0.0
    out["estimate.self_s"] = sum(tracer.self_time[f"estimate.{fn}"]
                                 for fn in ("sequential_fit", "gradient_descent", "line_search")) / n
    out["estimate.crlb.busy_s"] = tracer.busy["estimate.crlb"] / n
    out["cli.crlb.self_s"] = tracer.self_time["cli.crlb"] / n
    out["cli.sweep_loss.self_s"] = tracer.self_time["cli.sweep_loss"] / n
    out["cli.import_s"] = _median(p["import_s"] for p in probes)
    out["cli.resolve_config.busy_s"] = setup_tracer.busy["cli.resolve_config"]
    out["sim.synthesize_pattern.busy_s"] = setup_tracer.busy["sim.synthesize_pattern"]
    wall_untraced = sum(op.scaled_s for cycle in untraced for op in cycle)
    wall_traced = sum(op.scaled_s for cycle in traced for op in cycle)
    out["trace.overhead"] = wall_traced / wall_untraced - 1.0
    return {name: out[name] for name in PER_LAYER}


def _identity_checks(untraced: list[list], traced: list[list]) -> list:
    """Tracing must not change a result: the same fits give bit-identical theta."""
    from workloads import Op

    checks = []
    for a, b in zip((op for c in untraced for op in c), (op for c in traced for op in c)):
        if a.kind == "fit":
            check = Op("check", a.scenario)
            if a.theta is None or b.theta is None or a.theta.tobytes() != b.theta.tobytes():
                check.problems.append("traced fit theta differs from the untraced fit with the same noise seed")
            checks.append(check)
    return checks


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        setup_reps: int = SETUP_REPS, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return its full result (also written to out_dir)."""
    use_package_source()
    from tracing import Tracer
    from workloads import Workload

    probes = [setup_probe(name, seed, tiny) for _ in range(setup_reps)]
    setup_tracer = Tracer()
    if trace:
        with setup_tracer:
            workload = Workload(name, seed, ROOT, tiny=tiny)
    else:
        workload = Workload(name, seed, ROOT, tiny=tiny)
    checks = workload.static_checks()

    work_dir = Path(out_dir) / f"work-{os.getpid()}"
    tracer = Tracer()
    traced = []
    try:
        workload.prepare(work_dir)
        cycles = run_cycles(workload, seconds=seconds / 2 if trace else seconds)
        if trace:
            with tracer:
                traced = run_cycles(workload, count=len(cycles))
            checks += _identity_checks(cycles, traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = checks + [op for cycle in cycles + traced for op in cycle]
    failed = [op for op in ops if not op.ok]
    metrics = end_to_end(workload, probes, cycles)
    shown, units = (per_layer(tracer, setup_tracer, probes, cycles, traced), PER_LAYER) if trace else (metrics, END_TO_END)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cycles": len(cycles),
        "environment": environment(),
        "result": result,
        "end_to_end": metrics,
        "end_to_end_wall": end_to_end(workload, probes, cycles, clock="wall_s"),
        "fit_s_tail": fit_tail(cycles),
        "setup_probes": probes,
        "problems": [f"{op.kind} {op.scenario}: {p}" for op in failed for p in op.problems],
        "operations": [op.record() for cycle in cycles for op in cycle],
    }
    if trace:
        record["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "first": [list(s) for s in tracer.spans],
            "calls": dict(tracer.calls),
        }
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(Path(out_dir) / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="single-profile, static-pattern, monte-carlo or bounds")
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0); sets every noise draw")
    parser.add_argument("--seconds", type=float, required=True, help="measured time; whole cycles run until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced rerun")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
