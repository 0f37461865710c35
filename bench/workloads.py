"""The benchmark's workloads: scenarios, operation cycles and correctness checks.

A workload is a closed loop with one caller. It repeats a cycle of
operations until its time is up; an operation is one fit or one CLI command,
and the next starts only when the previous one has returned. Every call into
scatterfit goes through the package's module attributes (``estimate.X``,
``cli.main``), never through names bound here, so a tracer that patches those
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from scatterfit import cli, estimate, loss, sim
from scatterfit.constants import C_LIGHT

SHIPPED = {
    "single": "configs/paper_single_profile.json",
    "static": "configs/paper_static_pattern.json",
}

_MC_LINE = (math.cos(0.2) * math.cos(0.3), math.cos(0.2) * math.sin(0.3), math.sin(0.2))

# Shape of acceptance scenario 7 (CRLB efficiency): one spherical scatterer,
# 11 bins, one aspect, sigma2 = 1e-4, coherent descent to its tolerances. The
# start is offset by (0.2, -0.2, 0.1), about 40x the CRLB standard deviations,
# so the path to the estimate, and the work per fit, is set by the start
# rather than by the noise draw. Scenario 7 itself starts 3e-4 from the truth,
# where the work per fit varies tenfold between noise seeds.
MONTE_CARLO_CONFIG = {
    "description": "Acceptance scenario 7 shape: one spherical scatterer, m=11, K=1, P=3.",
    "waveform": {"bandwidth_hz": 200e6, "center_frequency_hz": 150e6, "duration_s": 1e-6, "amplitude": 1000.0},
    "grid": {"b0_m": -1.0, "delta_m": C_LIGHT / (4.0 * 200e6), "m_samples": 11},
    "scatterers": [
        {"amplitude": {"type": "fixed", "s_re": 1.0, "s_im": 0.0}, "position": {"type": "spherical", "rho_s": 1.0}}
    ],
    "geometry": {"sightlines": [list(_MC_LINE)]},
    "noise": {"sigma2": 1e-4, "seed": 0},
    "fit": {
        "strategy": "coherent",
        "initial_model": [
            {"amplitude": {"type": "fixed", "s_re": 1.2, "s_im": -0.2}, "position": {"type": "spherical", "rho_s": 1.1}}
        ],
        "descent": {"max_iters": 3000, "loss_rel_tol": 1e-12, "grad_norm_tol": 1e-8},
    },
}

SWEEP_HEADER = "offset,coherent_loss,noncoherent_loss,coherent_grad,noncoherent_grad"
CRLB_HEADER = "slot,std_lower_bound"
TRACE_HEADER = "iteration,loss,phase"
PROFILE_HEADER = "r_m,re,im,abs,power_dbw"


@dataclass(frozen=True)
class Spec:
    """What one cycle of a workload runs."""

    scenarios: tuple[str, ...]  # first one is fitted
    fit_budget: int | None  # per-phase max_iters override; None keeps the config's
    fits: int  # fits per cycle
    fit_via_cli: bool  # fit through `scatterfit fit` instead of the library
    crlbs: int  # `crlb` commands per scenario per cycle
    sweeps: int  # `sweep-loss` commands per scenario per cycle
    sweep_steps: int  # points per sweep


# Short commands run several times per cycle so that each run holds enough
# of them for a steady median. In `bounds` the fit is a 2+2-iteration CLI fit
# of the 64-aspect pattern: cheap, and its quality barely moves with the noise
# draw, unlike a short fit of the single profile.
SPECS = {
    "single-profile": Spec(("single",), 50, 2, False, 6, 3, 101),
    "static-pattern": Spec(("static",), 20, 1, False, 4, 1, 41),
    "monte-carlo": Spec(("monte-carlo",), None, 2, False, 6, 3, 201),
    "bounds": Spec(("static", "single"), 2, 2, True, 4, 1, 201),
}
WORKLOADS = tuple(SPECS)

# Smaller budgets for smoke tests; same code paths.
TINY = {
    "single-profile": Spec(("single",), 2, 1, False, 1, 1, 5),
    "static-pattern": Spec(("static",), 1, 1, False, 1, 1, 3),
    "monte-carlo": Spec(("monte-carlo",), 3, 1, False, 1, 1, 5),
    "bounds": Spec(("static", "single"), 1, 1, True, 1, 1, 3),
}


@dataclass
class Scenario:
    """One resolved config and the domain objects built from it."""

    label: str
    cfg: dict
    path: str | None = None  # resolved config written for the CLI
    _patterns: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.wf = cli.build_waveform(self.cfg)
        self.grid = cli.build_grid(self.cfg)
        self.truth = cli.build_model(self.cfg["scatterers"])
        self.lines = cli.build_sightlines(self.cfg)
        self.model0 = cli.build_model(self.cfg["fit"]["initial_model"])
        self.weight = cli.build_weight(self.cfg)
        self.descent = cli.build_descent(self.cfg["fit"]["descent"])
        self.sigma2 = self.cfg["noise"]["sigma2"]
        self.clean = np.stack([o.z for o in self.observe(None).observations])

    @property
    def sweep_slot(self) -> tuple[int, str]:
        """The slot `sweep-loss` steps: a range-like slot of scatterer 0."""
        return 0, "rho_s" if self.label == "monte-carlo" else "r_s"

    def observe(self, noise_seed: int | None):
        """Noisy observations for one noise seed (noise-free for None), cached."""
        if noise_seed not in self._patterns:
            spec = sim.NoiseSpec(0.0 if noise_seed is None else self.sigma2, noise_seed or 0)
            self._patterns[noise_seed] = sim.synthesize_pattern(self.truth, self.wf, self.grid, self.lines, spec)
        return self._patterns[noise_seed]


def load_scenario(label: str, root: Path, fit_budget: int | None) -> Scenario:
    if label == "monte-carlo":
        raw = copy.deepcopy(MONTE_CARLO_CONFIG)
    else:
        with open(root / SHIPPED[label], encoding="utf-8") as fh:
            raw = json.load(fh)
    cfg = cli.resolve_config(raw, need_fit=True)
    if fit_budget is not None:
        cfg["fit"]["descent"]["max_iters"] = fit_budget
    return Scenario(label, cfg)


def noise_seed(seed: int, index: int) -> int:
    """Noise seed of the index-th draw of a run; distinct runs get distinct draws."""
    return seed * 1_000_000 + index


@dataclass
class Op:
    """Outcome of one operation."""

    kind: str  # "check", "fit", "crlb" or "sweep"
    scenario: str
    wall_s: float = 0.0
    scaled_s: float | None = None  # wall_s at the reference host speed (run.py)
    problems: list[str] = field(default_factory=list)
    quality: dict | None = None
    theta: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        out = {"kind": self.kind, "scenario": self.scenario, "wall_s": self.wall_s, "scaled_s": self.scaled_s,
               "ok": self.ok}
        if self.problems:
            out["problems"] = self.problems
        if self.quality is not None:
            out.update(self.quality)
        return out


class Workload:
    """Builds a workload's inputs and runs its cycles."""

    def __init__(self, name: str, seed: int, root: Path, tiny: bool = False):
        if name not in SPECS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.seed = seed
        self.spec = (TINY if tiny else SPECS)[name]
        budgets = [self.spec.fit_budget] + [None] * (len(self.spec.scenarios) - 1)
        self.scenarios = [load_scenario(s, Path(root), b) for s, b in zip(self.spec.scenarios, budgets)]
        self.fitted = self.scenarios[0]
        for i in range(self.spec.fits):  # the first cycle's observations
            self.fitted.observe(noise_seed(seed, i))
        self.work_dir: Path | None = None

    # ------------------------------------------------------------ checks ---

    def static_checks(self) -> list[Op]:
        """Gradient against finite differences at the start point, and an exactly
        zero loss at the truth on noise-free data, for every scenario."""
        ops = []
        for scn in self.scenarios:
            obs = list(scn.observe(noise_seed(self.seed, 0)).observations)
            theta0 = scn.model0.pack()
            for kind in ("coherent", "noncoherent"):
                op = Op("check", scn.label)
                grad = loss.batch_gradient(obs, scn.model0, scn.wf, scn.weight, kind)
                fd = _fd_gradient(lambda th: loss.batch_loss(obs, scn.model0.unpack(th), scn.wf, scn.weight, kind), theta0)
                err = float(np.max(np.abs(grad - fd)) / max(float(np.max(np.abs(fd))), np.finfo(float).tiny))
                if not err < 1e-5:
                    op.problems.append(f"{kind} gradient differs from finite differences by {err:.2e} (relative)")
                ops.append(op)
            clean = list(scn.observe(None).observations)
            for kind in ("coherent", "noncoherent"):
                op = Op("check", scn.label)
                value = loss.batch_loss(clean, scn.truth, scn.wf, loss.WeightMatrix.identity(), kind)
                if value != 0.0:
                    op.problems.append(f"{kind} loss at the truth on noise-free data is {value!r}, not 0")
                ops.append(op)
        return ops

    # ----------------------------------------------------------- cycles ---

    def prepare(self, work_dir: Path) -> None:
        """Write each scenario's resolved config where the CLI can read it."""
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for scn in self.scenarios:
            scn.path = str(self.work_dir / f"{scn.label}.json")
            with open(scn.path, "w", encoding="utf-8") as fh:
                json.dump(scn.cfg, fh)

    def cycle(self, index: int) -> list[Callable[[], Op]]:
        """The operations of cycle `index`, in order, each ready to run."""
        spec = self.spec
        ops = []
        for j in range(spec.fits):
            ns = noise_seed(self.seed, index * spec.fits + j)
            ops.append(partial(self._cli_fit if spec.fit_via_cli else self._fit, ns))
        for scn in self.scenarios:
            ops += [partial(self._crlb, scn)] * spec.crlbs
        for scn in self.scenarios:
            for k in range(spec.sweeps):
                ops.append(partial(self._sweep, scn, noise_seed(self.seed, index * spec.sweeps + k)))
        return ops

    def _fit(self, ns: int) -> Op:
        scn = self.fitted
        pattern = scn.observe(ns)
        op = Op("fit", scn.label)
        strategy = scn.cfg["fit"]["strategy"]
        try:
            t0 = time.perf_counter()
            if strategy == "sequential":
                report = estimate.sequential_fit(pattern, scn.model0, scn.wf, scn.weight, scn.descent)
            else:
                report = estimate.gradient_descent(pattern, scn.model0, scn.wf, strategy, scn.weight, scn.descent)
            op.wall_s = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises is a failed operation
            op.problems.append(f"fit raised {type(exc).__name__}: {exc}")
            return op
        losses = [v for _, v in report.loss_trace]
        op.theta = np.array(report.theta, dtype=float)
        _assess_fit(op, scn, ns, report.status, report.iterations, losses, report.phase_boundary,
                    float(np.mean(report.residual_power)))
        return op

    def _cli(self, argv: list[str]) -> tuple[int | None, float, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an operation that raises is a failed operation
                return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        return code, wall, err.getvalue().strip()

    def _out(self, scn: Scenario, kind: str) -> Path:
        return self.work_dir / f"{scn.label}-{kind}"

    def _run_command(self, op: Op, argv: list[str]) -> bool:
        code, op.wall_s, message = self._cli(argv + ["--quiet"])
        if code != 0:
            op.problems.append(f"`{' '.join(argv[:1])}` exited {code}: {message}")
        return code == 0

    def _crlb(self, scn: Scenario) -> Op:
        op = Op("crlb", scn.label)
        out = self._out(scn, "crlb")
        if self._run_command(op, ["crlb", "--config", scn.path, "--out", str(out)]):
            _check_crlb(op, out, scn.truth.slot_labels())
        return op

    def _sweep(self, scn: Scenario, ns: int) -> Op:
        op = Op("sweep", scn.label)
        out = self._out(scn, "sweep")
        index, slot = scn.sweep_slot
        argv = ["sweep-loss", "--config", scn.path, "--out", str(out), "--seed", str(ns),
                "--scatterer", str(index), "--slot", slot, f"--range=-0.2:0.2:{self.spec.sweep_steps}"]
        if self._run_command(op, argv):
            rows = _read_csv(op, out / "sweep.csv", SWEEP_HEADER, self.spec.sweep_steps)
            if rows is not None and not all(math.isfinite(float(v)) for row in rows for v in row):
                op.problems.append("sweep.csv holds a non-finite value")
        return op

    def _cli_fit(self, ns: int) -> Op:
        scn = self.fitted
        op = Op("fit", scn.label)
        out = self._out(scn, "fit")
        if not self._run_command(op, ["fit", "--config", scn.path, "--out", str(out), "--seed", str(ns)]):
            return op
        try:
            with open(out / "fit_report.json", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            op.problems.append(f"cannot read fit_report.json: {exc}")
            return op
        trace = _read_csv(op, out / "loss_trace.csv", TRACE_HEADER, None)
        multi = len(scn.lines) > 1
        _read_csv(op, out / "residual.csv", "aspect_index," * multi + PROFILE_HEADER, scn.grid.m * len(scn.lines))
        if trace is None:
            return op
        op.theta = np.array(report["theta"], dtype=float)
        losses = [float(row[1]) for row in trace]
        residual = 10.0 ** (report["mean_residual_power_dbw"] / 10.0)
        _assess_fit(op, scn, ns, report["status"], report["iterations"], losses, report["phase_boundary"], residual)
        return op


# ------------------------------------------------------------- helpers ---

def _fd_gradient(f, theta: np.ndarray) -> np.ndarray:
    out = np.empty(theta.size)
    for j in range(theta.size):
        h = max(1e-7, 1e-7 * abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        out[j] = (f(tp) - f(tm)) / (2.0 * h)
    return out


def _assess_fit(op: Op, scn: Scenario, ns: int, status: str, iterations: int, losses: list[float],
                boundary: int | None, residual_power: float) -> None:
    """Quality record of one fit, and the checks every fit must pass."""
    z = np.stack([o.z for o in scn.observe(ns).observations])
    noise_power = float(np.mean(np.abs(z - scn.clean) ** 2))
    phases = [losses[:boundary], losses[boundary:]] if boundary else [losses]
    op.quality = {
        "noise_seed": ns,
        "status": status,
        "iterations": iterations,
        "phase_losses": [[p[0], p[-1]] for p in phases if p],
        "final_loss": losses[-1],
        "residual_db": 10.0 * math.log10(residual_power / scn.sigma2),
        "residual_ratio": residual_power / noise_power,
    }
    if op.theta.shape != (scn.model0.n_params,) or not np.all(np.isfinite(op.theta)):
        op.problems.append("fitted theta is not a finite vector of the model's size")
    if not all(math.isfinite(v) for v in losses) or not math.isfinite(residual_power):
        op.problems.append("fit reports a non-finite loss or residual")
    for p in phases:
        if p and p[-1] > p[0]:
            op.problems.append(f"a fit phase ended at loss {p[-1]!r}, above its start {p[0]!r}")


def _read_csv(op: Op, path: Path, header: str, rows: int | None) -> list[list[str]] | None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        op.problems.append(f"cannot read {path.name}: {exc}")
        return None
    if not table or ",".join(table[0]) != header:
        op.problems.append(f"{path.name} header is {table[0] if table else None}, expected {header}")
        return None
    if rows is not None and len(table) - 1 != rows:
        op.problems.append(f"{path.name} has {len(table) - 1} rows, expected {rows}")
        return None
    return table[1:]


def _check_crlb(op: Op, out: Path, labels: list[str]) -> None:
    rows = _read_csv(op, out / "crlb.csv", CRLB_HEADER, len(labels))
    if rows is not None and [r[0] for r in rows] != labels:
        op.problems.append("crlb.csv slot column does not match the model's slots")
    try:
        with open(out / "crlb_matrix.json", encoding="utf-8") as fh:
            fisher = np.array(json.load(fh)["fisher"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        op.problems.append(f"cannot read the Fisher matrix: {exc}")
        return
    if fisher.shape != (len(labels), len(labels)) or not np.all(np.isfinite(fisher)):
        op.problems.append(f"Fisher matrix has shape {fisher.shape} or non-finite entries")
        return
    if not np.array_equal(fisher, fisher.T):
        op.problems.append("Fisher matrix is not exactly symmetric")
    eigmin = float(np.min(np.linalg.eigvalsh(fisher)))
    if eigmin < -1e-10 * float(np.max(np.abs(fisher))):
        op.problems.append(f"Fisher matrix is not PSD (smallest eigenvalue {eigmin:.3e})")
    if not os.path.isfile(out / "resolved_config.json"):
        op.problems.append("crlb wrote no resolved_config.json")
