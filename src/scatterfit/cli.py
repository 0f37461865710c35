"""Command-line front end: config-driven synthesis, loss sweeps, fitting, CRLB.

One JSON config fully determines a run. Angles are radians, lengths meters,
frequencies hertz; no unit suffixes are parsed. Every command writes
resolved_config.json with all defaults materialized, so a run can be
reproduced bit for bit from its own output directory.

Exit codes: 0 success (a stalled fit is still a result), 2 config error,
3 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from .constants import C_LIGHT
from .estimate import (
    CrlbResult,
    DescentConfig,
    FitReport,
    crlb,
    gradient_descent,
    sequential_fit,
)
from .geometry import SightLine
from .loss import (
    WeightMatrix,
    coherent_loss,
    coherent_loss_gradient,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
)
from .model import PointScatteringModel, RangeGrid, profile_jacobians, synthesize_profiles
from .scatterer import (
    FixedAmplitude,
    FixedCylindrical,
    Scatterer,
    SlippingRing,
    Spherical,
)
from .sim import NoiseSpec, StaticPattern, synthesize_pattern, sweep_sightlines
from .waveform import LfmWaveform, lfm_from_band


class ConfigError(Exception):
    """Invalid config content; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------- schema ---

def _require_map(node, path):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    return node


def _as_float(value, path, minimum=None, exclusive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if minimum is not None:
        if exclusive and x <= minimum:
            raise ConfigError(path, f"must be > {minimum}, got {value!r}")
        if not exclusive and x < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value!r}")
    return x


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_str(value, path, choices=None):
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


# field defaults that are not values: the field must be given, or is left out when not given
_REQUIRED = object()
_OMIT = object()


def _resolve(node, path, table, root=None):
    """Check one config object against its field table; return it with every default materialized.

    table maps each allowed key to (check, default), in output order. A check
    is a nested table or a function (value, path) -> resolved value; a default
    is _REQUIRED, _OMIT, a value, or a function of root, the config resolved
    so far. Defaults are checked like given values.
    """
    node = _require_map(node, path)
    for key in node:
        if key not in table:
            raise ConfigError(path, f"unknown key '{key}' (allowed: {', '.join(sorted(table))})")
    out = {}
    root = out if root is None else root
    for key, (check, default) in table.items():
        if key in node:
            value = node[key]
        elif default is _REQUIRED:
            raise ConfigError(path, f"missing required field '{key}'")
        elif default is _OMIT:
            continue
        else:
            value = default(root) if callable(default) else default
        field = f"{path}.{key}" if path else key
        out[key] = _resolve(value, field, check, root) if isinstance(check, dict) else check(value, field)
    return out


# config type name -> primitive class, per scatterer part; a primitive's
# config fields are its slot_names
_PRIMITIVE_TYPES = {
    "amplitude": {"fixed": FixedAmplitude},
    "position": {"fixed_cylindrical": FixedCylindrical, "slipping": SlippingRing, "spherical": Spherical},
}


def _primitive(types):
    """The check of one scatterer part, whose `type` selects the slot fields allowed beside it."""
    type_field = {"type": (partial(_as_str, choices=set(types)), _REQUIRED)}

    def check(node, path):
        # the type is resolved first, since it decides which other keys are unknown
        given = {"type": node["type"]} if "type" in _require_map(node, path) else {}
        kind = _resolve(given, path, type_field)["type"]
        slots = dict.fromkeys(types[kind].slot_names, (_as_float, _REQUIRED))
        return _resolve(node, path, {**type_field, **slots})

    return check


_SCATTERER = {
    **{part: (_primitive(types), _REQUIRED) for part, types in _PRIMITIVE_TYPES.items()},
    "description": (_as_str, _OMIT),
}


def _build_scatterer(resolved, path):
    parts = {}
    for part, types in _PRIMITIVE_TYPES.items():
        block = resolved[part]
        cls = types[block["type"]]
        parts[part] = cls(*(block[f] for f in cls.slot_names))
        try:
            parts[part].validate()
        except ValueError as exc:
            raise ConfigError(f"{path}.{part}", str(exc)) from exc
    return Scatterer(parts["amplitude"], parts["position"])


def _model(node, path):
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a non-empty list of scatterers")
    resolved = []
    for i, item in enumerate(node):
        resolved.append(_resolve(item, f"{path}[{i}]", _SCATTERER))
        _build_scatterer(resolved[-1], f"{path}[{i}]")
    return resolved


def _sightlines(lines, path):
    if not isinstance(lines, list) or not lines:
        raise ConfigError(path, "expected a non-empty list of [x, y, z] vectors")
    resolved = []
    for i, vec in enumerate(lines):
        p = f"{path}[{i}]"
        if not isinstance(vec, list) or len(vec) != 3:
            raise ConfigError(p, "expected a 3-component vector")
        resolved.append([_as_float(c, f"{p}[{k}]") for k, c in enumerate(vec)])
        try:
            SightLine(resolved[-1])
        except ValueError as exc:
            raise ConfigError(p, str(exc)) from exc
    return resolved


_POSITIVE = partial(_as_float, minimum=0.0, exclusive=True)
_NON_NEGATIVE = partial(_as_float, minimum=0.0)
_COUNT = partial(_as_int, minimum=1)

_CONFIG = {
    "description": (_as_str, _OMIT),
    "waveform": ({
        "bandwidth_hz": (_POSITIVE, _REQUIRED),
        "duration_s": (_POSITIVE, 1e-6),
        "center_frequency_hz": (_POSITIVE, _REQUIRED),
        "amplitude": (_POSITIVE, 1.0),
    }, _REQUIRED),
    "grid": ({
        "b0_m": (_as_float, -5.0),
        "delta_m": (_POSITIVE, lambda cfg: C_LIGHT / (4.0 * cfg["waveform"]["bandwidth_hz"])),
        "m_samples": (_COUNT, 67),
    }, {}),
    "scatterers": (_model, _REQUIRED),
    "geometry": ({
        "description": (_as_str, _OMIT),
        "sightlines": (_sightlines, _OMIT),
        "sweep": ({
            "azimuth_start": (_as_float, 0.0),
            "azimuth_stop": (_as_float, 2.0 * math.pi),
            "count": (_COUNT, _REQUIRED),
            "elevation": (_as_float, 0.0),
        }, _OMIT),
    }, _REQUIRED),
    "noise": ({
        "sigma2": (_NON_NEGATIVE, 0.0),
        "seed": (partial(_as_int, minimum=0), 0),
    }, {}),
    "fit": ({
        "strategy": (partial(_as_str, choices={"coherent", "noncoherent", "sequential"}), _REQUIRED),
        "weight": (
            partial(_as_str, choices={"identity", "inverse_noise"}),
            lambda cfg: "inverse_noise" if cfg["noise"]["sigma2"] > 0.0 else "identity",
        ),
        "initial_model": (_model, _REQUIRED),
        "descent": ({
            "max_iters": (partial(_as_int, minimum=0), DescentConfig.max_iters),
            "loss_rel_tol": (_NON_NEGATIVE, DescentConfig.loss_rel_tol),
            "grad_norm_tol": (_NON_NEGATIVE, DescentConfig.grad_norm_tol),
        }, {}),
    }, _OMIT),
}


def resolve_config(raw: dict, need_fit: bool = False, seed_override: int | None = None) -> dict:
    """Validate a parsed config and materialize every default.

    Returns a plain dict (the resolved config); build_* helpers below turn
    its blocks into domain objects. Raises ConfigError on any violation.
    """
    out = _resolve(raw, "", _CONFIG)
    if ("sightlines" in out["geometry"]) == ("sweep" in out["geometry"]):
        raise ConfigError("geometry", "give exactly one of 'sightlines' or 'sweep'")
    if seed_override is not None:
        out["noise"]["seed"] = seed_override
    if "fit" not in out:
        if need_fit:
            raise ConfigError("", "missing required field 'fit'")
    elif out["fit"]["weight"] == "inverse_noise" and out["noise"]["sigma2"] <= 0.0:
        raise ConfigError("fit.weight", "'inverse_noise' needs noise.sigma2 > 0")
    return out


# ------------------------------------------------------- config -> domain ---

def build_waveform(cfg) -> LfmWaveform:
    w = cfg["waveform"]
    return lfm_from_band(w["bandwidth_hz"], w["center_frequency_hz"], w["duration_s"], w["amplitude"])


def build_grid(cfg) -> RangeGrid:
    g = cfg["grid"]
    return RangeGrid(g["b0_m"], g["delta_m"], g["m_samples"])


def build_model(block) -> PointScatteringModel:
    return PointScatteringModel(tuple(_build_scatterer(r, f"[{i}]") for i, r in enumerate(block)))


def build_sightlines(cfg) -> list[SightLine]:
    geom = cfg["geometry"]
    if "sightlines" in geom:
        return [SightLine(v) for v in geom["sightlines"]]
    s = geom["sweep"]
    return sweep_sightlines(s["count"], s["elevation"], s["azimuth_start"], s["azimuth_stop"])


def build_descent(block) -> DescentConfig:
    return DescentConfig(**block)


def build_weight(cfg) -> WeightMatrix:
    if cfg["fit"]["weight"] == "inverse_noise":
        return WeightMatrix.from_sigma2(cfg["noise"]["sigma2"])
    return WeightMatrix.identity()


# ---------------------------------------------------------------- output ---

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _power_dbw(re: float, im: float) -> float:
    p = re * re + im * im
    if p <= 1e-30:
        return -300.0
    return max(10.0 * math.log10(p), -300.0)


def profile_csv(samples: np.ndarray, grid: RangeGrid) -> str:
    """ProfileCsv text for a (K, m) pattern, with an aspect_index column when K > 1."""
    multi_aspect = len(samples) > 1
    bins = grid.bins
    lines = []
    header = "r_m,re,im,abs,power_dbw"
    if multi_aspect:
        header = "aspect_index," + header
    lines.append(header)
    for k, row in enumerate(samples):
        for b, v in zip(bins, row):
            cells = [_fmt(b), _fmt(v.real), _fmt(v.imag), _fmt(abs(v)), _fmt(_power_dbw(v.real, v.imag))]
            if multi_aspect:
                cells.insert(0, str(k))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(out_dir: str, name: str, text: str, quiet: bool) -> str:
    path = os.path.join(out_dir, name)
    _atomic_write(path, text)
    if not quiet:
        print(f"wrote {path}")
    return path


def _write_echo(out_dir: str, cfg: dict, quiet: bool) -> None:
    _write(out_dir, "resolved_config.json", json.dumps(cfg, indent=2) + "\n", quiet)


# -------------------------------------------------------------- commands ---

def _load_config(path: str, need_fit: bool, seed_override: int | None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return resolve_config(raw, need_fit=need_fit, seed_override=seed_override)


def _synthesize(cfg, truth: PointScatteringModel) -> tuple[StaticPattern, RangeGrid, list[SightLine], LfmWaveform]:
    wf = build_waveform(cfg)
    grid = build_grid(cfg)
    lines = build_sightlines(cfg)
    spec = NoiseSpec(cfg["noise"]["sigma2"], cfg["noise"]["seed"])
    pattern = synthesize_pattern(truth, wf, grid, lines, spec)
    return pattern, grid, lines, wf


def cmd_synth(cfg, out_dir: str, quiet: bool) -> int:
    pattern, grid, _, _ = _synthesize(cfg, build_model(cfg["scatterers"]))
    noisy = np.stack([o.z for o in pattern.observations])
    _write(out_dir, "profile_noisy.csv", profile_csv(noisy, grid), quiet)
    _write(out_dir, "profile_clean.csv", profile_csv(pattern.clean, grid), quiet)
    _write_echo(out_dir, cfg, quiet)
    return 0


def parse_sweep_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("--range", f"expected lo:hi:steps, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError("--range", f"expected lo:hi:steps with numeric parts, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("--range", "lo and hi must be finite")
    if hi < lo:
        raise ConfigError("--range", f"hi must be >= lo, got {spec!r}")
    if steps < 1:
        raise ConfigError("--range", f"need at least 1 step, got {steps}")
    if lo < hi and steps < 2:
        raise ConfigError("--range", "need at least 2 steps when lo < hi")
    return np.linspace(lo, hi, steps)


# Lags of the swept scatterer in one batched forward pass of `sweep-loss`:
# bounds the memory of a chunk of sweep points, whose temporaries and
# Jacobian grow with those lags.
_SWEEP_LAGS = 2**15


def cmd_sweep_loss(cfg, out_dir: str, quiet: bool, scatterer: int, slot: str, range_spec: str) -> int:
    offsets = parse_sweep_range(range_spec)
    model = build_model(cfg["scatterers"])
    if not 0 <= scatterer < len(model.scatterers):
        raise ConfigError("--scatterer", f"index {scatterer} out of range for {len(model.scatterers)} scatterers")
    names = model.scatterers[scatterer].slot_names
    if slot not in names:
        raise ConfigError("--slot", f"scatterer {scatterer} has no slot {slot!r} (has: {', '.join(names)})")
    j = names.index(slot)

    pattern, grid, lines, wf = _synthesize(cfg, model)
    zs = np.stack([o.z for o in pattern.observations])
    abs_zs = np.abs(zs)  # formed once: the noncoherent terms read only |z|, and |(|z|)| is |z|
    lmat = np.stack([l.vec for l in lines])
    w = WeightMatrix.identity()
    clamp = noncoherent_clamp(wf)
    # Only the swept scatterer moves, so only its one-scatterer model (the
    # model itself if it has one scatterer) runs per chunk; each other
    # scatterer's profile term is formed once.  The terms sit
    # in the scatterer rows of a (chunk, N, K, m) buffer, laid out as the whole
    # model's stacked pass lays them out, so the same reduction over those rows
    # gives the same bits as that pass.  The points run as stacks of at most
    # _SWEEP_LAGS lags of the swept scatterer (at least one point each).
    singles = [PointScatteringModel((s,)) for s in model.scatterers] if len(model.scatterers) > 1 else [model]
    swept = singles[scatterer]
    thetas = np.tile(swept.pack(), (len(offsets), 1))
    thetas[:, j] += offsets
    chunk = min(len(offsets), max(1, _SWEEP_LAGS // zs.size))
    terms = np.empty((chunk, len(singles)) + zs.shape, dtype=complex)
    for n, single in enumerate(singles):
        if n != scatterer:
            terms[:, n] = synthesize_profiles(single, wf, grid, lmat)

    rows = ["offset,coherent_loss,noncoherent_loss,coherent_grad,noncoherent_grad"]
    for start in range(0, len(offsets), chunk):
        points = slice(start, start + chunk)
        stack = thetas[points]
        part = terms[: len(stack)]
        part[:, scatterer], jac = profile_jacobians(swept, wf, grid, lmat, stack)
        g = np.add.reduce(part, axis=1)
        column = jac[..., j : j + 1]  # only the swept slot's gradient entry is written
        columns = (
            offsets[points],
            coherent_loss(zs, g, w),
            noncoherent_loss(abs_zs, g, w),
            coherent_loss_gradient(zs, g, column, w)[:, 0],
            noncoherent_loss_gradient(abs_zs, g, column, w, clamp)[:, 0],
        )
        rows.extend(",".join(_fmt(v) for v in point) for point in zip(*columns))
    _write(out_dir, "sweep.csv", "\n".join(rows) + "\n", quiet)
    _write_echo(out_dir, cfg, quiet)
    return 0


def _fit_report_json(report: FitReport, model: PointScatteringModel, strategy: str) -> str:
    labels = model.slot_labels()
    doc = {
        "strategy": strategy,
        "status": report.status,
        "phase_statuses": list(report.phase_statuses),
        "phase_stop_reasons": list(report.phase_stop_reasons),
        "iterations": report.iterations,
        "loss_evals": report.loss_evals,
        "phase_loss_evals": list(report.phase_loss_evals),
        "loss_calls": report.loss_calls,
        "phase_loss_calls": list(report.phase_loss_calls),
        "grad_evals": report.grad_evals,
        "phase_boundary": report.phase_boundary,
        "final_loss": report.final_loss,
        "theta": [float(v) for v in report.theta],
        "slots": {lab: float(v) for lab, v in zip(labels, report.theta)},
        "mean_residual_power_dbw": float(
            10.0 * math.log10(max(float(report.residual_power.mean()), 1e-30))
        ),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def cmd_fit(cfg, out_dir: str, quiet: bool) -> int:
    pattern, grid, _, wf = _synthesize(cfg, build_model(cfg["scatterers"]))
    fit_cfg = cfg["fit"]
    model0 = build_model(fit_cfg["initial_model"])
    descent = build_descent(fit_cfg["descent"])
    w = build_weight(cfg)
    strategy = fit_cfg["strategy"]
    if strategy == "sequential":
        report = sequential_fit(pattern, model0, wf, w, descent)
    else:
        report = gradient_descent(pattern, model0, wf, strategy, w, descent)

    _write(out_dir, "fit_report.json", _fit_report_json(report, report.model, strategy), quiet)

    rows = ["iteration,loss,phase"]
    boundary = report.phase_boundary
    for i, value in report.loss_trace:
        if strategy != "sequential":
            phase = strategy
        else:
            phase = "noncoherent" if boundary is not None and i < boundary else "coherent"
        rows.append(f"{i},{_fmt(value)},{phase}")
    _write(out_dir, "loss_trace.csv", "\n".join(rows) + "\n", quiet)

    _write(out_dir, "residual.csv", profile_csv(report.residual, grid), quiet)
    _write_echo(out_dir, cfg, quiet)
    if not quiet:
        print(f"fit status: {report.status} after {report.iterations} iterations")
    return 0


def _crlb_json(result: CrlbResult, labels) -> str:
    doc = {
        "status": "ok" if result.identifiable else "singular",
        "condition": None if math.isinf(result.condition) else result.condition,
        "slots": list(labels),
        "fisher": [[float(v) for v in row] for row in result.fisher],
    }
    if result.identifiable:
        doc["covariance"] = [[float(v) for v in row] for row in result.covariance]
    else:
        doc["null_space"] = [[float(v) for v in row] for row in result.null_space]
    return json.dumps(doc, indent=2) + "\n"


def cmd_crlb(cfg, out_dir: str, quiet: bool) -> int:
    if cfg["noise"]["sigma2"] <= 0.0:
        raise ConfigError("noise.sigma2", "crlb needs sigma2 > 0")
    wf = build_waveform(cfg)
    grid = build_grid(cfg)
    model = build_model(cfg["scatterers"])
    lines = build_sightlines(cfg)
    result = crlb(model, wf, grid, lines, cfg["noise"]["sigma2"])

    labels = model.slot_labels()
    rows = ["slot,std_lower_bound"]
    stds = result.std_bounds
    for i, lab in enumerate(labels):
        rows.append(f"{lab},{_fmt(stds[i]) if stds is not None else 'nan'}")
    _write(out_dir, "crlb.csv", "\n".join(rows) + "\n", quiet)
    _write(out_dir, "crlb_matrix.json", _crlb_json(result, labels), quiet)
    _write_echo(out_dir, cfg, quiet)
    if not result.identifiable:
        print(
            f"warning: Fisher information is singular; {result.null_space.shape[1]} "
            "unidentifiable direction(s) written to crlb_matrix.json",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------- driver ---

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterfit",
        description="Synthesize radar range profiles from point-scattering models, "
        "sweep loss landscapes, fit models by gradient descent, and evaluate CRLBs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override noise.seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    common(sub.add_parser("synth", help="write noisy and noise-free profiles"))
    p = sub.add_parser("sweep-loss", help="sweep one slot, tabulating losses and gradients")
    common(p)
    p.add_argument("--scatterer", type=int, required=True, help="scatterer index (0-based)")
    p.add_argument("--slot", required=True, help="slot name on that scatterer, e.g. r_s")
    p.add_argument("--range", required=True, dest="range_spec", metavar="LO:HI:STEPS", help="offset sweep, e.g. -0.2:0.2:201")
    common(sub.add_parser("fit", help="fit the configured initial model to the synthesized data"))
    common(sub.add_parser("crlb", help="evaluate parameter standard-deviation lower bounds"))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("config error: --seed: must be >= 0", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config, need_fit=args.command == "fit", seed_override=args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg, args.out, args.quiet)
        if args.command == "sweep-loss":
            return cmd_sweep_loss(cfg, args.out, args.quiet, args.scatterer, args.slot, args.range_spec)
        if args.command == "fit":
            return cmd_fit(cfg, args.out, args.quiet)
        return cmd_crlb(cfg, args.out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
