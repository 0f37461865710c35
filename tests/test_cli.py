"""End-to-end CLI behavior: configs, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatterfit
import scatterfit.cli as cli
from scatterfit import (
    NoiseSpec,
    WeightMatrix,
    coherent_loss,
    coherent_loss_gradient,
    noncoherent_clamp,
    noncoherent_loss,
    noncoherent_loss_gradient,
    profile_jacobians,
    synthesize_pattern,
)
from scatterfit.cli import ConfigError, main, parse_sweep_range, resolve_config


def base_config(sigma2=0.0, seed=0, sightlines=None, **extra):
    cfg = {
        "waveform": {"bandwidth_hz": 500e6, "center_frequency_hz": 3e9, "amplitude": 1000.0},
        "grid": {"b0_m": -2.0, "delta_m": 0.15, "m_samples": 31},
        "scatterers": [
            {
                "amplitude": {"type": "fixed", "s_re": 1.0, "s_im": 0.0},
                "position": {"type": "spherical", "rho_s": 1.0},
            }
        ],
        "geometry": {"sightlines": sightlines or [[1.0, 0.0, 0.0]]},
        "noise": {"sigma2": sigma2, "seed": seed},
    }
    cfg.update(extra)
    return cfg


def fit_block(strategy="sequential", max_iters=3):
    return {
        "strategy": strategy,
        "initial_model": [
            {
                "amplitude": {"type": "fixed", "s_re": 0.9, "s_im": 0.0},
                "position": {"type": "spherical", "rho_s": 1.1},
            }
        ],
        "descent": {"max_iters": max_iters},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    text = path.read_text().strip().split("\n")
    return text[0], [line.split(",") for line in text[1:]]


def test_synth_single_aspect(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, rows = read_rows(out / "profile_noisy.csv")
    assert header == "r_m,re,im,abs,power_dbw"
    assert len(rows) == 31
    # peak sits at the projected range of the one scatterer
    mags = np.array([float(r[3]) for r in rows])
    ranges = np.array([float(r[0]) for r in rows])
    assert abs(ranges[int(np.argmax(mags))] - 1.0) <= 0.15
    assert (out / "profile_clean.csv").exists()
    assert (out / "resolved_config.json").exists()


def test_synth_zero_noise_matches_clean(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.0))
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "profile_noisy.csv").read_bytes() == (out / "profile_clean.csv").read_bytes()


def test_synth_multi_aspect_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(geometry={"sweep": {"count": 4, "elevation": 0.2}}),
    )
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, rows = read_rows(out / "profile_noisy.csv")
    assert header == "aspect_index,r_m,re,im,abs,power_dbw"
    assert len(rows) == 4 * 31
    assert sorted({r[0] for r in rows}) == ["0", "1", "2", "3"]


def test_echo_rerun_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.01, seed=3))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    echo = out1 / "resolved_config.json"
    assert main(["synth", "--config", str(echo), "--out", str(out2), "--quiet"]) == 0
    for name in ("profile_noisy.csv", "profile_clean.csv", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.01, seed=0))
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["synth", "--config", cfg, "--out", str(out2), "--seed", "7", "--quiet"]) == 0
    assert (out1 / "profile_noisy.csv").read_bytes() != (out2 / "profile_noisy.csv").read_bytes()
    echoed = json.loads((out2 / "resolved_config.json").read_text())
    assert echoed["noise"]["seed"] == 7
    # the echo reproduces the overridden run without the flag
    assert main(["synth", "--config", str(out2 / "resolved_config.json"), "--out", str(out3), "--quiet"]) == 0
    assert (out2 / "profile_noisy.csv").read_bytes() == (out3 / "profile_noisy.csv").read_bytes()


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_field_names_path(tmp_path, capsys):
    bad = base_config()
    del bad["waveform"]["center_frequency_hz"]
    cfg = write_config(tmp_path, bad)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "waveform" in err and "center_frequency_hz" in err


def test_unknown_key_names_path(tmp_path, capsys):
    bad = base_config()
    bad["grid"]["bins"] = 10
    cfg = write_config(tmp_path, bad)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "grid" in err and "bins" in err


DROP = object()

# one fault per config, applied to base_config(sigma2=0.01, fit=fit_block()):
# (case, {path: new value or DROP}, the exact ConfigError text)
CONFIG_FAULTS = [
    ("root-not-object", {(): []},
     "expected an object, got list"),
    ("waveform-not-object", {("waveform",): 5},
     "waveform: expected an object, got int"),
    ("grid-not-object", {("grid",): None},
     "grid: expected an object, got NoneType"),
    ("scatterers-not-list", {("scatterers",): {}},
     "scatterers: expected a non-empty list of scatterers"),
    ("scatterers-empty", {("scatterers",): []},
     "scatterers: expected a non-empty list of scatterers"),
    ("scatterer-not-object", {("scatterers", 0): "s"},
     "scatterers[0]: expected an object, got str"),
    ("amplitude-not-object", {("scatterers", 0, "amplitude"): 1.0},
     "scatterers[0].amplitude: expected an object, got float"),
    ("geometry-not-object", {("geometry",): []},
     "geometry: expected an object, got list"),
    ("sweep-not-object", {("geometry",): {"sweep": 4}},
     "geometry.sweep: expected an object, got int"),
    ("noise-not-object", {("noise",): None},
     "noise: expected an object, got NoneType"),
    ("fit-not-object", {("fit",): "sequential"},
     "fit: expected an object, got str"),
    ("descent-not-object", {("fit", "descent"): 5},
     "fit.descent: expected an object, got int"),
    ("initial-model-empty", {("fit", "initial_model"): []},
     "fit.initial_model: expected a non-empty list of scatterers"),
    ("root-unknown-key", {("grids",): {}},
     "unknown key 'grids' (allowed: description, fit, geometry, grid, noise, scatterers, waveform)"),
    ("waveform-unknown-key", {("waveform", "chirp"): 1},
     "waveform: unknown key 'chirp' (allowed: amplitude, bandwidth_hz, center_frequency_hz, duration_s)"),
    ("grid-unknown-key", {("grid", "bins"): 10},
     "grid: unknown key 'bins' (allowed: b0_m, delta_m, m_samples)"),
    ("scatterer-unknown-key", {("scatterers", 0, "phase"): 0.0},
     "scatterers[0]: unknown key 'phase' (allowed: amplitude, description, position)"),
    ("position-unknown-key", {("scatterers", 0, "position", "r_s"): 0.5},
     "scatterers[0].position: unknown key 'r_s' (allowed: rho_s, type)"),
    ("geometry-unknown-key", {("geometry", "aspects"): 3},
     "geometry: unknown key 'aspects' (allowed: description, sightlines, sweep)"),
    ("sweep-unknown-key", {("geometry",): {"sweep": {"count": 4, "step": 0.1}}},
     "geometry.sweep: unknown key 'step' (allowed: azimuth_start, azimuth_stop, count, elevation)"),
    ("noise-unknown-key", {("noise", "mean"): 0.0},
     "noise: unknown key 'mean' (allowed: seed, sigma2)"),
    ("fit-unknown-key", {("fit", "method"): "bfgs"},
     "fit: unknown key 'method' (allowed: descent, initial_model, strategy, weight)"),
    ("descent-unknown-key", {("fit", "descent", "tol"): 1e-3},
     "fit.descent: unknown key 'tol' (allowed: grad_norm_tol, loss_rel_tol, max_iters)"),
    ("line-search-block", {("fit", "descent", "line_search"): {"bracket_growth": 2.0, "max_bracket_steps": 40,
                                                                "section_tol": 1e-4}},
     "fit.descent: unknown key 'line_search' (allowed: grad_norm_tol, loss_rel_tol, max_iters)"),
    ("missing-waveform", {("waveform",): DROP},
     "missing required field 'waveform'"),
    ("missing-scatterers", {("scatterers",): DROP},
     "missing required field 'scatterers'"),
    ("missing-geometry", {("geometry",): DROP},
     "missing required field 'geometry'"),
    ("missing-bandwidth", {("waveform", "bandwidth_hz"): DROP},
     "waveform: missing required field 'bandwidth_hz'"),
    ("missing-center-frequency", {("waveform", "center_frequency_hz"): DROP},
     "waveform: missing required field 'center_frequency_hz'"),
    ("missing-slot", {("scatterers", 0, "amplitude", "s_im"): DROP},
     "scatterers[0].amplitude: missing required field 's_im'"),
    ("missing-position", {("scatterers", 0, "position"): DROP},
     "scatterers[0]: missing required field 'position'"),
    ("missing-sweep-count", {("geometry",): {"sweep": {"elevation": 0.1}}},
     "geometry.sweep: missing required field 'count'"),
    ("missing-strategy", {("fit", "strategy"): DROP},
     "fit: missing required field 'strategy'"),
    ("missing-initial-model", {("fit", "initial_model"): DROP},
     "fit: missing required field 'initial_model'"),
    ("missing-fit", {("fit",): DROP},
     "missing required field 'fit'"),
    ("null-fit", {("fit",): None},
     "fit: expected an object, got NoneType"),
    ("string-for-number", {("waveform", "duration_s"): "1us"},
     "waveform.duration_s: expected a number, got '1us'"),
    ("float-for-integer", {("grid", "m_samples"): 31.5},
     "grid.m_samples: expected an integer, got 31.5"),
    ("string-for-integer", {("fit", "descent", "max_iters"): "10"},
     "fit.descent.max_iters: expected an integer, got '10'"),
    ("number-for-string", {("fit", "strategy"): 3},
     "fit.strategy: expected a string, got 3"),
    ("number-for-description", {("description",): 5},
     "description: expected a string, got 5"),
    ("null-slot", {("scatterers", 0, "amplitude", "s_re"): None},
     "scatterers[0].amplitude.s_re: expected a number, got None"),
    ("bool-for-number", {("waveform", "amplitude"): True},
     "waveform.amplitude: expected a number, got True"),
    ("bool-for-integer", {("noise", "seed"): False},
     "noise.seed: expected an integer, got False"),
    ("bool-for-slot", {("scatterers", 0, "position", "rho_s"): True},
     "scatterers[0].position.rho_s: expected a number, got True"),
    ("non-finite-number", {("waveform", "center_frequency_hz"): float("inf")},
     "waveform.center_frequency_hz: must be finite, got inf"),
    ("non-finite-slot", {("scatterers", 0, "amplitude", "s_im"): float("nan")},
     "scatterers[0].amplitude.s_im: must be finite, got nan"),
    ("non-finite-tolerance", {("fit", "descent", "loss_rel_tol"): float("inf")},
     "fit.descent.loss_rel_tol: must be finite, got inf"),
    ("zero-bandwidth", {("waveform", "bandwidth_hz"): 0.0},
     "waveform.bandwidth_hz: must be > 0.0, got 0.0"),
    ("zero-duration", {("waveform", "duration_s"): 0.0},
     "waveform.duration_s: must be > 0.0, got 0.0"),
    ("zero-center-frequency", {("waveform", "center_frequency_hz"): 0},
     "waveform.center_frequency_hz: must be > 0.0, got 0"),
    ("zero-amplitude", {("waveform", "amplitude"): 0.0},
     "waveform.amplitude: must be > 0.0, got 0.0"),
    ("negative-delta", {("grid", "delta_m"): -0.15},
     "grid.delta_m: must be > 0.0, got -0.15"),
    ("zero-bins", {("grid", "m_samples"): 0},
     "grid.m_samples: must be >= 1, got 0"),
    ("zero-count", {("geometry",): {"sweep": {"count": 0}}},
     "geometry.sweep.count: must be >= 1, got 0"),
    ("negative-sigma2", {("noise", "sigma2"): -0.01},
     "noise.sigma2: must be >= 0.0, got -0.01"),
    ("negative-seed", {("noise", "seed"): -1},
     "noise.seed: must be >= 0, got -1"),
    ("negative-max-iters", {("fit", "descent", "max_iters"): -1},
     "fit.descent.max_iters: must be >= 0, got -1"),
    ("negative-loss-tol", {("fit", "descent", "loss_rel_tol"): -1e-8},
     "fit.descent.loss_rel_tol: must be >= 0.0, got -1e-08"),
    ("negative-grad-tol", {("fit", "descent", "grad_norm_tol"): -1.0},
     "fit.descent.grad_norm_tol: must be >= 0.0, got -1.0"),
    ("bad-strategy", {("fit", "strategy"): "newton"},
     "fit.strategy: expected one of ['coherent', 'noncoherent', 'sequential'], got 'newton'"),
    ("bad-weight", {("fit", "weight"): "ones"},
     "fit.weight: expected one of ['identity', 'inverse_noise'], got 'ones'"),
    ("bad-type", {("scatterers", 0, "position", "type"): "cone"},
     "scatterers[0].position.type: expected one of ['fixed_cylindrical', 'slipping', 'spherical'], got 'cone'"),
    ("bad-amplitude-type", {("scatterers", 0, "amplitude", "type"): "spherical"},
     "scatterers[0].amplitude.type: expected one of ['fixed'], got 'spherical'"),
    ("missing-type", {("scatterers", 0, "amplitude", "type"): DROP},
     "scatterers[0].amplitude: missing required field 'type'"),
    ("slot-of-other-type", {("scatterers", 0, "position"): {"type": "spherical", "r_s": 1.0}},
     "scatterers[0].position: unknown key 'r_s' (allowed: rho_s, type)"),
    ("negative-sphere-radius", {("scatterers", 0, "position", "rho_s"): -0.5},
     "scatterers[0].position: sphere radius must be >= 0, got -0.5"),
    ("negative-ring-radius", {("fit", "initial_model", 0, "position"): {"type": "slipping", "r_s": -1.0, "z_s": 0.0}},
     "fit.initial_model[0].position: ring radius must be >= 0, got -1.0"),
    ("two-sources", {("geometry", "sweep"): {"count": 3}},
     "geometry: give exactly one of 'sightlines' or 'sweep'"),
    ("no-source", {("geometry",): {"description": "none"}},
     "geometry: give exactly one of 'sightlines' or 'sweep'"),
    ("empty-sightlines", {("geometry", "sightlines"): []},
     "geometry.sightlines: expected a non-empty list of [x, y, z] vectors"),
    ("sightlines-not-list", {("geometry", "sightlines"): [1.0, 0.0, 0.0]},
     "geometry.sightlines[0]: expected a 3-component vector"),
    ("two-component-vector", {("geometry", "sightlines"): [[1.0, 0.0, 0.0], [1.0, 0.0]]},
     "geometry.sightlines[1]: expected a 3-component vector"),
    ("string-component", {("geometry", "sightlines"): [[1.0, "0", 0.0]]},
     "geometry.sightlines[0][1]: expected a number, got '0'"),
    ("zero-vector", {("geometry", "sightlines"): [[0.0, 0.0, 0.0]]},
     "geometry.sightlines[0]: cannot normalize direction with norm 0.000e+00"),
    ("inverse-noise-without-noise", {("noise", "sigma2"): 0.0, ("fit", "weight"): "inverse_noise"},
     "fit.weight: 'inverse_noise' needs noise.sigma2 > 0"),
]


@pytest.mark.parametrize("case, edits, message", CONFIG_FAULTS, ids=[c[0] for c in CONFIG_FAULTS])
def test_config_fault_messages(tmp_path, capsys, case, edits, message):
    cfg = base_config(sigma2=0.01, fit=fit_block())
    for path, value in edits.items():
        if not path:
            cfg = value
            continue
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    with pytest.raises(ConfigError) as exc:
        resolve_config(cfg, need_fit=True)
    assert str(exc.value) == message
    assert main(["fit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"waveform": }')
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_geometry_needs_exactly_one_source(tmp_path, capsys):
    bad = base_config()
    bad["geometry"]["sweep"] = {"count": 3}
    cfg = write_config(tmp_path, bad)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "geometry" in capsys.readouterr().err
    bad2 = base_config()
    bad2["geometry"] = {}
    cfg2 = write_config(tmp_path, bad2, "c2.json")
    assert main(["synth", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2


def test_bad_scatterer_values(tmp_path, capsys):
    bad = base_config()
    bad["scatterers"][0]["position"]["rho_s"] = -0.5
    cfg = write_config(tmp_path, bad)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "scatterers[0].position" in capsys.readouterr().err


def test_degenerate_sightline_in_config(tmp_path, capsys):
    bad = base_config(sightlines=[[0.0, 0.0, 0.0]])
    cfg = write_config(tmp_path, bad)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "geometry.sightlines[0]" in capsys.readouterr().err


def test_degenerate_aspect_is_an_evaluation_error(tmp_path, capsys):
    cfg_dict = base_config(sightlines=[[0.0, 0.0, 1.0]])
    cfg_dict["scatterers"][0]["position"] = {"type": "slipping", "r_s": 0.5, "z_s": 0.0}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "aspect 0" in capsys.readouterr().err


def test_parse_sweep_range():
    assert np.array_equal(parse_sweep_range("0:0:1"), [0.0])
    assert np.array_equal(parse_sweep_range("0:0:5"), [0.0] * 5)
    assert np.allclose(parse_sweep_range("-0.1:0.1:5"), np.linspace(-0.1, 0.1, 5))
    for bad in ("1:2", "a:b:3", "0:1:1", "2:1:5", "inf:1:3", "0:0:0", "0:0:-3"):
        with pytest.raises(ConfigError):
            parse_sweep_range(bad)


def test_sweep_loss_zero_width(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.01, seed=2))
    out = tmp_path / "out"
    code = main(
        ["sweep-loss", "--config", cfg, "--out", str(out), "--quiet",
         "--scatterer", "0", "--slot", "rho_s", "--range", "0:0:1"]
    )
    assert code == 0
    header, rows = read_rows(out / "sweep.csv")
    assert header == "offset,coherent_loss,noncoherent_loss,coherent_grad,noncoherent_grad"
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0


def test_sweep_loss_builds_the_truth_model_once(tmp_path, monkeypatch):
    # the command builds the truth model and synthesizes its observations from that same model
    built = []
    build_model = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda block: built.append(block) or build_model(block))
    cfg = write_config(tmp_path, base_config(sigma2=0.01, seed=2))
    args = ["sweep-loss", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
            "--scatterer", "0", "--slot", "rho_s", "--range=-0.1:0.1:3"]
    assert main(args) == 0
    assert len(built) == 1


def test_sweep_loss_minimum_at_truth(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.0))
    out = tmp_path / "out"
    code = main(
        ["sweep-loss", "--config", cfg, "--out", str(out), "--quiet",
         "--scatterer", "0", "--slot", "rho_s", "--range=-0.2:0.2:5"]
    )
    assert code == 0
    _, rows = read_rows(out / "sweep.csv")
    coh = [float(r[1]) for r in rows]
    non = [float(r[2]) for r in rows]
    assert coh[2] == 0.0 and non[2] == 0.0
    assert all(v > 0.0 for i, v in enumerate(coh) if i != 2)
    assert all(v > 0.0 for i, v in enumerate(non) if i != 2)


def test_sweep_loss_gradient_matches_row_differences(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.01, seed=1))
    out = tmp_path / "out"
    h = 1e-6
    code = main(
        ["sweep-loss", "--config", cfg, "--out", str(out), "--quiet",
         "--scatterer", "0", "--slot", "rho_s", f"--range=-{h}:{h}:3"]
    )
    assert code == 0
    _, rows = read_rows(out / "sweep.csv")
    vals = np.array([[float(c) for c in r] for r in rows])
    for loss_col, grad_col in ((1, 3), (2, 4)):
        fd = (vals[2, loss_col] - vals[0, loss_col]) / (2.0 * h)
        grad = vals[1, grad_col]
        assert abs(fd - grad) <= 1e-3 * max(abs(grad), 1e-3)


def test_sweep_loss_chunks_do_not_change_the_table(tmp_path, monkeypatch):
    # the points run as stacks of at most the lag budget of the swept
    # scatterer; smaller stacks, down to one point per stack, write the same
    # bytes, and the columns match a per-point evaluation of the whole model
    raw = base_config(sigma2=0.01, seed=3, geometry={"sweep": {"count": 4, "elevation": 0.2}})
    raw["scatterers"].append({
        "amplitude": {"type": "fixed", "s_re": 0.6, "s_im": 0.3},
        "position": {"type": "fixed_cylindrical", "r_s": 0.4, "phi_s": 0.7, "z_s": -0.2},
    })
    cfg_path = write_config(tmp_path, raw)
    lags_per_point = 4 * 31
    stacks = []

    def recording(model, wf, grid, lines, thetas=None):
        stacks.append(len(thetas))
        return profile_jacobians(model, wf, grid, lines, thetas)

    monkeypatch.setattr(cli, "profile_jacobians", recording)

    def sweep(out):
        stacks.clear()
        args = ["sweep-loss", "--config", cfg_path, "--out", str(out), "--quiet",
                "--scatterer", "1", "--slot", "r_s", "--range=-0.2:0.2:201"]
        assert main(args) == 0
        return (out / "sweep.csv").read_bytes(), list(stacks)

    table, sizes = sweep(tmp_path / "default")
    assert sizes == [201] and 201 * lags_per_point <= cli._SWEEP_LAGS
    monkeypatch.setattr(cli, "_SWEEP_LAGS", 50 * lags_per_point)
    chunked, sizes = sweep(tmp_path / "chunked")
    assert len(sizes) > 1 and sum(sizes) == 201
    assert max(sizes) * lags_per_point <= cli._SWEEP_LAGS
    assert chunked == table
    monkeypatch.setattr(cli, "_SWEEP_LAGS", 1)
    one_by_one, sizes = sweep(tmp_path / "single")
    assert sizes == [1] * 201
    assert one_by_one == table

    cfg = resolve_config(raw)
    model, wf = cli.build_model(cfg["scatterers"]), cli.build_waveform(cfg)
    grid, lines = cli.build_grid(cfg), cli.build_sightlines(cfg)
    zs = np.array([o.z for o in synthesize_pattern(model, wf, grid, lines, NoiseSpec(0.01, 3)).observations])
    w, clamp = WeightMatrix.identity(), noncoherent_clamp(wf)
    j = model.slot_labels().index("s1.r_s")
    want, grads = [], []
    for off in np.linspace(-0.2, 0.2, 201):
        theta = model.pack()
        theta[j] += off
        g, jac = profile_jacobians(model.unpack(theta), wf, grid, lines)
        want.append([repr(float(off)), repr(coherent_loss(zs, g, w)), repr(noncoherent_loss(zs, g, w))])
        grads.append([coherent_loss_gradient(zs, g, jac, w)[j], noncoherent_loss_gradient(zs, g, jac, w, clamp)[j]])
    _, rows = read_rows(tmp_path / "default" / "sweep.csv")
    assert [r[:3] for r in rows] == want
    got, grads = np.array([[float(v) for v in r[3:]] for r in rows]), np.array(grads)
    assert np.all(np.abs(got - grads) <= 1e-13 * np.max(np.abs(grads), axis=0))


def _whole_model_sweep(cfg, scatterer, slot, offsets) -> bytes:
    """The sweep table from the whole model's pass over the θ stack, column j
    of its full Jacobian, formatted as `sweep-loss` writes it."""
    model, wf = cli.build_model(cfg["scatterers"]), cli.build_waveform(cfg)
    grid, lines = cli.build_grid(cfg), cli.build_sightlines(cfg)
    noise = NoiseSpec(cfg["noise"]["sigma2"], cfg["noise"]["seed"])
    zs = np.stack([o.z for o in synthesize_pattern(model, wf, grid, lines, noise).observations])
    w, clamp = WeightMatrix.identity(), noncoherent_clamp(wf)
    j = model.slot_labels().index(f"s{scatterer}.{slot}")
    thetas = np.tile(model.pack(), (len(offsets), 1))
    thetas[:, j] += offsets
    g, jac = profile_jacobians(model, wf, grid, np.stack([l.vec for l in lines]), thetas)
    column = jac[..., j : j + 1]
    columns = (
        offsets,
        coherent_loss(zs, g, w),
        noncoherent_loss(zs, g, w),
        coherent_loss_gradient(zs, g, column, w)[:, 0],
        noncoherent_loss_gradient(zs, g, column, w, clamp)[:, 0],
    )
    rows = ["offset,coherent_loss,noncoherent_loss,coherent_grad,noncoherent_grad"]
    rows.extend(",".join(repr(float(v)) for v in point) for point in zip(*columns))
    return ("\n".join(rows) + "\n").encode()


_SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def _four_on_one_bin():
    # one aspect and one bin: numpy then reduces the scatterer axis pairwise,
    # so only the whole pass's reduction order gives its bits
    raw = base_config(sigma2=0.01, seed=5, grid={"b0_m": 0.3, "delta_m": 0.15, "m_samples": 1})
    raw["scatterers"] = [
        {"amplitude": {"type": "fixed", "s_re": 1.0, "s_im": 0.2},
         "position": {"type": "spherical", "rho_s": 0.35}},
        {"amplitude": {"type": "fixed", "s_re": 0.7, "s_im": -0.4},
         "position": {"type": "fixed_cylindrical", "r_s": 0.3, "phi_s": 0.5, "z_s": 0.1}},
        {"amplitude": {"type": "fixed", "s_re": 1.3, "s_im": 0.1},
         "position": {"type": "slipping", "r_s": 0.2, "z_s": -0.1}},
        {"amplitude": {"type": "fixed", "s_re": 0.4, "s_im": 0.9},
         "position": {"type": "spherical", "rho_s": 0.25}},
    ]
    return raw


@pytest.mark.parametrize("source", ["paper_single_profile.json", "paper_static_pattern.json", "four-on-one-bin"])
def test_sweep_loss_matches_the_whole_model_pass(tmp_path, source):
    # only the swept scatterer is re-evaluated per offset, yet every slot's
    # table is byte for byte the whole model's stacked pass
    raw = _four_on_one_bin() if source == "four-on-one-bin" else json.loads((_SHIPPED / source).read_text())
    cfg_path = write_config(tmp_path, raw)
    cfg = resolve_config(raw)
    spec = "-0.01:0.03:7"
    offsets = parse_sweep_range(spec)
    model = cli.build_model(cfg["scatterers"])
    for i, s in enumerate(model.scatterers):
        for slot in s.slot_names:
            out = tmp_path / f"s{i}.{slot}"
            args = ["sweep-loss", "--config", cfg_path, "--out", str(out), "--quiet",
                    "--scatterer", str(i), "--slot", slot, f"--range={spec}"]
            assert main(args) == 0
            assert (out / "sweep.csv").read_bytes() == _whole_model_sweep(cfg, i, slot, offsets), f"s{i}.{slot}"


def test_sweep_loss_argument_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    out = str(tmp_path / "o")
    args = ["sweep-loss", "--config", cfg, "--out", out, "--quiet"]
    assert main(args + ["--scatterer", "5", "--slot", "rho_s", "--range", "0:0:1"]) == 2
    assert "--scatterer" in capsys.readouterr().err
    assert main(args + ["--scatterer", "0", "--slot", "r_s", "--range", "0:0:1"]) == 2
    assert "--slot" in capsys.readouterr().err
    assert main(args + ["--scatterer", "0", "--slot", "rho_s", "--range", "0:1:1"]) == 2
    assert "--range" in capsys.readouterr().err


def test_fit_sequential(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.0001, seed=0, fit=fit_block()))
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["strategy"] == "sequential"
    assert report["status"] in ("converged", "max_iters", "stalled")
    # one status per phase, noncoherent first; the top-level status is the last phase's
    assert len(report["phase_statuses"]) == 2
    assert set(report["phase_statuses"]) <= {"converged", "max_iters", "stalled"}
    assert report["phase_statuses"][-1] == report["status"]
    # the rule that ended each phase, in the same order; both convergence rules read "converged"
    reasons = report["phase_stop_reasons"]
    assert len(reasons) == 2 and set(reasons) <= {"grad_norm", "loss_window", "max_iters", "stalled"}
    for reason, status in zip(reasons, report["phase_statuses"]):
        assert status == ("converged" if reason in ("grad_norm", "loss_window") else reason)
    assert set(report["slots"]) == {"s0.s_re", "s0.s_im", "s0.rho_s"}
    assert report["phase_boundary"] is not None
    assert isinstance(report["mean_residual_power_dbw"], float)
    # one gradient at each phase's start and one per accepted step
    assert report["grad_evals"] == report["iterations"] + 2
    assert report["loss_evals"] > report["grad_evals"]
    assert len(report["phase_loss_evals"]) == 2
    assert sum(report["phase_loss_evals"]) == report["loss_evals"]
    # forward calls for losses: a stacked call returns several loss values
    assert report["grad_evals"] < report["loss_calls"] <= report["loss_evals"]
    assert len(report["phase_loss_calls"]) == 2
    assert sum(report["phase_loss_calls"]) == report["loss_calls"]

    header, rows = read_rows(out / "loss_trace.csv")
    assert header == "iteration,loss,phase"
    phases = [r[2] for r in rows]
    boundary = report["phase_boundary"]
    assert all(p == "noncoherent" for p in phases[:boundary])
    assert all(p == "coherent" for p in phases[boundary:])
    for segment in (rows[:boundary], rows[boundary:]):
        losses = [float(r[1]) for r in segment]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    header, rows = read_rows(out / "residual.csv")
    assert header == "r_m,re,im,abs,power_dbw"
    assert len(rows) == 31


def test_fit_coherent_only_phase_column(tmp_path):
    cfg = write_config(tmp_path, base_config(sigma2=0.0001, fit=fit_block(strategy="coherent")))
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["phase_boundary"] is None
    assert report["phase_statuses"] == [report["status"]]
    assert len(report["phase_stop_reasons"]) == 1
    assert report["phase_loss_evals"] == [report["loss_evals"]]
    assert report["phase_loss_calls"] == [report["loss_calls"]]
    _, rows = read_rows(out / "loss_trace.csv")
    assert all(r[2] == "coherent" for r in rows)


def test_fit_zero_iteration_budget(tmp_path):
    # max_iters 0, which DescentConfig allows, fits nothing and reports the start
    cfg = write_config(tmp_path, base_config(sigma2=0.0001, fit=fit_block(max_iters=0)))
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["iterations"] == 0
    assert report["phase_statuses"] == ["max_iters", "max_iters"]
    assert report["theta"] == [0.9, 0.0, 1.1]
    assert (report["loss_evals"], report["loss_calls"], report["grad_evals"]) == (2, 2, 2)
    _, rows = read_rows(out / "loss_trace.csv")
    assert [r[2] for r in rows] == ["noncoherent", "coherent"]
    assert json.loads((out / "resolved_config.json").read_text())["fit"]["descent"]["max_iters"] == 0


def test_fit_requires_fit_block(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "fit" in capsys.readouterr().err


def test_fit_weight_needs_noise(tmp_path, capsys):
    block = fit_block()
    block["weight"] = "inverse_noise"
    cfg = write_config(tmp_path, base_config(sigma2=0.0, fit=block))
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "fit.weight" in capsys.readouterr().err


def test_crlb_identifiable(tmp_path):
    cfg_dict = base_config(sigma2=0.01, geometry={"sweep": {"count": 6, "elevation": 0.3}})
    cfg = write_config(tmp_path, cfg_dict)
    out = tmp_path / "out"
    assert main(["crlb", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, rows = read_rows(out / "crlb.csv")
    assert header == "slot,std_lower_bound"
    stds = {r[0]: float(r[1]) for r in rows}
    assert set(stds) == {"s0.s_re", "s0.s_im", "s0.rho_s"}
    assert all(np.isfinite(v) and v > 0.0 for v in stds.values())
    doc = json.loads((out / "crlb_matrix.json").read_text())
    assert doc["status"] == "ok"
    assert doc["condition"] > 0.0
    assert "covariance" in doc

    # doubling the aspects halves the variance: stds shrink by sqrt(2)
    cfg_dict2 = base_config(sigma2=0.01, geometry={"sweep": {"count": 12, "elevation": 0.3}})
    cfg2 = write_config(tmp_path, cfg_dict2, "c2.json")
    out2 = tmp_path / "out2"
    assert main(["crlb", "--config", cfg2, "--out", str(out2), "--quiet"]) == 0
    _, rows2 = read_rows(out2 / "crlb.csv")
    stds2 = {r[0]: float(r[1]) for r in rows2}
    for slot in stds:
        assert stds[slot] / stds2[slot] == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_crlb_singular_warns_but_succeeds(tmp_path, capsys):
    singular_target = {
        "waveform": {"bandwidth_hz": 500e6, "center_frequency_hz": 3e9, "amplitude": 1000.0},
        "scatterers": [
            {
                "amplitude": {"type": "fixed", "s_re": 1.0, "s_im": 0.0},
                "position": {"type": "fixed_cylindrical", "r_s": 0.5, "phi_s": 0.0, "z_s": 2.0},
            },
            {
                "amplitude": {"type": "fixed", "s_re": 2.0, "s_im": 0.0},
                "position": {"type": "fixed_cylindrical", "r_s": 0.0, "phi_s": 0.3927, "z_s": -2.0},
            },
            {
                "amplitude": {"type": "fixed", "s_re": 0.5, "s_im": 0.0},
                "position": {"type": "slipping", "r_s": 0.0, "z_s": 0.1},
            },
        ],
        "geometry": {"sightlines": [[0.8660254037844387, 0.0, 0.5]]},
        "noise": {"sigma2": 0.01},
    }
    cfg = write_config(tmp_path, singular_target)
    out = tmp_path / "out"
    assert main(["crlb", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert "singular" in capsys.readouterr().err
    _, rows = read_rows(out / "crlb.csv")
    assert all(r[1] == "nan" for r in rows)
    doc = json.loads((out / "crlb_matrix.json").read_text())
    assert doc["status"] == "singular"
    assert doc["condition"] is None
    assert len(doc["null_space"]) == 14


def test_crlb_requires_noise(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(sigma2=0.0))
    assert main(["crlb", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "noise.sigma2" in capsys.readouterr().err


def test_quiet_suppresses_progress(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
    assert "profile_noisy.csv" in capsys.readouterr().out


def test_resolve_config_materializes_defaults():
    resolved = resolve_config(base_config())
    assert resolved["waveform"]["duration_s"] == 1e-6
    assert resolved["grid"]["m_samples"] == 31
    assert resolved["noise"]["sigma2"] == 0.0
    assert resolved["noise"]["seed"] == 0
    sweep = resolve_config(base_config(geometry={"sweep": {"count": 3}}))
    assert sweep["geometry"]["sweep"]["azimuth_stop"] == pytest.approx(2.0 * np.pi)
    assert sweep["geometry"]["sweep"]["elevation"] == 0.0
    with_fit = resolve_config(base_config(sigma2=0.01, fit=fit_block()), need_fit=True)
    assert with_fit["fit"]["weight"] == "inverse_noise"
    assert with_fit["fit"]["descent"] == {"max_iters": 3, "loss_rel_tol": 1e-8, "grad_norm_tol": 1e-9}


def _table_keys(table):
    keys = set(table)
    for check, _ in table.values():
        if isinstance(check, dict):
            keys |= _table_keys(check)
    return keys


def test_readme_schema_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    types = cli._PRIMITIVE_TYPES.values()
    slots = {name for kinds in types for cls in kinds.values() for name in cls.slot_names}
    keys = _table_keys(cli._CONFIG) | _table_keys(cli._SCATTERER) | {"type"} | slots
    assert set(re.findall(r'"(\w+)"\s*:', schema)) == keys
    assert set(re.findall(r'"type":\s*"(\w+)"', schema)) == {name for kinds in types for name in kinds}


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    # the subprocess imports the same package tree as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(scatterfit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    # the subprocess imports the same package tree as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(scatterfit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "scatterfit.cli", "synth", "--config", cfg, "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (out / "profile_noisy.csv").exists()
