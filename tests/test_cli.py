"""End-to-end CLI behavior: configs, outputs, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

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
    assert np.allclose(parse_sweep_range("-0.1:0.1:5"), np.linspace(-0.1, 0.1, 5))
    for bad in ("1:2", "a:b:3", "0:1:1", "2:1:5", "inf:1:3"):
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
    assert set(report["slots"]) == {"s0.s_re", "s0.s_im", "s0.rho_s"}
    assert report["phase_boundary"] is not None
    assert isinstance(report["mean_residual_power_dbw"], float)
    # one gradient at each phase's start and one per accepted step
    assert report["grad_evals"] == report["iterations"] + 2
    assert report["loss_evals"] > report["grad_evals"]

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
    _, rows = read_rows(out / "loss_trace.csv")
    assert all(r[2] == "coherent" for r in rows)


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
    assert with_fit["fit"]["descent"]["line_search"]["bracket_growth"] == 2.0


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scatterfit.cli", "synth", "--config", cfg, "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "profile_noisy.csv").exists()
