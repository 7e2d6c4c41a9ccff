"""Command line behavior: exits, outputs, digests, snapshot container."""

import json
import subprocess
import sys

import numpy as np
import pytest

from boussinesq_lab import spectral as sp
from boussinesq_lab.cli import main, read_snapshots, write_snapshots
from boussinesq_lab.config import RunConfig, load_config
from boussinesq_lab.noise import load_path

TINY = ("[grid]\nn = 16\ndt = 0.005\n\n[noise]\ngrid_step = 0.01\n\n"
        "[run]\nhorizon = 0.5\nseed = 5\n")


@pytest.fixture
def tiny_cfg(tmp_path):
    fname = tmp_path / "tiny.ini"
    fname.write_text(TINY)
    return fname, load_config(fname)


def run_cli(cfg_file, out, *extra):
    return main(["--config", str(cfg_file), "--out", str(out), *extra])


# ---------------------------------------------------------------------------
# snapshot container


def test_snapshot_roundtrip(tmp_path, rng):
    cfg = RunConfig(n=8)
    states = [sp.random_state(8, rng) for _ in range(3)]
    fname = tmp_path / "frames.bqlb"
    write_snapshots(fname, states, cfg)
    back, meta = read_snapshots(fname)
    assert meta["n"] == 8
    assert meta["count"] == 3
    assert meta["dt"] == cfg.dt
    assert meta["digest"] == cfg.digest[:16]
    for a, b in zip(back, states):
        assert np.array_equal(a.w_hat, b.w_hat)
        assert np.array_equal(a.theta_hat, b.theta_hat)


def test_snapshot_rejects_garbage(tmp_path, rng):
    cfg = RunConfig(n=8)
    fname = tmp_path / "frames.bqlb"
    write_snapshots(fname, [sp.random_state(8, rng)], cfg)
    data = bytearray(fname.read_bytes())

    bad = tmp_path / "bad.bqlb"
    bad.write_bytes(b"QLBB" + bytes(data[4:]))
    with pytest.raises(ValueError, match="not a snapshot"):
        read_snapshots(bad)

    bad.write_bytes(bytes(data[:-16]))
    with pytest.raises(ValueError, match="truncated snapshot frame"):
        read_snapshots(bad)

    bad.write_bytes(bytes(data[:10]))
    with pytest.raises(ValueError, match="truncated snapshot header"):
        read_snapshots(bad)

    versioned = bytes(data[:4]) + (2).to_bytes(4, "little") + bytes(data[8:])
    bad.write_bytes(versioned)
    with pytest.raises(ValueError, match="unsupported snapshot version"):
        read_snapshots(bad)


def test_snapshot_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="nothing to write"):
        write_snapshots(tmp_path / "x.bqlb", [], RunConfig())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs(tiny_cfg, tmp_path, capsys):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "simulate") == 0
    root = out / cfg.digest[:12]
    assert load_config(root / "config.ini") == cfg

    states, meta = read_snapshots(root / "simulate" / "trajectory.bqlb")
    assert meta["digest"] == cfg.digest[:16]
    assert meta["n"] == 16
    assert len(states) == meta["count"]

    series = (root / "simulate" / "series.csv").read_text()
    assert f"config {cfg.digest}" in series
    table = np.loadtxt(root / "simulate" / "series.csv", delimiter=",")
    assert table.shape == (101, 6)

    clock_text = (root / "simulate" / "clock_path.txt").read_text()
    assert f"# config: {cfg.digest}" in clock_text
    path = load_path(root / "simulate" / "clock_path.txt")
    assert path.spec.grid_step == 0.01

    summary = json.loads((root / "simulate" / "summary.json").read_text())
    assert summary["config_digest"] == cfg.digest
    assert summary["n_steps"] == 100
    assert not summary["blew_up"]
    assert "PASS" in capsys.readouterr().out


def test_simulate_reruns_byte_identical(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(cfg_file, out_a, "simulate") == 0
    assert run_cli(cfg_file, out_b, "simulate") == 0
    rel = f"{cfg.digest[:12]}/simulate/trajectory.bqlb"
    assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_seed_override_changes_digest(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "--seed", "6", "simulate") == 0
    assert cfg.with_seed(6).digest[:12] in {p.name for p in out.iterdir()}
    assert cfg.digest[:12] not in {p.name for p in out.iterdir()}


# ---------------------------------------------------------------------------
# verification commands


def test_audit_passes(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "audit") == 0
    report = json.loads((out / cfg.digest[:12] / "audit" / "audit.json").read_text())
    assert report["jump_ok"] and report["order_ok"]
    assert report["reproducible"] and report["roundtrip_ok"]
    assert report["max_jump_residual"] < 1e-10


def test_brackets_passes(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "brackets") == 0
    report = json.loads((out / cfg.digest[:12] / "brackets" / "brackets.json").read_text())
    assert report["worst_symbolic_vs_operator"] <= 1e-10
    assert report["worst_operator_vs_numerical"] <= 1e-6
    assert report["worst_psi_recovery"] <= 1e-6


def test_span_passes(tiny_cfg, tmp_path, capsys):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "span", "--level", "4") == 0
    base = out / cfg.digest[:12] / "span"
    assert (base / "span.log").read_text().strip().endswith("PASS")
    log = json.loads((base / "span.json").read_text())
    assert log["success"]
    summary = json.loads((base / "summary.json").read_text())
    assert summary["replay_max_rel_err"] <= 1e-8
    assert summary["missing"] == []


def test_malliavin_passes(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin", "--check-adjoint") == 0
    base = out / cfg.digest[:12] / "malliavin"
    report = json.loads((base / "malliavin.json").read_text())
    assert not report["degenerate"]
    assert report["adjoint_gap"] <= 1e-8
    matrix = np.loadtxt(base / "gramian.csv", delimiter=",")
    assert matrix.shape == (report["dim"], report["dim"])
    eigs = np.loadtxt(base / "eigenvalues.csv", delimiter=",")
    assert len(eigs) == report["dim"] and eigs[0] == report["eig_max"]


def test_malliavin_control_trace(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin", "--control-windows", "2") == 0
    base = out / cfg.digest[:12] / "malliavin"
    report = json.loads((base / "malliavin.json").read_text())
    assert report["control"]["recursion_residual_max"] <= 1e-6
    trace = (base / "control_trace.csv").read_text().splitlines()
    assert trace[0] == f"# config {cfg.digest}"
    # 4 paths, one row per window edge including the start
    assert len(trace) == 2 + 4 * 3


def test_malliavin_degenerate_fails(tmp_path, capsys):
    cfg_file = tmp_path / "dead.ini"
    cfg_file.write_text(TINY.replace("[run]", "a = 0.0\n\n[run]"))
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin") == 1
    assert "degenerate" in capsys.readouterr().out


def test_malliavin_window_follows_the_horizon_rule(tmp_path, capsys):
    # the window must be a multiple of dt to within 1e-9 max(1, window), the
    # rule of every sweep: 2 + 1.5e-9 is 8 steps of 0.25, which an absolute
    # 1e-9 would refuse
    cfg_file = tmp_path / "coarse.ini"
    cfg_file.write_text(TINY.replace("dt = 0.005", "dt = 0.25")
                        .replace("grid_step = 0.01", "grid_step = 0.25"))
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin", "--window", "2.0000000015") == 0
    assert "window must be" not in capsys.readouterr().err
    for bad in ("0.3", "0.1", "-0.5"):     # not a multiple, under one step, negative
        assert run_cli(cfg_file, out, "malliavin", "--window", bad) == 1
        assert "window must be a positive multiple of grid.dt" in capsys.readouterr().err


def test_moments_passes(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "moments", "--paths", "6",
                   "--eta-paths", "80") == 0
    report = json.loads((out / cfg.digest[:12] / "moments" / "moments.json").read_text())
    assert report["plateau_agreement_sigmas"] <= 3.0
    assert report["censored"] == 0
    assert not report["heavy_tail"]


def test_ergodicity_eproperty_only(tiny_cfg, tmp_path):
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "ergodicity", "--skip-invariant",
                   "--paths", "6", "--ep-horizon", "0.2") == 0
    report = json.loads((out / cfg.digest[:12] / "ergodicity" / "ergodicity.json").read_text())
    assert report["eproperty"]["slope"] >= 0.8
    assert "invariant" not in report


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path), "simulate"]) == 2


def test_bad_config_value(tmp_path):
    # a bad value exits 2 before any output directory is made, whether
    # RunConfig's own checks or the noise model's refuse it
    for i, text in enumerate(["[grid]\nn = 7\n", "[noise]\nmodes = 0,0\n"]):
        bad = tmp_path / f"bad{i}.ini"
        bad.write_text(text)
        out = tmp_path / f"out{i}"
        assert main(["--config", str(bad), "--out", str(out), "simulate"]) == 2, text
        assert not out.exists(), text


@pytest.mark.parametrize("argv", [
    ("malliavin", "--alpha", "2"),
    ("malliavin", "--control-windows", "-1"),
    ("span", "--level", "0"),
    ("moments", "--paths", "1"),
    ("moments", "--eta-paths", "1"),
    ("ergodicity", "--paths", "0"),
])
def test_out_of_range_argument_is_usage_error(tmp_path, capsys, argv):
    # refused by the parser: exit 2 before any output directory is made
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), *argv])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument {argv[1]}" in capsys.readouterr().err


def test_malliavin_control_trace_follows_the_scheme(tiny_cfg, tmp_path):
    # the control windows run the configured scheme, so imex_euler and the
    # default etd_euler give different costate norms
    cfg_file, _ = tiny_cfg
    imex = tmp_path / "imex.ini"
    imex.write_text(TINY.replace("dt = 0.005", "dt = 0.005\nscheme = imex_euler"))
    traces = []
    for i, fname in enumerate((cfg_file, imex)):
        out = tmp_path / f"runs{i}"
        assert run_cli(fname, out, "malliavin", "--control-windows", "1") == 0
        cfg = load_config(fname)
        lines = (out / cfg.digest[:12] / "malliavin" / "control_trace.csv").read_text()
        traces.append(lines.splitlines()[1:])
    assert traces[0][0] == traces[1][0] == "# path,window,edge_step,costate_norm"
    assert len(traces[0]) == len(traces[1]) == 1 + 4 * 2
    assert traces[0] != traces[1]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "boussinesq_lab", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
