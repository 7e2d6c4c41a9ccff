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


def test_malliavin_control_windows_refuse_a_coarse_clock_grid(tmp_path, capsys):
    # at nu = 200 two renewals fit in one clock cell of 0.01, so the control
    # windows are a usage error: exit 2 before any output directory is made
    cfg_file = tmp_path / "fast.ini"
    cfg_file.write_text(TINY.replace("[run]", "[physics]\nnu1 = 200.0\nnu2 = 200.0\n\n[run]"))
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin", "--control-windows", "2") == 2
    assert not out.exists()
    assert "argument --control-windows 2: nu 200.0 times clock grid step 0.01 exceeds 1" \
        in capsys.readouterr().err


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
    for bad in ("0.3", "0.1", "-0.5"):     # not a multiple, under one step, negative
        # a usage error: exit 2 before any output directory is made
        assert run_cli(cfg_file, out, "malliavin", "--window", bad) == 2
        assert not out.exists()
        assert f"argument --window {bad}: window must be a positive multiple of grid.dt" \
            in capsys.readouterr().err
    assert run_cli(cfg_file, out, "malliavin", "--window", "2.0000000015") == 0
    assert "window must be" not in capsys.readouterr().err


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
    # the arguments it ran with, null for the parts it skipped
    assert report["args"] == {"paths": 6, "ep_horizon": 0.2, "invariant_horizon": None,
                              "radius": None, "mesh_scale": None}


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


def test_bad_run_horizon_is_usage_error(tmp_path, capsys):
    # run.horizon must be a multiple of grid.dt (0.005 here) for every
    # command, and for moments span whole clock cells (0.01) and whole
    # records of 10 steps; exit 2 before any output directory is made
    out = tmp_path / "runs"
    for horizon, commands, why in (
            ("0.0175", ("simulate", "audit", "moments"),
             "run.horizon 0.0175: horizon must be a multiple of the step size 0.005"),
            ("0.015", ("moments",), "run.horizon 0.015: horizon must be a multiple of the grid step"),
            ("0", ("moments",), "run.horizon 0.0: horizon must span at least one grid cell"),
            ("0.02", ("moments",),
             "run.horizon 0.02: horizon of 4 steps is not a multiple of record_every = 10")):
        cfg_file = tmp_path / f"horizon{horizon}.ini"
        cfg_file.write_text(TINY.replace("horizon = 0.5", f"horizon = {horizon}"))
        for command in commands:
            assert run_cli(cfg_file, out, command) == 2, (horizon, command)
            assert not out.exists(), (horizon, command)
            assert why in capsys.readouterr().err, (horizon, command)


@pytest.mark.parametrize("argv", [
    ("malliavin", "--alpha", "2"),
    ("malliavin", "--control-windows", "-1"),
    ("span", "--level", "0"),
    ("moments", "--paths", "1"),
    ("moments", "--eta-paths", "1"),
    ("ergodicity", "--paths", "0"),
    ("moments", "--kappa-frac", "-1"),
    ("moments", "--kappa-frac", "0"),
    ("ergodicity", "--radius", "-1"),
    ("ergodicity", "--radius", "0"),
])
def test_out_of_range_argument_is_usage_error(tmp_path, capsys, argv):
    # refused by the parser: exit 2 before any output directory is made
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), *argv])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument {argv[1]}" in capsys.readouterr().err


def test_off_grid_ergodicity_horizon_is_usage_error(tiny_cfg, tmp_path, capsys):
    # both horizons must lie on the clock grid (0.01 here) and hold what
    # their checks need, checked against the config before any output
    # directory is made: the e-property one grid cell at least, the invariant
    # statistics 20 batch means after the burn-in (0.5 leaves 9 records), and
    # both a whole number of records (one every 10 steps); the defaults do
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    for flag, value, why in (
            ("--ep-horizon", "0.205", "horizon must be a multiple of the grid step"),
            ("--invariant-horizon", "3.005", "horizon must be a multiple of the grid step"),
            ("--ep-horizon", "0", "horizon must span at least one grid cell"),
            ("--invariant-horizon", "0.5", "horizon leaves 9 records after the burn-in"),
            ("--ep-horizon", "0.01", "horizon of 2 steps is not a multiple of record_every = 10")):
        assert run_cli(cfg_file, out, "ergodicity", "--paths", "2", flag, value) == 2
        assert not out.exists()
        assert f"argument {flag} {float(value)}: {why}" in capsys.readouterr().err
    # with --radius, run.horizon is the hitting probe's and must span whole cells
    for horizon, why in (("0", "horizon must span at least one grid cell"),
                         ("0.015", "horizon must be a multiple of the grid step")):
        short = tmp_path / f"horizon{horizon}.ini"
        short.write_text(TINY.replace("horizon = 0.5", f"horizon = {horizon}"))
        assert run_cli(short, out, "ergodicity", "--paths", "2", "--radius", "1") == 2
        assert not out.exists()
        assert f"argument --radius 1.0: run.horizon {float(horizon)}: {why}" \
            in capsys.readouterr().err
    assert run_cli(cfg_file, out, "ergodicity", "--paths", "2") == 0
    assert (out / cfg.digest[:12] / "ergodicity" / "ergodicity.json").is_file()


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


# Public scipy subpackages a fresh `import boussinesq_lab.cli` may load; every
# bqlab command pays for each one at start-up. Adding one needs a stated
# reason and its measured import cost: scipy.stats, dropped for
# scipy.special's betaincinv, added 0.40 s and 44 MiB to that import on a
# 2-vCPU x86_64 VM (README, Install).
SCIPY_IMPORT_ALLOWLIST = {"fft", "special", "version"}


def test_cli_import_loads_only_allowed_scipy_subpackages():
    # reads sys.modules of a fresh interpreter, never a clock
    code = ("import sys, boussinesq_lab.cli\n"
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
            "                       if m.startswith('scipy.')})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in proc.stdout.split() if not name.startswith("_")}
    assert "fft" in loaded
    assert loaded <= SCIPY_IMPORT_ALLOWLIST, sorted(loaded - SCIPY_IMPORT_ALLOWLIST)
