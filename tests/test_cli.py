"""Command line behavior: exits, outputs, digests, snapshot container."""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boussinesq_lab import cli, hormander
from boussinesq_lab import spectral as sp
from boussinesq_lab.cli import Check, main, read_snapshots, write_snapshots
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
    passed = {c["name"]: c["passed"] for c in report["checks"]}
    assert passed["max_jump_residual"] and passed["dissipation_rate_half_dt"]
    assert passed["rerun_identical"] and passed["roundtrip"]
    assert report["max_jump_residual"] < 1e-10


def test_audit_fails_a_run_that_blew_up(tmp_path, capsys):
    # unforced from a huge start, both runs blow up within a few steps; the
    # rates of the two truncated runs still shrink and with no jumps the jump
    # residual is 0, so only the blow-up records catch it, as in simulate
    cfg_file = tmp_path / "blow.ini"
    cfg_file.write_text("[grid]\nn = 32\ndt = 0.01\n\n[noise]\na = 0\ngrid_step = 0.01\n\n"
                        "[run]\nhorizon = 2.0\nseed = 5\namplitude = 1000\n")
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "simulate") == 1
    assert run_cli(cfg_file, out, "audit") == 1
    digest = load_config(cfg_file).digest[:12]
    report = json.loads((out / digest / "audit" / "audit.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == \
        ["blew_up", "blew_up_half_dt"]
    assert "FAIL  blew_up True == False" in capsys.readouterr().out


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
    assert summary["replay_max_rel_err"] <= 1e-10
    assert summary["replay_symbolic_mismatches"] == []
    assert summary["missing"] == []


def test_span_fails_a_grid_replay_off_by_1e_9(tiny_cfg, tmp_path, monkeypatch, capsys):
    # one product off by 1e-9 of the largest temperature coefficient fails
    # the replay record, and the command still writes its payload
    cfg_file, cfg = tiny_cfg
    real, calls = hormander.bracket_fields, []

    def nudged(pieces, n, params):
        fw, ft = real(pieces, n, params)
        if not calls:
            ft[0] += 1e-9 * np.abs(ft).max()
        calls.append(1)
        return fw, ft

    monkeypatch.setattr(hormander, "bracket_fields", nudged)
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "span", "--level", "4") == 1
    summary = json.loads((out / cfg.digest[:12] / "span" / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"] if not c["passed"]] == ["replay_max_rel_err"]
    assert summary["replay_symbolic_mismatches"] == []
    assert "FAIL  replay_max_rel_err" in capsys.readouterr().out


def test_span_fails_a_corrupted_prefactor(tiny_cfg, tmp_path, monkeypatch, capsys):
    # a log whose recorded prefactor is off by one fails the symbolic record,
    # and the payload names both checks of the derivation
    cfg_file, cfg = tiny_cfg
    real = cli.span_generation
    bad = [mode for mode, der in sorted(real(cfg.modes, 4).reached.items())
           if der.kind != "forced"][5]

    def corrupted(zset, level):
        res = real(zset, level)
        reached = dict(res.reached)
        reached[bad] = dataclasses.replace(reached[bad], prefactor=reached[bad].prefactor + 1)
        return dataclasses.replace(res, reached=reached)

    monkeypatch.setattr(cli, "span_generation", corrupted)
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "span", "--level", "4") == 1
    summary = json.loads((out / cfg.digest[:12] / "span" / "summary.json").read_text())
    assert summary["replay_symbolic_mismatches"] == [[list(bad), 0], [list(bad), 1]]
    failed = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert "replay_symbolic_mismatches" in failed
    assert "FAIL  replay_symbolic_mismatches 2 == 0" in capsys.readouterr().out


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


def test_malliavin_fails_a_probe_lower_bound_above_its_candidate(tiny_cfg, tmp_path,
                                                                  monkeypatch, capsys):
    # every eigenvalue the probe decomposes lifted by 1e-9 max(eig_max, 1)
    # lifts its Lagrangian lower bound over the candidate it evaluates
    # directly, and only the probe record fails
    cfg_file, cfg = tiny_cfg
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "malliavin") == 0
    fname = out / cfg.digest[:12] / "malliavin" / "malliavin.json"
    lift = 1e-9 * max(json.loads(fname.read_text())["eig_max"], 1.0)
    real = np.linalg.eigh

    def lifted(a, *args, **kwargs):
        vals, vecs = real(a, *args, **kwargs)
        return vals + lift, vecs

    monkeypatch.setattr(np.linalg, "eigh", lifted)
    assert run_cli(cfg_file, out, "malliavin") == 1
    report = json.loads(fname.read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["probe_lower"]
    assert report["probe_lower"] > report["probe_upper"]
    assert "FAIL  probe_lower" in capsys.readouterr().out


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
    assert report["tail_margin"] >= 2.0


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
# one check record for every verdict

# every command at c11's config (TINY) and the benchmark's five at the
# defaults: the exit code and each check's pass/fail, as the hand-written
# verdicts gave them before they became records; all pass but ergodicity's
# invariant statistics (4.59 sigma) and hitting bounds (all 0)
PINNED = [
    (TINY, ("simulate",), 0, {"blew_up": True}),
    (TINY, ("audit",), 0, {"blew_up": True, "blew_up_half_dt": True,
                           "dissipation_rate_half_dt": True, "max_jump_residual": True,
                           "rerun_identical": True, "roundtrip": True}),
    (TINY, ("malliavin", "--check-adjoint", "--control-windows", "2"), 0,
     {"degenerate": True, "eig_min": True, "probe_lower": True, "adjoint_gap": True,
      "recursion_residual_max": True}),
    (TINY, ("brackets",), 0, {"worst_symbolic_vs_operator": True,
                              "worst_operator_vs_numerical": True, "worst_psi_recovery": True}),
    (TINY, ("span",), 0, {"success": True, "replay_symbolic_mismatches": True,
                          "replay_max_rel_err": True}),
    (TINY, ("moments", "--paths", "4", "--eta-paths", "40"), 0,
     {"plateau_agreement_sigmas": True, "doubling_gap": True, "censored": True,
      "tail_margin": True}),
    (TINY, ("ergodicity", "--paths", "2", "--ep-horizon", "0.2", "--invariant-horizon", "3.0",
            "--radius", "1.0"), 1,
     {"eproperty_coupled": True, "eproperty_slope": True, "eproperty_gap_rise_max": True,
      "invariant_max_gap_sigmas": False, "hitting_lower_bound_min": False}),
    (None, ("simulate",), 0, {"blew_up": True}),
    (None, ("audit",), 0, {"blew_up": True, "blew_up_half_dt": True,
                           "dissipation_rate_half_dt": True, "max_jump_residual": True,
                           "rerun_identical": True, "roundtrip": True}),
    (None, ("malliavin", "--check-adjoint"), 0,
     {"degenerate": True, "eig_min": True, "probe_lower": True, "adjoint_gap": True}),
    (None, ("brackets",), 0, {"worst_symbolic_vs_operator": True,
                              "worst_operator_vs_numerical": True, "worst_psi_recovery": True}),
    (None, ("span",), 0, {"success": True, "replay_symbolic_mismatches": True,
                          "replay_max_rel_err": True}),
]


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """Exit code and command directory of every PINNED run."""
    base = tmp_path_factory.mktemp("pinned")
    (base / "tiny.ini").write_text(TINY)
    runs = []
    for i, (text, argv, _, _) in enumerate(PINNED):
        out = base / f"run{i}"
        cfg = ["--config", str(base / "tiny.ini")] if text else []
        code = main([*cfg, "--out", str(out), *argv])
        digest = (load_config(base / "tiny.ini") if text else RunConfig()).digest[:12]
        runs.append((code, out / digest / argv[0]))
    return runs


def _payload(command_dir: Path) -> dict:
    """The command's one payload JSON; span.json is the derivation log."""
    names = [p for p in command_dir.glob("*.json") if p.name != "span.json"]
    assert len(names) == 1, names
    return json.loads(names[0].read_text())


def test_verdicts_match_the_pinned_matrix(pinned_runs):
    for (_, argv, code, passed), (got, command_dir) in zip(PINNED, pinned_runs):
        checks = _payload(command_dir)["checks"]
        assert (got, {c["name"]: c["passed"] for c in checks}) == (code, passed), argv


def test_every_payload_holds_its_checks(pinned_runs):
    # each record carries its six fields, and the records all pass exactly
    # when the command exits 0
    fields = {"name", "value", "bound", "relation", "passed", "margin"}
    for (_, argv, _, _), (code, command_dir) in zip(PINNED, pinned_runs):
        checks = _payload(command_dir)["checks"]
        assert checks and all(set(c) == fields for c in checks), argv
        assert all(c["passed"] for c in checks) == (code == 0), argv
        assert all((c["margin"] is None) == (c["relation"] == "==") for c in checks), argv


def test_only_the_check_record_spells_a_verdict():
    # every verdict is a cli.Check that main prints and writes: no module
    # spells out a verdict word of its own, or decides one by raising
    pkg = Path(sp.__file__).parent
    words = ("'BAD'", '"BAD"', "'ok' if", '"ok" if', "DIFFER", "AssertionError")
    offenders = [f"{f.name}: {w}" for f in sorted(pkg.glob("*.py"))
                 for w in words if w in f.read_text()]
    offenders += [f"{f.name}:{node.lineno}: assert" for f in sorted(pkg.glob("*.py"))
                  for node in ast.walk(ast.parse(f.read_text()))
                  if isinstance(node, ast.Assert)]
    assert offenders == []


def test_payload_json_is_strict_when_a_bound_is_infinite(tmp_path):
    # an unforced run from rest has a dissipation rate of 0, under RATE_FLOOR,
    # so the dt/2 rate has no bound: its bound and margin are written as
    # null, which strict JSON readers accept, and the record still passes
    cfg_file = tmp_path / "quiet.ini"
    cfg_file.write_text(TINY.replace("[run]", "a = 0\n\n[run]") + "amplitude = 0\n")
    out = tmp_path / "runs"
    assert run_cli(cfg_file, out, "audit") == 0
    text = (out / load_config(cfg_file).digest[:12] / "audit" / "audit.json").read_text()

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    records = {c["name"]: c for c in json.loads(text, parse_constant=refuse)["checks"]}
    rate = records["dissipation_rate_half_dt"]
    assert rate["bound"] is None and rate["margin"] is None and rate["passed"]


def test_check_record_relations_and_margins():
    assert Check("gap", 1e-9, 1e-8, "<=").passed
    assert Check("gap", 1e-8, 1e-8, "<=").margin == 0.0
    assert not Check("gap", 2e-8, 1e-8, "<=").passed
    assert Check("gap", 2e-8, 1e-8, "<=").margin == -1e-8
    assert Check("slope", 0.9, 0.8, ">=").margin == pytest.approx(0.1)
    assert not Check("rise", 0.0, 0.0, "<").passed and not Check("min", 0.0, 0.0, ">").passed
    assert not Check("sigmas", float("nan"), 3.0, "<=").passed
    flag = Check("blew_up", True, False, "==")
    assert not flag.passed and flag.margin is None
    assert str(flag) == "blew_up True == False"
    assert str(Check("gap", 2.5e-9, 1e-8, "<=")) == "gap 2.5e-09 <= 1e-08, margin 7.5e-09"


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
