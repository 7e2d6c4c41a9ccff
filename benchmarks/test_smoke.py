"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmarks

Every workload must emit exactly the metric names and units BENCHMARK.json
lists, in both modes, and an injected wrong result must count toward the
failed ops instead of crashing the run.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from boussinesq_lab import cli, spectral, variation  # noqa: E402
from boussinesq_lab.config import RunConfig  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ensemble": dict(paths=4, steps=4),
    "long_path": dict(horizon=3.0, n=16),
    "gramian": dict(n=8, level=2, p_level=1),
    "cli": dict(config=RunConfig(n=16, dt=5e-3, grid_step=1e-2, horizon=0.1),
                commands=(("simulate",), ("audit",),
                          ("malliavin", "--check-adjoint", "--window", "0.02"),
                          ("brackets",), ("span", "--level", "3"))),
}


def tiny_run(name, tmp_path, trace=0):
    return run.run(name, seed=3, seconds=0.0, trace=trace, scratch=tmp_path / name,
                   probes=0, **TINY[name])


def units_by_name(result):
    return {key: m["unit"] for key, m in result["metrics"].items()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics(name, tmp_path):
    result, record = tiny_run(name, tmp_path)
    assert units_by_name(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_frac"] == 0.0
    assert record["context"]["src_lines"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics(name, tmp_path):
    result, record = tiny_run(name, tmp_path, trace=1)
    assert units_by_name(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["correct"], record["failures"]
    assert result["metrics"]["spectral.fft.calls"]["value"] > 0


def test_perturbed_gramian_is_a_failed_op(tmp_path, monkeypatch):
    exact = variation.malliavin_backward

    def perturbed(*args, **kwargs):
        res = exact(*args, **kwargs)
        res.matrix = res.matrix * (1.0 + 1e-6)
        return res

    monkeypatch.setattr(variation, "malliavin_backward", perturbed)
    result, record = tiny_run("gramian", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_frac"] == 1.0
    assert "forward/adjoint gap" in record["failures"][0]


def test_wrong_probe_is_a_failed_op(tmp_path, monkeypatch):
    exact = variation.min_eigen_probe

    def shifted(matrix, *args, **kwargs):
        res = exact(matrix, *args, **kwargs)
        lift = 2.0 * np.linalg.norm(matrix)
        return dataclasses.replace(res, lower=res.lower + lift, upper=res.upper + lift)

    monkeypatch.setattr(variation, "min_eigen_probe", shifted)
    result, record = tiny_run("gramian", tmp_path)
    assert result["failed"] == result["attempted"] >= 1
    assert "probe [" in record["failures"][0]


def test_mismatched_artifact_is_a_failed_op(tmp_path, monkeypatch):
    exact = cli.save_path
    calls = []

    def drifting(path, fh):
        exact(path, fh)
        calls.append(1)
        fh.write(f"# call {len(calls)}\n")

    monkeypatch.setattr(cli, "save_path", drifting)
    result, record = tiny_run("cli", tmp_path)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert record["failed_frac"] == 0.5
    assert "simulate/clock_path.txt" in record["failures"][0]


class Drifting(workloads.Workload):
    """Does one more nonlinear_B call on every pass."""

    def __init__(self):
        self.passes = 0

    def op(self, i):
        self.passes += 1
        state = spectral.state_zeros(8)
        for _ in range(self.passes):
            spectral.nonlinear_B(state)
        return None

    def units(self, result):
        return 1

    def check(self, i, result):
        return None


def test_count_mismatch_between_traced_passes_is_an_error():
    exact = spectral.nonlinear_B
    out = run.traced(Drifting())
    assert any("exact count spectral.nonlinear_B.calls differs" in f for f in out["failures"])
    assert spectral.nonlinear_B is exact


def test_batch_rerun_matches_bit_for_bit(tmp_path):
    wl = workloads.build("ensemble", 5, tmp_path, **TINY["ensemble"])
    out = wl.op(1)
    assert wl.check(1, out) is None
    b = workloads.op_seed(5, 1) % wl.paths
    out.w_hat[b] *= 1.0 + 1e-12
    assert "B=1 rerun" in wl.check(1, out)
