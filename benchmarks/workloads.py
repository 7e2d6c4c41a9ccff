"""The benchmark's four workloads, driven only through public package calls.

Each workload builds its inputs from a seed in its constructor, offers one
untimed `warmup` (a short op 0 that runs every code path of an op once), and
then runs ops numbered from 1. `op(i)` is the timed work and returns
whatever `check(i, result)` needs; `check` runs untimed and returns None or
a one-line failure reason. `units(result)` is the work an op did, in the
workload's `unit`. Package functions are called through their modules so
that the tracer's wrappers and the smoke tests' injected faults apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from boussinesq_lab import cli, ensembles, noise, spectral as sp, stepping, variation
from boussinesq_lab.config import RunConfig

PARAMS = sp.PhysicsParams()
MODEL = noise.NoiseModel()
SPEC = noise.SubordinatorSpec(grid_step=1e-2)
ETD = stepping.StepScheme.ETD_EULER


def op_seed(seed: int, i: int) -> int:
    """Package-facing seed of op i, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    unit = "ops"
    min_ops = 1           # timed ops even when --seconds runs out earlier
    trace_ops = 1         # fixed op count of each pass of a traced run

    def counts(self, result) -> dict:
        """Exact counts of an op, read after its check, that no span records."""
        return {}

    @staticmethod
    def span(name: str):
        """Context around one step of an op; a traced run swaps in its tracer's."""
        return contextlib.nullcontext()

    def close(self) -> None:
        pass


class Ensemble(Workload):
    """c05 shape: B paths from one amplitude-2 start through BatchRunner.

    At B=200 on n=32 each batch array is 3.2 MB, about L2 size, so batched FFT
    and elementwise throughput dominate and dispatch is spread over the batch.
    """

    unit = "path-steps"
    trace_ops = 2

    def __init__(self, seed: int, paths: int = 200, steps: int = 20):
        self.seed, self.paths, self.steps = seed, paths, steps
        self.stepper = stepping.Stepper(32, PARAMS, ETD, 5e-3)
        self.runner = ensembles.BatchRunner(self.stepper, MODEL)
        u0 = sp.random_state(32, noise.rng_stream(seed, noise.ROLE_INIT), amplitude=2.0)
        self.w0 = np.repeat(u0.w_hat[None], paths, axis=0)
        self.t0 = np.repeat(u0.theta_hat[None], paths, axis=0)
        self.horizon = steps * self.stepper.dt

    def _run(self, i, paths, key_offset=0, horizon=None):
        _, dw = ensembles.sample_noise_batch(SPEC, MODEL, horizon or self.horizon,
                                             op_seed(self.seed, i), paths, key_offset)
        return self.runner.run(self.w0[:paths], self.t0[:paths], dw, SPEC.grid_step,
                               record_every=4)

    def warmup(self) -> None:
        self._run(0, self.paths, horizon=4 * self.stepper.dt)

    def op(self, i):
        return self._run(i, self.paths)

    def units(self, result) -> int:
        return self.paths * self.steps

    def check(self, i, out):
        if not (np.isfinite(out.energy_sq).all() and np.isfinite(out.w_hat).all()
                and np.isfinite(out.theta_hat).all()):
            return "non-finite batch state"
        b = op_seed(self.seed, i) % self.paths
        one = self._run(i, 1, key_offset=b)
        if not (np.array_equal(one.w_hat[0], out.w_hat[b])
                and np.array_equal(one.theta_hat[0], out.theta_hat[b])
                and np.array_equal(one.energy_sq[0], out.energy_sq[b])):
            return f"path {b} differs from its B=1 rerun"
        return None


class LongPath(Workload):
    """c09 shape: one B=1 path each from rest and an amplitude-3 start, n=48.

    Arrays are 37 KB, so per-call overhead and the per-record Python
    observable loop dominate; batch-throughput changes should not show here.
    """

    unit = "steps"
    trace_ops = 2

    def __init__(self, seed: int, horizon: float = 10.0, n: int = 48):
        self.seed, self.horizon = seed, horizon
        self.stepper = stepping.Stepper(n, PARAMS, ETD, 1e-2)
        big = sp.random_state(n, noise.rng_stream(seed, noise.ROLE_INIT), amplitude=3.0)
        self.initials = [sp.state_zeros(n), big]
        self.observables = ensembles.default_observables()
        self.reference = None

    def warmup(self) -> None:
        self.op(0, horizon=3.0)     # the shortest horizon that fills 20 batches

    def op(self, i, horizon=None):
        return ensembles.invariant_statistics(op_seed(self.seed, i), self.initials,
                                              horizon or self.horizon, self.stepper, MODEL,
                                              SPEC, observables=self.observables, n_batches=20)

    def units(self, result) -> int:
        return len(self.initials) * int(round(self.horizon / self.stepper.dt))

    def check(self, i, rep):
        rows = [(e.mean, e.stderr) for est in rep.estimates for e in est]
        if not np.isfinite(rows).all():
            return "non-finite invariant estimate"
        # the first checked op is rerun once: a B=1 path must replay bit for bit
        if self.reference is None:
            self.reference = rows
            if rows != [(e.mean, e.stderr) for est in self.op(i).estimates for e in est]:
                return "rerun of a path differs"
        return None


class Gramian(Workload):
    """c03+c08 shape: one recurrence window [0, eta_1] per op on n=16.

    Each window assembles the 96-dim jump Gramian forward (tangent stacks
    grow to about 440 rows) and by the adjoint sweep over a stored path,
    then runs the constrained eigenvalue probe (LAPACK eigh).
    """

    unit = "windows"
    trace_ops = 2

    def __init__(self, seed: int, n: int = 16, level: float = 4, p_level: float = 2):
        self.seed = seed
        self.stepper = stepping.Stepper(n, PARAMS, ETD, 1e-2)
        self.basis = variation.HNBasis(n, level, PARAMS)
        self.p_mask = self.basis.sublevel_mask(p_level)
        self.kappa = 0.1 * 0.05 * PARAMS.nu / MODEL.b0

    def warmup(self) -> None:
        self.op(0, max_steps=10)

    def op(self, i, max_steps=None):
        s = op_seed(self.seed, i)
        st = self.stepper
        path = noise.sample_subordinator(SPEC, 4.0, noise.rng_stream(s, noise.ROLE_CLOCK), seed=s)
        eta = float(noise.stopping_times(path, PARAMS.nu, self.kappa, MODEL.b0, max_count=1)[1])
        n_steps = min(int(np.ceil(round(eta / st.dt, 9))), max_steps or np.inf)
        dw = noise.subordinated_increments(path, MODEL.dim,
                                           noise.rng_stream(s, noise.ROLE_BROWNIAN))
        u0 = sp.random_state(st.n, noise.rng_stream(s, noise.ROLE_INIT), amplitude=1.0)
        fwd = variation.malliavin_forward(u0, n_steps, st, MODEL, path, dw, self.basis)
        traj = stepping.simulate(u0, n_steps * st.dt, st, model=MODEL, path=path, dw=dw,
                                 store_full=True)
        bwd = variation.malliavin_backward(traj.states, st, MODEL, path, self.basis)
        probe = variation.min_eigen_probe(fwd.matrix, self.p_mask, 0.5)
        return fwd, bwd, probe

    def units(self, result) -> int:
        return 1

    def check(self, i, result):
        # tolerances of acceptance checks 03 and 08
        fwd, bwd, probe = result
        if fwd.degenerate:
            return "window carried no jump mass"
        scale = np.linalg.norm(fwd.matrix)
        gap = float(np.linalg.norm(fwd.matrix - bwd.matrix) / scale)
        if not gap <= 1e-8:
            return f"forward/adjoint gap {gap:.2e} > 1e-8"
        sym = 0.5 * (fwd.matrix + fwd.matrix.T)
        eigs = np.linalg.eigvalsh(sym)
        top = max(abs(eigs).max(), 1e-300)
        defect = float(-eigs[0] / top)
        if not defect <= 1e-10:
            return f"PSD defect {defect:.2e} > 1e-10"
        # the constrained minimum lies in [eigs[0], eigs[-1]], and any unit
        # vector inside the P block is feasible, so the least eigenvalue of
        # the P block caps a certified lower bound
        tol = 1e-8 * top
        p_min = float(np.linalg.eigvalsh(sym[np.ix_(self.p_mask, self.p_mask)])[0])
        if not probe.lower <= probe.upper:
            return f"probe lower {probe.lower:.3e} > upper {probe.upper:.3e}"
        if not (eigs[0] - tol <= probe.lower <= p_min + tol and probe.upper <= eigs[-1] + tol):
            return (f"probe [{probe.lower:.3e}, {probe.upper:.3e}] outside "
                    f"[{eigs[0]:.3e}, {p_min:.3e}] / above {eigs[-1]:.3e}")
        return None


DEFAULT_COMMANDS = (("simulate",), ("audit",), ("malliavin", "--check-adjoint"),
                    ("brackets",), ("span",))


class Cli(Workload):
    """`cli.main` in-process, one op per pass over five commands.

    It is the user-facing path: config digest, single-path stepping with
    per-step recording, .bqlb/CSV/JSON writes and the exact-rational span
    algebra. Every pass must write byte-identical artifacts.
    """

    unit = "commands"
    min_ops = 2           # the byte-identical check needs a rerun

    def __init__(self, seed: int, scratch: Path, config: RunConfig | None = None,
                 commands=DEFAULT_COMMANDS):
        self.seed, self.commands = seed, commands
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.base = ["--seed", str(seed)]
        if config is not None:
            ini = self.scratch / "config.ini"
            ini.write_text(config.to_ini())
            self.base = ["--config", str(ini)] + self.base
        self.reference = None

    def warmup(self) -> None:
        out = self.scratch / "warmup"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.base + ["--out", str(out), "simulate"])
        shutil.rmtree(out)

    def op(self, i):
        out = self.scratch / f"op{i}"
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in self.commands:
                with self.span(f"cli.{cmd[0]}"):
                    codes.append(cli.main(self.base + ["--out", str(out)] + list(cmd)))
        return {"out": out, "codes": codes}

    def units(self, result) -> int:
        return len(self.commands)

    def _artifacts(self, out: Path) -> dict:
        """Relative path -> (size, SHA-256) of every file a pass wrote."""
        return {str(p.relative_to(out)): (p.stat().st_size,
                                          hashlib.sha256(p.read_bytes()).hexdigest())
                for p in sorted(out.rglob("*")) if p.is_file()}

    def check(self, i, result):
        arts = self._artifacts(result["out"])
        shutil.rmtree(result["out"])
        result["bytes"] = sum(size for size, _ in arts.values())
        if any(result["codes"]):
            return f"exit codes {result['codes']}"
        if self.reference is None:
            self.reference = arts
        elif arts != self.reference:
            bad = sorted(k for k in arts.keys() | self.reference.keys()
                         if arts.get(k) != self.reference.get(k))
            return f"artifacts differ from the first pass: {bad[:3]}"
        return None

    def counts(self, result) -> dict:
        return {"cli.bytes_written": result["bytes"]}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def build(name: str, seed: int, scratch: Path, **size) -> Workload:
    if name == "cli":
        return Cli(seed, scratch, **size)
    return {"ensemble": Ensemble, "long_path": LongPath, "gramian": Gramian}[name](seed, **size)

