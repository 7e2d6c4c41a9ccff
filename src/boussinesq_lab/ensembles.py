"""Ensemble statistics: moment plateaus, stopping-time moments, coupled
equicontinuity probes, small-ball hitting counts, and long-run averages.

Trajectory batches share the clock grid, so the whole ensemble advances as
(B, n, n//2+1) half-storage arrays through the one step kernel and forward
loop of the stepping module, `Stepper.advance` under `sweep`, that also runs
a single path; a batch only adds its recording hook. Per-path randomness
enters only through the clock increments and the Brownian draws, each from
its own keyed stream (`noise.sample_noise_batch`), so a path's output does
not depend on its batch.
Each experiment runs its starts as one batch in one process, and each
observable maps half stacks to (...) values, one call per record.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import betaincinv

from . import spectral as sp
from .noise import (
    ROLE_SCRATCH,
    NoiseModel,
    SubordinatorSpec,
    exp_moment_eta,
    grid_cells,
    rng_stream,
    sample_noise_batch,
)
from .spectral import SpectralState
from .stepping import KickSchedule, Stepper, blown_up, sweep


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """Named scalar functional of the state; fun(w, t, params) maps half
    stacks (..., n, n//2+1) to (...) values."""

    name: str
    fun: object


def _squashed_energy(w, t, params):
    x = sp.weighted_norms(w, t, params)
    return x / (1.0 + x)


def _squashed_mode(w, t, params, k, m, slot):
    c = sp.mode_coeff(t if slot == "theta" else w, k, m)
    return c / (1.0 + np.abs(c))


def squashed_energy_observable() -> Observable:
    """||U|| / (1 + ||U||): bounded, 1-Lipschitz in the weighted norm."""
    return Observable("bl_energy", _squashed_energy)


def squashed_mode_observable(k, m: int, slot: str = "theta") -> Observable:
    """c / (1 + |c|) of one trig coefficient: bounded and Lipschitz."""
    name = f"bl_{slot}_{k[0]}_{k[1]}_{'cos' if m == 0 else 'sin'}"
    return Observable(name, partial(_squashed_mode, k=tuple(k), m=m, slot=slot))


def default_observables() -> tuple:
    """Three bounded Lipschitz functionals: global, forced mode, mixed mode."""
    return (squashed_energy_observable(),
            squashed_mode_observable((1, 0), 0, "theta"),
            squashed_mode_observable((1, 1), 1, "w"))


# ---------------------------------------------------------------------------
# shared-noise batches


def noise_digest(increments: np.ndarray, dw: np.ndarray) -> str:
    """Fingerprint of a noise batch, for asserting two runs share it."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(increments).tobytes())
    h.update(np.ascontiguousarray(dw).tobytes())
    return h.hexdigest()


@dataclass
class BatchTrajectory:
    times: np.ndarray        # (n_rec,)
    energy_sq: np.ndarray    # (B, n_rec) weighted norm squared
    observed: np.ndarray     # (n_obs, B, n_rec)
    w_hat: np.ndarray        # final coefficients (B, n, n)
    theta_hat: np.ndarray


class BatchRunner:
    """Lockstep integrator for a batch of trajectories with shared grids."""

    def __init__(self, stepper: Stepper, model: NoiseModel):
        self.stepper = stepper
        self.slots = model.slots(stepper.n)

    def run(self, w, t, dw, grid_step: float, record_every: int = 1,
            observables=()) -> BatchTrajectory:
        """Advance the batch across all cells, kicking after each cell's steps.

        w and t are (B, n, n) coefficient arrays, run in half storage.
        dw has shape (B, cells, d); the step size must divide the clock grid
        step, and jumps are applied at the right endpoint of their cell,
        after the deterministic substep, exactly as a single path is run.
        A dw of another shape raises ValueError. Raises RuntimeError naming
        the step, the first offending path and its energy when a recorded
        energy is `blown_up`.
        """
        st = self.stepper
        w = sp.half(np.asarray(w, dtype=np.complex128))
        t = sp.half(np.asarray(t, dtype=np.complex128))
        n_b = len(w)
        if np.ndim(dw) != 3 or dw.shape[0] != n_b:
            raise ValueError(f"Brownian increments dw have shape {np.shape(dw)}, "
                             f"expected (paths, cells, model.dim) with {n_b} paths")
        kicks = KickSchedule(grid_step, st.dt, dw.shape[1], dw=dw, slots=self.slots)
        n_steps = kicks.n_steps
        n_rec = _records(n_steps, record_every)
        params = st.params

        energy = np.empty((n_b, n_rec))
        observed = np.empty((len(observables), n_b, n_rec))
        times = st.dt * record_every * np.arange(n_rec)

        def record(slot, w, t):
            energy[:, slot] = sp.weighted_energy(w, t, params)
            for oi, obs in enumerate(observables):
                observed[oi, :, slot] = obs.fun(w, t, params)

        def on_step(i, pre, post, cell):
            if (i + 1) % record_every:
                return
            slot = (i + 1) // record_every
            record(slot, *post)
            bad = blown_up(energy[:, slot])
            if bad.any():
                b = int(np.argmax(bad))
                raise RuntimeError(f"batch blow-up at step {i + 1}: path {b} "
                                   f"has energy {energy[b, slot]:.6g}")

        record(0, w, t)
        w, t = sweep(st, w, t, n_steps, kicks, on_step)
        return BatchTrajectory(times, energy, observed, sp.full(w), sp.full(t))


def _records(n_steps: int, record_every: int) -> int:
    """Records of a batch run of n_steps: one at time 0, then one every
    record_every steps. Raises ValueError unless record_every divides n_steps."""
    if n_steps % record_every:
        raise ValueError(f"horizon of {n_steps} steps is not a multiple of "
                         f"record_every = {record_every}")
    return n_steps // record_every + 1


def horizon_records(horizon: float, dt: float, grid_step: float, record_every: int) -> int:
    """`_records` of a batch run at step size dt over a horizon of whole
    clock cells (`noise.grid_cells`). Raises ValueError as they do, and when
    the horizon spans no cell."""
    cells = grid_cells(horizon, grid_step)
    if cells < 1:
        raise ValueError("horizon must span at least one grid cell")
    return _records(cells * KickSchedule.steps_per_cell(grid_step, dt), record_every)


def _tile(states, n_paths: int):
    """(w, t) stacks holding each state n_paths times in a row."""
    w = np.repeat(np.stack([u.w_hat for u in states]), n_paths, axis=0)
    t = np.repeat(np.stack([u.theta_hat for u in states]), n_paths, axis=0)
    return w, t


# ---------------------------------------------------------------------------
# second-moment plateau


@dataclass
class MomentCurve:
    times: np.ndarray
    energy_sq: np.ndarray    # (n_paths, n_rec)

    def mean_curve(self) -> np.ndarray:
        return self.energy_sq.mean(axis=0)

    def plateau(self):
        """Fitted plateau constant and its Monte Carlo standard error.

        Averages each path over the trailing half of the window first,
        so the error bar reflects independent paths, not correlated times.
        """
        start = int(round(0.5 * (len(self.times) - 1)))
        per_path = self.energy_sq[:, start:].mean(axis=1)
        n_b = len(per_path)
        return float(per_path.mean()), float(per_path.std(ddof=1) / np.sqrt(n_b))


def moment_experiment(seed: int, n_paths: int, horizon: float, stepper: Stepper,
                      model: NoiseModel, spec: SubordinatorSpec,
                      initial: SpectralState, record_every: int = 10,
                      key_offset: int = 0) -> MomentCurve:
    """Ensemble of trajectories from one initial state; records energy.
    Raises ValueError unless the horizon spans whole clock cells, one at
    least, and whole records (`horizon_records`), before any noise is drawn."""
    horizon_records(horizon, stepper.dt, spec.grid_step, record_every)
    incs, dw = sample_noise_batch(spec, model, horizon, seed, n_paths, key_offset)
    runner = BatchRunner(stepper, model)
    w, t = _tile([initial], n_paths)
    out = runner.run(w, t, dw, spec.grid_step, record_every)
    return MomentCurve(out.times, out.energy_sq)


def _worst_sigmas(fits) -> float:
    """Worst pairwise gap of (mean, stderr) fits in combined standard errors;
    NaN when a stderr is NaN (fewer than two paths or batches), so a verdict
    `<= bound` on it fails."""
    gaps = [abs(a[0] - b[0]) / np.maximum(np.hypot(a[1], b[1]), 1e-300)
            for a, b in itertools.combinations(fits, 2)]
    return float(np.max(gaps, initial=0.0))


def plateau_agreement(curves) -> float:
    """Worst pairwise plateau gap in combined standard errors."""
    return _worst_sigmas([c.plateau() for c in curves])


# ---------------------------------------------------------------------------
# exponential moments of the recurrence times


def clock_rate_function(spec: SubordinatorSpec, c: float) -> float:
    """Large-deviation cost of the clock sustaining mean rate c.

    For the gamma family the Legendre transform of the increment log-MGF at
    rate c >= a/b is b c - a - a log(b c / a); below the mean rate the cost
    of staying high is zero.
    """
    if spec.a == 0.0:
        return np.inf
    if c <= spec.mean_rate:
        return 0.0
    return float(spec.b * c - spec.a - spec.a * np.log(spec.b * c / spec.a))


@dataclass
class StoppingMomentReport:
    estimate: float
    stderr: float
    n_paths: int
    censored: int
    doubled_estimate: float
    doubling_gap: float       # relative change when the path count doubles
    tail_margin: float        # rate-function cost over the moment growth rate
    heavy_tail: bool


def stopping_moment_experiment(spec: SubordinatorSpec, nu: float, kappa: float,
                               b0: float, seed: int, n_paths: int) -> StoppingMomentReport:
    """Monte Carlo E exp(10 nu eta_1) with a doubling check and a tail flag.

    The estimate is trustworthy only when the exponential growth rate 10 nu
    is well below the large-deviation cost of the clock outrunning the drift,
    i.e. when the clock would have to sustain rate nu / (8 b0 kappa) to keep
    eta large; margins under 2 are flagged as heavy-tailed.
    """
    first = exp_moment_eta(spec, nu, kappa, b0, n_paths, seed)
    second = exp_moment_eta(spec, nu, kappa, b0, 2 * n_paths, seed + 1)
    gap = abs(second["estimate"] - first["estimate"]) / max(first["estimate"], 1e-300)
    if kappa == 0.0:
        margin = np.inf
    else:
        cost = clock_rate_function(spec, nu / (8.0 * b0 * kappa))
        margin = cost / (10.0 * nu)
    return StoppingMomentReport(
        estimate=first["estimate"], stderr=first["stderr"],
        n_paths=n_paths, censored=first["censored"],
        doubled_estimate=second["estimate"],
        doubling_gap=gap, tail_margin=float(margin), heavy_tail=bool(margin < 2.0))


# ---------------------------------------------------------------------------
# coupled equicontinuity probe


@dataclass
class EPropertyReport:
    deltas: tuple
    gaps: np.ndarray          # (n_deltas, n_obs) |mean coupled difference|
    sup_gaps: np.ndarray      # (n_deltas,) max over observables
    state_gaps: np.ndarray    # (n_deltas,) mean terminal weighted distance
    slope: float              # log-log response of sup gap to delta
    digest: str
    coupled: bool             # every run saw the identical noise batch


def check_eproperty_horizon(horizon: float, dt: float, grid_step: float,
                            record_every: int = 10) -> None:
    """Raise ValueError unless a run over horizon records a time-T state
    (`horizon_records`)."""
    horizon_records(horizon, dt, grid_step, record_every)


def eproperty_probe(seed: int, stepper: Stepper, model: NoiseModel,
                    spec: SubordinatorSpec, base_state: SpectralState,
                    horizon: float, n_paths: int,
                    record_every: int = 10) -> EPropertyReport:
    """Same-noise response of time-T statistics to initial perturbations.

    Each delta in (1e-1, 5e-2, 2.5e-2) reruns the noise batch of the base
    run (drawn anew, checked by digest) from the base state shifted by delta
    times a fixed unit direction, all runs in one batch; the feedback
    statistic is the coupled mean difference of each `default_observables`
    functional at time T. Raises ValueError when `check_eproperty_horizon`
    refuses the horizon, before any noise is drawn.
    """
    check_eproperty_horizon(horizon, stepper.dt, spec.grid_step, record_every)
    deltas = (1e-1, 5e-2, 2.5e-2)
    observables = default_observables()
    direction = sp.random_state(stepper.n, rng_stream(seed, ROLE_SCRATCH), amplitude=1.0)
    direction = direction * (1.0 / sp.weighted_norm(direction, stepper.params))
    starts = [base_state] + [base_state + direction * delta for delta in deltas]
    blocks = [sample_noise_batch(spec, model, horizon, seed, n_paths) for _ in starts]
    digests = [noise_digest(*block) for block in blocks]
    out = BatchRunner(stepper, model).run(
        *_tile(starts, n_paths), np.concatenate([dw for _, dw in blocks]),
        spec.grid_step, record_every, observables)

    runs = (len(starts), n_paths)
    final = out.observed[:, :, -1].reshape(out.observed.shape[:1] + runs)
    w_end = out.w_hat.reshape(runs + out.w_hat.shape[1:])
    t_end = out.theta_hat.reshape(runs + out.theta_hat.shape[1:])
    gaps, state_gaps = [], []
    for r in range(1, len(starts)):
        diff = final[:, r] - final[:, 0]
        gaps.append(np.abs(diff.mean(axis=1)))
        dist_sq = sp.weighted_energy(sp.half(w_end[r] - w_end[0]), sp.half(t_end[r] - t_end[0]),
                                     stepper.params)
        state_gaps.append(float(np.sqrt(dist_sq).mean()))
    gaps = np.array(gaps)
    sup_gaps = gaps.max(axis=1)
    coupled = len(set(digests)) == 1
    if np.all(sup_gaps > 0):
        slope = float(np.polyfit(np.log(np.asarray(deltas)), np.log(sup_gaps), 1)[0])
    else:
        slope = np.inf
    return EPropertyReport(deltas=tuple(deltas), gaps=gaps, sup_gaps=sup_gaps,
                           state_gaps=np.array(state_gaps), slope=slope,
                           digest=digests[0], coupled=coupled)


# ---------------------------------------------------------------------------
# small-ball hitting

HITTING_ALPHA = 0.05        # one-sided level of the hitting bound (95% confidence)


@dataclass
class HittingEstimate:
    start: tuple              # mesh coordinates (vorticity weight, temperature weight)
    hits: int
    n_paths: int
    lower_bound: float        # one-sided 95% Clopper-Pearson bound: the HITTING_ALPHA
                              # quantile of Beta(hits, n_paths - hits + 1), 0 without a hit


@dataclass
class IrreducibilityReport:
    radius: float
    horizon: float
    estimates: list
    all_positive: bool


def irreducibility_probe(seed: int, stepper: Stepper, model: NoiseModel,
                         spec: SubordinatorSpec, horizon: float, n_paths: int,
                         radius: float, mesh_scale: float) -> IrreducibilityReport:
    """Hitting counts for the small ball from a mesh of initial states.

    Starts live on the 3 x 3 grid {-s, 0, s}^2 (corners included) of a fixed
    two-dimensional section: one normalized vorticity element against one
    normalized temperature element. Each start runs n_paths independent
    trajectories and reports the one-sided 95% Clopper-Pearson lower bound
    (`HittingEstimate.lower_bound`) on the probability of the terminal event
    ||U_T|| <= radius. Raises ValueError unless the horizon spans whole
    clock cells, one at least (`horizon_records`), before any noise is drawn.
    """
    n_steps = horizon_records(horizon, stepper.dt, spec.grid_step, 1) - 1   # less the t = 0 record
    n = stepper.n
    e_w = sp.psi_state(n, (1, 1), 0)
    e_w = e_w * (1.0 / sp.weighted_norm(e_w, stepper.params))
    e_t = sp.sigma_state(n, (1, 0), 0)
    e_t = e_t * (1.0 / sp.weighted_norm(e_t, stepper.params))
    levels = (-mesh_scale, 0.0, mesh_scale)
    starts = [(a, b) for a in levels for b in levels]

    u0s = [e_w * a + e_t * b for a, b in starts]
    # start si holds paths si * n_paths .. (si + 1) * n_paths - 1 and their streams
    _, dw = sample_noise_batch(spec, model, horizon, seed, len(starts) * n_paths)
    out = BatchRunner(stepper, model).run(*_tile(u0s, n_paths), dw, spec.grid_step,
                                          record_every=n_steps)
    estimates = []
    for si, (a, b) in enumerate(starts):
        final = out.energy_sq[si * n_paths:(si + 1) * n_paths, -1]
        hits = int((final <= radius * radius).sum())
        if hits > 0:
            lower = float(betaincinv(hits, n_paths - hits + 1, HITTING_ALPHA))
        else:
            lower = 0.0
        estimates.append(HittingEstimate(start=(a, b), hits=hits, n_paths=n_paths,
                                         lower_bound=lower))
    return IrreducibilityReport(
        radius=radius, horizon=horizon, estimates=estimates,
        all_positive=all(e.lower_bound > 0 for e in estimates))


# ---------------------------------------------------------------------------
# long-run stationary averages


def batch_means(series: np.ndarray, n_batches: int):
    """Batch means of a scalar series, trimming the head remainder."""
    series = np.asarray(series, dtype=float)
    m = len(series) // n_batches
    if m < 1:
        raise ValueError(f"series of {len(series)} too short for {n_batches} batches")
    return series[len(series) - m * n_batches:].reshape(n_batches, m).mean(axis=1)


def lag1_correlation(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    v = v - v.mean()
    denom = float((v * v).sum())
    if denom == 0.0:
        return 0.0
    return float((v[:-1] * v[1:]).sum() / denom)


@dataclass
class StationaryEstimate:
    observable: str
    mean: float
    stderr: float             # AR(1)-inflated when the batch means correlate
    n_batches: int
    lag1: float
    short_batches: bool       # batch means still serially correlated


@dataclass
class InvariantReport:
    estimates: list           # per initial state, list of StationaryEstimate
    max_gap_sigmas: float     # worst cross-initial gap in combined errors
    agree: bool


def _stationary_estimate(name: str, series: np.ndarray, n_batches: int) -> StationaryEstimate:
    bm = batch_means(series, n_batches)
    rho = lag1_correlation(bm)
    se = float(bm.std(ddof=1) / np.sqrt(n_batches))
    if rho > 0.0:
        # residual batch correlation makes the naive error optimistic;
        # the AR(1) variance factor (1+rho)/(1-rho) is the usual repair
        se *= float(np.sqrt((1.0 + rho) / (1.0 - min(rho, 0.95))))
    return StationaryEstimate(observable=name, mean=float(bm.mean()), stderr=se,
                              n_batches=n_batches, lag1=rho, short_batches=bool(rho > 0.3))


def _burn_in(n_rec: int) -> int:
    """Leading records of n_rec that `invariant_statistics` discards: the
    first fifth of the run."""
    return int(round(0.2 * (n_rec - 1)))


def check_invariant_horizon(horizon: float, dt: float, grid_step: float,
                            n_batches: int = 20, record_every: int = 10) -> None:
    """Raise ValueError unless a run over horizon leaves at least one
    record per batch mean after the burn-in (`horizon_records`, `_burn_in`)."""
    n_rec = horizon_records(horizon, dt, grid_step, record_every)
    kept = n_rec - _burn_in(n_rec)
    if kept < n_batches:
        raise ValueError(f"horizon leaves {kept} records after the burn-in, "
                         f"fewer than its {n_batches} batch means")


def invariant_statistics(seed: int, initials, horizon: float, stepper: Stepper,
                         model: NoiseModel, spec: SubordinatorSpec,
                         observables=None, n_batches: int = 20,
                         record_every: int = 10) -> InvariantReport:
    """Time averages of bounded observables from several initial states.

    One long trajectory per initial state, all in one batch; the first
    fifth of the records is discarded, the rest feeds batch means.
    Initial-state independence of the invariant measure shows up as pairwise
    agreement within combined batch errors. Raises ValueError when
    `check_invariant_horizon` refuses the horizon, before any noise is drawn.
    """
    check_invariant_horizon(horizon, stepper.dt, spec.grid_step, n_batches, record_every)
    if observables is None:
        observables = default_observables()
    _, dw = sample_noise_batch(spec, model, horizon, seed, len(initials))
    out = BatchRunner(stepper, model).run(*_tile(initials, 1), dw, spec.grid_step,
                                          record_every, observables)
    burn = _burn_in(out.observed.shape[-1])
    estimates = [[_stationary_estimate(obs.name, out.observed[oi, b, burn:], n_batches)
                  for oi, obs in enumerate(observables)]
                 for b in range(len(initials))]
    # per observable, its estimates from every start
    worst = float(np.max([_worst_sigmas([(e.mean, e.stderr) for e in column])
                          for column in zip(*estimates)], initial=0.0))
    return InvariantReport(estimates=estimates, max_gap_sigmas=worst,
                           agree=bool(worst <= 3.0))
