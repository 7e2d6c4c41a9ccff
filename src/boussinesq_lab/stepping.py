"""Time integration: one step kernel, one kick schedule, one forward sweep.

Both schemes treat the dissipation exactly or implicitly and the quadratic
and buoyancy terms explicitly. One step over dt is the deterministic substep
followed by the temperature kicks of all clock jumps in (t, t + dt] (Lie
splitting, jumps applied after the flow). The step size must divide the clock
grid step so jumps land on step boundaries.

The deterministic substep, per coefficient:
    exponential Euler:  U+ = E U + dt phi1(dt L) N(U),  E = exp(-dt L),
                        phi1(z) = (1 - exp(-z)) / z, phi1(0) = 1
    imex Euler:         U+ = (U + dt N(U)) / (1 + dt L)
with L the diagonal dissipation symbol per component and
N(U) = -B(U, U) + G U the explicit part.

Every forward time loop in the package is built from three pieces here:
  * `Stepper.advance(w, t)`, the only step kernel, on raw coefficient arrays
    in the half storage of the spectral module, shape (..., n, n//2+1): the
    k2 >= 0 columns of real fields, which is all their coefficients hold.
    One path has an empty batch shape, an ensemble a leading batch axis.
    The decay, gain and buoyancy symbols are half arrays too, so the
    combine runs on the half width and no step writes a k2 < 0 column. It
    runs on blocks of `sp.block_rows(n)` paths (`sp.blockwise`), which the
    calling thread and a pool sized by the process's CPU affinity share, and
    per block its quadratic term is one `sp.physical_fields` call (one stacked
    real inverse transform of the six fields) and one `sp.transport` of the
    two stacked products (one real forward transform), cut to the band in
    place and with the column k2 = 0 exactly symmetric (the band never
    reaches the Nyquist column), so the step keeps the state so with no
    projection. The combine, `Stepper.combine`, which the tangent and the
    second variation share, reads the gains stacked and gain_w g i k1 from
    tables cached per Stepper, and writes in place into the output pair;
  * `KickSchedule`, which owns the rule that dt divides the clock grid step,
    the map from a step to the clock cell whose jump ends it, which cells
    carry mass (`jumps`), the checks on the noise triple and on the clock
    covering the sweep, and the kicks, a slot-table scatter with no BLAS;
  * `sweep`, the forward loop on a half pair: advance, kick at cell ends,
    call the hooks. `simulate`, the ensemble batches and the tangent,
    Gramian and control sweeps of the variation module are hooks on it; each
    takes its start state to the half storage once (`SpectralState.halves`)
    and writes full arrays (`SpectralState.from_halves`) only for what it
    returns or records as states. `simulate`'s hooks only copy each step
    into a buffer of SNAPSHOT_STRIDE steps and screen it for blow-up; its
    norms, pairings and full states are made once per stride, on the stack.
`blown_up` is the one blow-up predicate of `simulate` and the batches, and
`horizon_steps` the one rule turning a horizon into a step count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .noise import NoiseModel, SubordinatorPath, sample_noise
from .spectral import PhysicsParams, SpectralState


class StepScheme(enum.Enum):
    IMEX_EULER = "imex_euler"
    ETD_EULER = "etd_euler"


DEFAULT_SCHEME = StepScheme.ETD_EULER
NORM_CEILING = 1e6          # blow-up guard: weighted smoothness-0 energy > NORM_CEILING**2
SNAPSHOT_STRIDE = 10


@dataclass
class Stepper:
    """Precomputed per-mode multipliers for one (n, params, scheme, dt)."""

    n: int
    params: PhysicsParams
    scheme: StepScheme
    dt: float
    decay_w: np.ndarray = field(init=False)
    decay_t: np.ndarray = field(init=False)
    gain_w: np.ndarray = field(init=False)
    gain_t: np.ndarray = field(init=False)
    buoyancy: np.ndarray = field(init=False)    # g i k1, the symbol of G
    gain_buoyancy: np.ndarray = field(init=False)   # gain_w g i k1
    _gains: np.ndarray = field(init=False)      # (gain_w, gain_t) stacked

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("step size must be positive")
        kk = sp.half_symbols(self.n).ksq
        for comp, nu in (("w", self.params.nu1), ("t", self.params.nu2)):
            z = nu * kk * self.dt
            if self.scheme is StepScheme.ETD_EULER:
                decay = np.exp(-z)
                gain = self.dt * np.where(z > 0, -np.expm1(-z) / np.where(z > 0, z, 1.0), 1.0)
            elif self.scheme is StepScheme.IMEX_EULER:
                decay = 1.0 / (1.0 + z)
                gain = self.dt * decay
            else:
                raise ValueError(f"unknown scheme {self.scheme}")
            setattr(self, f"decay_{comp}", decay)
            setattr(self, f"gain_{comp}", gain)
        self.buoyancy = self.params.g * sp.half_symbols(self.n).ik1
        self.gain_buoyancy = self.gain_w * self.buoyancy
        self._gains = np.stack((self.gain_w, self.gain_t))

    def advance(self, w: np.ndarray, t: np.ndarray):
        """One deterministic substep of a half stack pair (..., n, n//2+1),
        made in blocks of `sp.block_rows(n)` paths."""
        return sp.blockwise(self._advance_block, w, t)

    def _advance_block(self, w, t, out_w, out_t) -> None:
        # the substep of one (rows, n, n//2+1) block, written into out_w and out_t
        f = sp.physical_fields(w, t)
        self.combine(w, t, sp.transport(f[:2], f[2:]), out_w, out_t)

    def combine(self, w, t, adv, out_w, out_t) -> None:
        """out = decay U + gain (G U - adv) of a (w, t) pair and the band-cut
        products adv (2, ..., n, n//2+1), written in place into out_w and
        out_t: the combine of the step, the tangent and the second
        variation."""
        gained = self._gains.reshape((2,) + (1,) * (adv.ndim - 3) + self._gains.shape[1:]) * adv
        np.multiply(self.decay_w, w, out=out_w)
        out_w -= gained[0]
        np.multiply(self.gain_buoyancy, t, out=gained[0])
        out_w += gained[0]
        np.multiply(self.decay_t, t, out=out_t)
        out_t -= gained[1]


def horizon_steps(horizon: float, dt: float) -> int:
    """Step count of a horizon, which must be a multiple of dt to within
    1e-9 max(1, horizon); raises ValueError otherwise."""
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a multiple of the step size")
    return n_steps


def blown_up(energy_sq):
    """Weighted smoothness-0 energy not finite or above NORM_CEILING**2,
    elementwise."""
    return ~np.isfinite(energy_sq) | (energy_sq > NORM_CEILING**2)


class KickSchedule:
    """Where the clock jumps land on the step grid, and what they add.

    Clock cells have width grid_step = q dt with q a whole number; the jump
    of cell i sits at time (i + 1) q dt, the end of step (i + 1) q - 1. A
    sweep of n_steps (all the cells' steps when None) must not outrun the
    n_cells cells. dw holds one row of Brownian increments per cell, shape
    (n_cells, d) for one path or (B, n_cells, d) for a batch; slots is the
    slot table of the model's amplitude-scaled directions (`NoiseModel.slots`).
    Both are needed only for `increment`; a dw whose last two axes are not
    (n_cells, slots.dim) raises ValueError.
    """

    def __init__(self, grid_step: float, dt: float, n_cells: int,
                 n_steps: int | None = None,
                 dw: np.ndarray | None = None, slots: sp.TrigSlots | None = None):
        q = self.steps_per_cell(grid_step, dt)
        if n_steps is None:
            n_steps = n_cells * q
        if n_cells * q < n_steps:
            raise ValueError("clock path too short for the requested horizon")
        if dw is not None and np.shape(dw)[-2:] != (n_cells, slots.dim):
            raise ValueError(f"Brownian increments dw have shape {np.shape(dw)}, "
                             f"expected (cells, model.dim) = {(n_cells, slots.dim)}")
        self.n_steps = n_steps
        self.dw = dw
        self.slots = slots
        self.cell_at = {(i + 1) * q - 1: i for i in range(n_steps // q)}

    @staticmethod
    def steps_per_cell(grid_step: float, dt: float) -> int:
        """q = grid_step / dt, which must be whole to within 1e-9 max(1, q)."""
        q = grid_step / dt
        qi = int(round(q))
        if abs(q - qi) > 1e-9 * max(1.0, q) or qi < 1:
            raise ValueError("step size must divide the clock grid step")
        return qi

    @classmethod
    def along(cls, path: SubordinatorPath | None, stepper: Stepper, n_steps: int,
              model: NoiseModel | None, dw: np.ndarray | None) -> "KickSchedule | None":
        """The kicks of one noise triple over the first n_steps of stepper, or
        None without a clock path. A path needs its model and dw of shape
        (cells, model.dim); a missing or misshaped piece raises ValueError."""
        if path is None:
            return None
        for piece, name in ((model, "a noise model"), (dw, "Brownian increments dw")):
            if piece is None:
                raise ValueError(f"clock path given without {name}")
        if np.ndim(dw) != 2:
            raise ValueError(f"Brownian increments dw of one path have shape {np.shape(dw)}, "
                             f"expected (cells, model.dim)")
        return cls(path.spec.grid_step, stepper.dt, len(path.increments), n_steps, dw,
                   model.slots(stepper.n))

    def jumps(self, increments: np.ndarray) -> dict:
        """{step: cell} of the scheduled cells with a positive increment."""
        return {i: c for i, c in self.cell_at.items() if increments[c] > 0.0}

    def increment(self, cell: int) -> np.ndarray:
        """Temperature kick sum_j dw_j alpha_j trig_j of one cell, per path, in
        half storage."""
        return self.slots.scatter(self.dw[..., cell, :])


def sweep(stepper: Stepper, w: np.ndarray, t: np.ndarray, n_steps: int,
          kicks: KickSchedule | None = None, on_step=None, on_kick=None):
    """The forward loop over a half stack pair (w, t): n_steps of advance,
    kick at cell ends, hooks.

    Raises ValueError when the dealiased vorticity has a nonzero mean; the
    step leaves the mean mode unchanged, so one check at entry covers every
    step. After step i is advanced, and if it ends a clock cell,
    on_kick(i, cell, t, increment) sees the temperature before the kick is
    added. Then on_step(i, pre, post, cell) gets the (w, t) pairs before and
    after the step (post includes the kick; cell is None off the jumps). A
    hook returning True ends the sweep after that step. The arrays are
    never written in place. Returns the last (w, t).
    """
    sp.require_mean_free(np.where(sp.half_symbols(stepper.n).dealias, w, 0.0))
    for i in range(n_steps):
        w1, t1 = stepper.advance(w, t)
        cell = kicks.cell_at.get(i) if kicks is not None else None
        if cell is not None:
            inc = kicks.increment(cell)
            if on_kick is not None:
                on_kick(i, cell, t1, inc)
            t1 = t1 + inc
            del inc         # not held through the next step's advance
        if on_step is not None and on_step(i, (w, t), (w1, t1), cell):
            return w1, t1
        w, t = w1, t1
    return w, t


@dataclass
class Trajectory:
    """Recorded output of simulate.

    Scalar series are per accepted step (length n_steps + 1), computed once
    per SNAPSHOT_STRIDE steps on the stack of those steps and bit-equal to a
    computation per step; snapshots keep every SNAPSHOT_STRIDE-th state plus
    the final one, which after a blow-up is the state of the step that blew
    up, the last one taken. Pre/post jump temperature norms support the
    energy audit.
    """

    times: np.ndarray
    norm0: np.ndarray            # weighted norm, smoothness 0
    norm1: np.ndarray            # weighted norm, smoothness 1
    w_part: np.ndarray           # zeta* |w|^2
    theta_part: np.ndarray       # |theta|^2
    grad_theta_sq: np.ndarray    # |grad theta|^2
    clock: np.ndarray            # cumulative clock value at each time
    theta_sq_prejump: np.ndarray     # |theta|^2 after substep, before the kick
    grad_theta_sq_prejump: np.ndarray  # |grad theta|^2 after substep, before the kick
    jump_identity: np.ndarray     # 2<theta, kick> + |kick|^2 at each step (0 if no kick)
    snapshots: list[SpectralState]
    snapshot_times: np.ndarray
    states: list[SpectralState] | None = None   # full path when store_full
    blew_up: bool = False

    @property
    def final(self) -> SpectralState:
        if self.states is not None:
            return self.states[-1]
        return self.snapshots[-1]


def simulate(u0: SpectralState, horizon: float, stepper: Stepper,
             model: NoiseModel | None = None, path: SubordinatorPath | None = None,
             dw: np.ndarray | None = None, store_full: bool = False) -> Trajectory:
    """Integrate from u0 over [0, horizon], recording scalar series.

    With a clock path (and its model and dw) given, the dw rows are applied as
    temperature kicks at their cells' right endpoints. horizon = 0 returns just
    the initial state. On blow-up (`blown_up`) integration stops after the
    step that blew up and the flag is set; no exception is raised.

    The hooks copy each post-step pair, and on a kicked step its pre-kick
    temperature and kick, into buffers of SNAPSHOT_STRIDE rows. At every
    snapshot (each SNAPSHOT_STRIDE-th step, the last, and the blow-up step)
    one stacked pass over the buffered steps fills the series, bit-equal to
    a pass per step, and writes the snapshot and, with store_full, the
    states. The blow-up test needs every step: a step whose largest
    coefficient component stays under `_screen_bound` cannot be blown up,
    and any other step is tested exactly, as the series will read it.
    """
    dt = stepper.dt
    n_steps = horizon_steps(horizon, dt)
    p = stepper.params

    kicks = KickSchedule.along(path, stepper, n_steps, model, dw)

    times = dt * np.arange(n_steps + 1)
    (norm0, norm1, w_part, theta_part, grad_th, clock_steps, pre_jump,
     grad_pre_jump, jump_ident) = np.zeros((9, n_steps + 1))

    def record(rows: slice, w: np.ndarray, t: np.ndarray) -> None:
        # the series at the steps of rows, from half stacks of their states
        w0, w1 = sp.sobolev_sq(w, (0, 1))
        tq, gt = sp.sobolev_sq(t, (0, 1))
        wq = p.zeta_star * w0
        norm0[rows] = np.sqrt(wq + tq)
        norm1[rows] = np.sqrt(p.zeta_star * w1 + gt)
        w_part[rows] = wq
        theta_part[rows] = tq
        grad_th[rows] = gt

    start = u0.halves()
    record(slice(0, 1), start[0][None], start[1][None])
    snapshots = [u0.copy()]
    snapshot_times = [0.0]
    states = [u0.copy()] if store_full else None
    # row r holds step first + r: the post-step pair, and on a kicked step
    # the pre-kick temperature and the kick
    buf = np.empty((SNAPSHOT_STRIDE, 2) + start[0].shape, np.complex128)
    jumps = np.empty_like(buf)
    kicked = []
    first = 1
    bound = _screen_bound(stepper.n, p)
    ell = 0.0
    last = 0            # steps taken
    blew_up = False

    def flush() -> None:
        nonlocal first
        rows = slice(first, last + 1)
        m = last + 1 - first
        record(rows, buf[:m, 0], buf[:m, 1])
        pre_jump[rows] = theta_part[rows]
        grad_pre_jump[rows] = grad_th[rows]
        if kicked:
            at = np.add(first, kicked)
            t, kick = jumps[kicked, 0], jumps[kicked, 1]
            pre_jump[at], grad_pre_jump[at] = sp.sobolev_sq(t, (0, 1))
            jump_ident[at] = 2.0 * sp.half_dot(t, kick) + sp.half_dot(kick, kick)
            kicked.clear()
        keep = slice(0, m) if store_full else slice(m - 1, m)
        block = [SpectralState(w, t)
                 for w, t in zip(sp.full(buf[keep, 0]), sp.full(buf[keep, 1]))]
        if store_full:
            states.extend(block)
        snapshots.append(block[-1])
        snapshot_times.append(times[last])
        first = last + 1

    def on_kick(i, cell, t, kick):
        nonlocal ell
        np.copyto(jumps[i + 1 - first, 0], t)
        np.copyto(jumps[i + 1 - first, 1], kick)
        kicked.append(i + 1 - first)
        ell += path.increments[cell]

    def on_step(i, pre, post, cell):
        nonlocal last, blew_up
        last = i + 1
        row = buf[last - first]
        np.copyto(row[0], post[0])
        np.copyto(row[1], post[1])
        clock_steps[last] = ell
        if not np.abs(row.view(np.float64)).max() <= bound:
            w, t = post
            blew_up = bool(blown_up(p.zeta_star * sp.sobolev_sq(w, 0) + sp.sobolev_sq(t, 0)))
        if last % SNAPSHOT_STRIDE == 0 or last == n_steps or blew_up:
            flush()
        return blew_up

    sweep(stepper, *start, n_steps, kicks, on_step, on_kick)
    cut = last + 1
    return Trajectory(
        times=times[:cut], norm0=norm0[:cut], norm1=norm1[:cut], w_part=w_part[:cut],
        theta_part=theta_part[:cut], grad_theta_sq=grad_th[:cut], clock=clock_steps[:cut],
        theta_sq_prejump=pre_jump[:cut], grad_theta_sq_prejump=grad_pre_jump[:cut],
        jump_identity=jump_ident[:cut],
        snapshots=snapshots, snapshot_times=np.asarray(snapshot_times),
        states=states, blew_up=blew_up,
    )


def _screen_bound(n: int, params: PhysicsParams) -> float:
    """A bound on the largest real or imaginary part of a half pair's
    coefficients under which its weighted energy is at most NORM_CEILING**2 / 2,
    so it is not `blown_up`.

    Every |f_k|^2 is at most twice the squared largest part, and the half
    storage holds n^2 coefficients of the full spectrum, so the energy is at
    most 2 q n^2 (zeta* + 1) a^2 with q = (2 pi)^2 / n^4; the factor 2 below
    NORM_CEILING**2 covers the roundoff of the sums. It is formed without
    squaring NORM_CEILING or a coefficient, so nothing overflows.
    """
    return NORM_CEILING * n / (4.0 * np.pi * np.sqrt(params.zeta_star + 1.0))


def run_with_noise(u0: SpectralState, horizon: float, stepper: Stepper,
                   model: NoiseModel, spec, seed: int):
    """Convenience wrapper: draw the noise of `seed` (`sample_noise`), then
    simulate."""
    path, dw = sample_noise(spec, model, horizon, seed)
    traj = simulate(u0, horizon, stepper, model=model, path=path, dw=dw)
    return traj, path, dw


# ---------------------------------------------------------------------------
# energy audit


@dataclass
class EnergyAudit:
    """Discrete balance residuals for the temperature energy.

    Between kicks the temperature obeys
        d|theta|^2 / dt = -2 nu2 |grad theta|^2
    (the transport term is energy-neutral, buoyancy feeds vorticity only), so
    per step the trapezoid-quadrature residual
        |theta_pre(i+1)|^2 - |theta(i)|^2
            + dt nu2 (|grad theta(i)|^2 + |grad theta_pre(i+1)|^2)
    is third order in dt. Across a kick the jump identity
        |theta + kick|^2 - |theta|^2 = 2 <theta, kick> + |kick|^2
    holds exactly in exact arithmetic.
    """

    dissipation_residual_rate: float   # sum |residual| per unit time
    max_jump_residual: float
    n_jumps: int


def energy_audit(traj: Trajectory, stepper: Stepper) -> EnergyAudit:
    """Audit a recorded trajectory of stepper against the temperature energy
    balance."""
    nu2 = stepper.params.nu2
    dt = stepper.dt
    pre = traj.theta_sq_prejump[1:]
    kicked = traj.jump_identity[1:] != 0.0
    # left endpoint of the trapezoid is the (post-kick) state the substep
    # started from; right endpoint is the substep output before any kick.
    resid = (pre - traj.theta_part[:-1]
             + dt * nu2 * (traj.grad_theta_sq[:-1] + traj.grad_theta_sq_prejump[1:]))
    # cumsum adds left to right, as a running total does; fmax skips a NaN
    # as max(running, x) does
    total = np.cumsum(np.abs(resid))[-1] if len(resid) else 0.0
    jump_gap = np.abs(traj.theta_part[1:] - pre - traj.jump_identity[1:])[kicked]
    horizon = traj.times[-1] - traj.times[0]
    rate = total / horizon if horizon > 0 else 0.0
    return EnergyAudit(dissipation_residual_rate=rate,
                       max_jump_residual=np.fmax.reduce(jump_gap, initial=0.0),
                       n_jumps=int(np.count_nonzero(kicked)))
