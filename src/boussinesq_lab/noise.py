"""Degenerate jump forcing: subordinator clock, Brownian increments, stopping times.

The driving noise is a d-dimensional Brownian motion evaluated along an
independent increasing pure-jump process (the clock), pushed into the
temperature component through a fixed finite set of trig modes. On a grid of
step h the clock is represented by its increments over grid cells; each
nonzero increment acts as a single jump at the right endpoint of its cell,
which is exact in law for the integrals the solver consumes (the clock is
constant between its jumps and every cell's mass is collapsed to one atom).
The forced directions are one slot table of the spectral module
(`NoiseModel.slots`), and a kick is its scatter.

Every map from the clock onto the step grid lives here: one keyed draw per
path (`sample_noise`, and `sample_noise_batch` for paths in lockstep), one
rounding of a time up onto the clock grid, and one first-crossing rule of
the renewal criterion behind both `stopping_times` and `first_eta_batch`.
The cut of a path into renewal windows lives here too: `renewal_cells`
rounds each renewal time up onto the clock grid, `SubordinatorPath.window`
slices out one window's sub-path, and `sample_renewal_noise` redraws a
path's clock longer until its windows fit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .spectral import TrigSlots, is_canonical, trig_slots

# stream roles, used as the trailing entry of an rng stream key
ROLE_CLOCK = 1
ROLE_BROWNIAN = 2
ROLE_INIT = 3
ROLE_SCRATCH = 4


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...) so parallel order is irrelevant."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key)))


# ---------------------------------------------------------------------------
# subordinator


@dataclass(frozen=True)
class SubordinatorSpec:
    """Gamma-family clock: Levy density a exp(-b u) / u du on (0, inf).

    Increments over a cell of width h are Gamma(shape a h, rate b); the mean
    slope is a / b and the exponential moment E exp(zeta ell_1) is finite for
    zeta < b, so the light-tail requirement holds with room whenever b > 0.
    a = 0 degenerates to the frozen clock ell = 0.
    """

    family: str = "gamma"
    a: float = 8.0
    b: float = 4.0
    grid_step: float = 1e-3

    def __post_init__(self) -> None:
        if self.family != "gamma":
            raise ValueError(f"unknown subordinator family {self.family!r}")
        if self.a < 0 or self.b <= 0 or self.grid_step <= 0:
            raise ValueError("need a >= 0, b > 0, grid_step > 0")

    @property
    def mean_rate(self) -> float:
        return self.a / self.b

    def mgf(self, zeta: float) -> float:
        """E exp(zeta ell_1); requires zeta < b."""
        if zeta >= self.b:
            raise ValueError("exponential moment diverges at this exponent")
        return float((self.b / (self.b - zeta)) ** self.a)


@dataclass
class SubordinatorPath:
    """Sampled clock on a uniform grid: times, cumulative values, cell jumps."""

    spec: SubordinatorSpec
    times: np.ndarray          # (m + 1,), 0 = t_0 < ... < t_m = horizon
    increments: np.ndarray     # (m,), jump at times[i + 1] of size increments[i]
    seed: int | None = None
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.increments = np.asarray(self.increments, dtype=np.float64)
        if self.increments.shape != (self.times.shape[0] - 1,):
            raise ValueError("increment count must be len(times) - 1")
        if np.any(self.increments < 0):
            raise ValueError("clock increments must be nonnegative")
        self.cumulative = np.concatenate([[0.0], np.cumsum(self.increments)])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def window(self, c0: int, c1: int) -> SubordinatorPath:
        """The sub-path over cells c0..c1 - 1, its times re-based to 0; keeps
        the seed. Raises ValueError unless 0 <= c0 < c1 <= cells."""
        if not 0 <= c0 < c1 <= len(self.increments):
            raise ValueError(f"window cells {c0}..{c1} outside the path's "
                             f"{len(self.increments)} cells")
        return SubordinatorPath(self.spec, self.times[c0:c1 + 1] - self.times[c0],
                                self.increments[c0:c1], seed=self.seed)


def grid_cells(horizon: float, grid_step: float) -> int:
    """Clock cells of a horizon, which must be a multiple of the grid step to
    within 1e-9 max(1, horizon); raises ValueError otherwise."""
    m = int(round(horizon / grid_step))
    if abs(m * grid_step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a multiple of the grid step")
    return m


def sample_subordinator(spec: SubordinatorSpec, horizon: float,
                        rng: np.random.Generator, seed: int | None = None) -> SubordinatorPath:
    """Draw a clock path on [0, horizon] at the spec's grid step."""
    m = grid_cells(horizon, spec.grid_step)
    times = spec.grid_step * np.arange(m + 1)
    times[-1] = horizon
    if spec.a == 0.0:
        inc = np.zeros(m)
    else:
        inc = rng.gamma(spec.a * spec.grid_step, 1.0 / spec.b, size=m)
    return SubordinatorPath(spec, times, inc, seed=seed)


def subordinated_increments(path: SubordinatorPath, d: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Brownian increments over the clock cells: row i ~ N(0, jump_i I_d)."""
    z = rng.standard_normal((len(path.increments), d))
    return z * np.sqrt(path.increments)[:, None]


def _cells_up(t: float, grid_step: float) -> int:
    """Cells covering [0, t]: t / grid_step rounded up once rounded to 9
    decimals, so a time on the grid up to roundoff gains no cell."""
    return int(np.ceil(round(t / grid_step, 9)))


def _keyed_draw(spec: SubordinatorSpec, dim: int, cells: int, seed: int, *key: int):
    """(clock path, dw) over `cells` cells from the streams (seed, ROLE_CLOCK,
    *key) and (seed, ROLE_BROWNIAN, *key); the path records seed."""
    path = sample_subordinator(spec, cells * spec.grid_step,
                               rng_stream(seed, ROLE_CLOCK, *key), seed=seed)
    return path, subordinated_increments(path, dim, rng_stream(seed, ROLE_BROWNIAN, *key))


def sample_noise(spec: SubordinatorSpec, model: NoiseModel, horizon: float,
                 seed: int, *key: int):
    """One path's noise (clock path, dw) over the horizon rounded up to whole
    cells (at least one), from the keyed streams of (seed, *key)."""
    return _keyed_draw(spec, model.dim, max(1, _cells_up(horizon, spec.grid_step)), seed, *key)


def sample_noise_batch(spec: SubordinatorSpec, model: NoiseModel, horizon: float,
                       seed: int, n_paths: int, key_offset: int = 0):
    """(increments (B, cells), dw (B, cells, d)) of paths in lockstep: row i
    is `sample_noise`'s draw of (seed, key_offset + i) over the horizon, which
    must lie on the grid so that every path has its cell count."""
    cells = grid_cells(horizon, spec.grid_step)
    draws = [_keyed_draw(spec, model.dim, cells, seed, i)
             for i in range(key_offset, key_offset + n_paths)]
    return np.stack([path.increments for path, _ in draws]), np.stack([dw for _, dw in draws])


# ---------------------------------------------------------------------------
# forcing geometry


@dataclass(frozen=True)
class NoiseModel:
    """Temperature-only forcing on a finite symmetric mode set.

    Directions are ordered (k_0 cos, k_0 sin, k_1 cos, k_1 sin, ...); the
    amplitude alpha_k^m multiplies the unnormalized trig element, so the
    squared intensity per unit clock time of direction j is
    alphas[j]^2 * 2 pi^2 in the L2 norm of the temperature slot.
    """

    modes: tuple[tuple[int, int], ...] = ((1, 0), (0, 1))
    alphas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        modes = tuple(tuple(int(c) for c in k) for k in self.modes)
        object.__setattr__(self, "modes", modes)
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate forcing modes")
        for k in modes:
            if k == (0, 0):
                raise ValueError("zero mode cannot be forced")
            if not is_canonical(k):
                raise ValueError(f"forcing mode {k} must be in the canonical half-lattice")
        alphas = tuple(float(a) for a in (self.alphas or (1.0,) * (2 * len(modes))))
        if len(alphas) != 2 * len(modes):
            raise ValueError("need one amplitude per direction (two per mode)")
        if any(a <= 0 for a in alphas):
            raise ValueError("amplitudes must be positive")
        object.__setattr__(self, "alphas", alphas)

    @property
    def dim(self) -> int:
        return 2 * len(self.modes)

    @property
    def b0(self) -> float:
        return float(sum(a * a for a in self.alphas))

    def directions(self) -> list[tuple[tuple[int, int], int]]:
        return [(k, m) for k in self.modes for m in (0, 1)]

    def slots(self, n: int) -> TrigSlots:
        """Slot table of the directions on the n-grid: element j is alphas[j] trig_j."""
        return trig_slots(n, tuple((k, m, a) for (k, m), a in zip(self.directions(), self.alphas)))


# ---------------------------------------------------------------------------
# stopping times


def _penalty(nu: float, kappa: float, b0: float) -> float:
    """The clock penalty 8 b0 kappa of the renewal criterion; raises
    ValueError unless nu > 0 and kappa >= 0."""
    if nu <= 0:
        raise ValueError("need nu > 0")
    if kappa < 0:
        raise ValueError("need kappa >= 0")
    return 8.0 * b0 * kappa


def _first_crossing(t: np.ndarray, ell: np.ndarray, nu: float, drop: float):
    """First up-crossing along the last axis of f = nu t - drop ell, which
    peaks just before each cell's right end t, at the clock ell of its left
    end (both from the renewal anchor): (whether a peak exceeds 1, the first
    such cell, the exact crossing time (1 + drop ell) / nu inside it)."""
    crossed = nu * t - drop * ell > 1.0
    idx = crossed.argmax(axis=-1)
    ell_at = np.take_along_axis(ell, idx[..., None], axis=-1)[..., 0]
    return crossed.any(axis=-1), idx, (1.0 + drop * ell_at) / nu


def stopping_times(path: SubordinatorPath, nu: float, kappa: float, b0: float,
                   max_count: int | None = None) -> np.ndarray:
    """Renewal times of the clock-penalized drift criterion.

    Starting from eta_{j-1}, the functional
        f(t) = nu (t - eta_{j-1}) - 8 b0 kappa (ell_t - ell_{eta_{j-1}})
    rises linearly between jumps and drops at them; eta_j is the first time f
    strictly exceeds 1. The up-crossing is resolved exactly inside a grid
    cell (f is piecewise linear), so kappa = 0 gives eta_j = j / nu exactly.
    Returns the array [eta_0 = 0, eta_1, ...] up to the path horizon.
    """
    drop = _penalty(nu, kappa, b0)
    times, cum = path.times, path.cumulative
    etas = [0.0]
    cell, t0, ell0 = 0, 0.0, 0.0       # renewal anchor
    while cell < len(path.increments):
        # measured from the anchor, not accumulated, so the jump-free case
        # crosses at bit-exact multiples of 1/nu
        crossed, idx, eta = _first_crossing(times[cell + 1:] - t0, cum[cell:-1] - ell0, nu, drop)
        if not crossed:
            break
        cell += int(idx)
        t0, ell0 = t0 + eta, cum[cell]
        etas.append(t0)
        if max_count is not None and len(etas) - 1 >= max_count:
            break
    return np.asarray(etas)


def check_renewal_grid(nu: float, grid_step: float) -> None:
    """Raise ValueError when nu * grid_step > 1. Renewals lie 1/nu apart at
    least, so only on a clock grid no coarser than 1/nu does each renewal
    window hold a cell of its own."""
    if nu * grid_step > 1.0:
        raise ValueError(f"nu {nu} times clock grid step {grid_step} exceeds 1: "
                         f"renewals 1/nu apart would share a grid cell")


def renewal_cells(path: SubordinatorPath, nu: float, kappa: float, b0: float,
                  count: int) -> list[int]:
    """Cell edges [0, c_1, ..., c_k] of the first count renewal windows of a
    path: c_j is `stopping_times`' eta_j rounded up onto the clock grid, and
    one cell past c_{j-1} at least, a floor that binds only under roundoff
    since the grid must be no coarser than 1/nu (`check_renewal_grid`). k <
    count when the path renews fewer times."""
    check_renewal_grid(nu, path.spec.grid_step)
    cells = [0]
    for eta in stopping_times(path, nu, kappa, b0, max_count=count)[1:count + 1]:
        cells.append(max(_cells_up(eta, path.spec.grid_step), cells[-1] + 1))
    return cells


CLOCK_DOUBLINGS = 10        # sample_renewal_noise's clock grows at most 2**10-fold


def sample_renewal_noise(spec: SubordinatorSpec, model: NoiseModel, nu: float, kappa: float,
                         count: int, seed: int, *key: int):
    """`sample_noise` of (seed, *key) over a clock that holds count renewal
    windows, and their `renewal_cells`: (clock path, dw, cells).

    The clock is drawn over 1.8 (count + 1) / nu first and redrawn over twice
    the horizon until count renewals, and the cells of their windows, fit;
    the draws are prefix-stable, so a longer clock keeps the noise of the
    shorter one. Raises RuntimeError when
    CLOCK_DOUBLINGS doublings do not suffice, and ValueError on the rates
    `stopping_times` refuses or a grid `check_renewal_grid` refuses, before
    any draw.
    """
    _penalty(nu, kappa, model.b0)
    check_renewal_grid(nu, spec.grid_step)
    horizon = 1.8 * (count + 1) / nu
    for _ in range(CLOCK_DOUBLINGS + 1):
        path, dw = sample_noise(spec, model, horizon, seed, *key)
        cells = renewal_cells(path, nu, kappa, model.b0, count)
        if len(cells) > count and cells[-1] <= len(path.increments):
            return path, dw, cells
        horizon *= 2.0
    raise RuntimeError("clock horizon too short for the requested windows")


def first_eta_batch(spec: SubordinatorSpec, nu: float, kappa: float, b0: float,
                    n_paths: int, seed: int, horizon: float | None = None):
    """Vectorized draw of eta_1 over independent clock paths, `stopping_times`'
    first renewal on each. Returns (eta_1 array, censored count); censored
    paths, those with no renewal by the horizon, are dropped. An explicit
    horizon must be positive and on the grid (`grid_cells`). With no clock
    penalty (a = 0 or kappa = 0) every path crosses at exactly 1/nu.
    """
    drop = _penalty(nu, kappa, b0)
    if horizon is None:
        drain = drop * spec.mean_rate / nu
        typical = 1.0 / (nu * max(1.0 - drain, 0.05))
        m = _cells_up(min(12.0 * typical, 120.0 / nu), spec.grid_step)
    else:
        m = grid_cells(horizon, spec.grid_step)
        if m < 1:
            raise ValueError("need horizon > 0")
    rng = rng_stream(seed, ROLE_CLOCK)
    t_right = spec.grid_step * np.arange(1, m + 1)
    chunk = max(1, int(3e6 / m))
    etas, censored, done = [], 0, 0
    while done < n_paths:
        p = min(chunk, n_paths - done)
        inc = rng.gamma(spec.a * spec.grid_step, 1.0 / spec.b, size=(p, m))
        ell_left = np.concatenate([np.zeros((p, 1)), np.cumsum(inc, axis=1)[:, :-1]], axis=1)
        crossed, _, eta = _first_crossing(t_right, ell_left, nu, drop)
        etas.append(eta[crossed])
        censored += int(p - crossed.sum())
        done += p
    return np.concatenate(etas), censored


def exp_moment_eta(spec: SubordinatorSpec, nu: float, kappa: float, b0: float,
                   n_paths: int, seed: int) -> dict:
    """Monte Carlo estimate of E exp(10 nu eta_1) over independent clock paths."""
    eta, censored = first_eta_batch(spec, nu, kappa, b0, n_paths, seed)
    vals = np.exp(10.0 * nu * eta)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return {"estimate": est, "stderr": se, "n_paths": n_paths, "censored": censored}


# ---------------------------------------------------------------------------
# path serialization


def save_path(path: SubordinatorPath, fname) -> None:
    """Columnar text dump (time, cumulative clock) with a self-describing
    header, written to the open text file or buffer fname."""
    buf = io.StringIO()
    buf.write("# subordinator path v1\n")
    buf.write(f"# family: {path.spec.family}\n")
    buf.write(f"# a: {path.spec.a!r}\n")
    buf.write(f"# b: {path.spec.b!r}\n")
    buf.write(f"# grid_step: {path.spec.grid_step!r}\n")
    buf.write(f"# seed: {path.seed if path.seed is not None else 'none'}\n")
    buf.write("# columns: t ell\n")
    for t, c in zip(path.times, path.cumulative):
        buf.write(f"{float(t)!r} {float(c)!r}\n")
    fname.write(buf.getvalue())


def load_path(fname) -> SubordinatorPath:
    """Inverse of save_path; reconstructs spec, seed, and exact float values."""
    if hasattr(fname, "read"):
        lines = fname.read().splitlines()
    else:
        with open(fname) as fh:
            lines = fh.read().splitlines()
    meta: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
            continue
        t_s, c_s = line.split()
        rows.append((float(t_s), float(c_s)))
    spec = SubordinatorSpec(
        family=meta.get("family", "gamma"),
        a=float(meta["a"]),
        b=float(meta["b"]),
        grid_step=float(meta["grid_step"]),
    )
    seed_s = meta.get("seed", "none")
    seed = None if seed_s == "none" else int(seed_s)
    times = np.array([r[0] for r in rows])
    cum = np.array([r[1] for r in rows])
    return SubordinatorPath(spec, times, np.diff(cum), seed=seed)
