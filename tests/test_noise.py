"""Clock sampling, forcing geometry, stopping times."""

import io

import numpy as np
import pytest
from scipy import stats

from boussinesq_lab import noise, spectral as sp
from boussinesq_lab.noise import (
    NoiseModel,
    SubordinatorSpec,
    exp_moment_eta,
    first_eta_batch,
    load_path,
    renewal_cells,
    rng_stream,
    sample_noise,
    sample_noise_batch,
    sample_renewal_noise,
    sample_subordinator,
    save_path,
    stopping_times,
    subordinated_increments,
)
from boussinesq_lab.stepping import DEFAULT_SCHEME, KickSchedule, Stepper, sweep


# ---------------------------------------------------------------------------
# subordinator


def test_spec_validation():
    with pytest.raises(ValueError):
        SubordinatorSpec(a=-1.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(b=0.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(family="cauchy")
    with pytest.raises(ValueError):
        SubordinatorSpec().mgf(4.0)


def test_zero_intensity_clock_is_frozen():
    spec = SubordinatorSpec(a=0.0)
    path = sample_subordinator(spec, 1.0, rng_stream(1, 1))
    assert np.all(path.increments == 0.0)
    assert path.total == 0.0


def test_clock_monotone_and_grid():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-3)
    path = sample_subordinator(spec, 2.0, rng_stream(7, 1))
    assert len(path.increments) == 2000
    assert np.all(np.diff(path.cumulative) >= 0.0)
    assert abs(path.horizon - 2.0) < 1e-12


def test_clock_mean_and_mgf_monte_carlo():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-2)
    n = 600
    rng = rng_stream(42, 1)
    totals = np.array([sample_subordinator(spec, 1.0, rng).total for _ in range(n)])
    mean_se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(totals.mean() - spec.mean_rate) <= 3.0 * mean_se

    vals = np.exp(totals)           # MGF at zeta = 1 over unit time
    mgf_se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - spec.mgf(1.0)) <= 3.0 * mgf_se


def test_subordinated_increments_variance_and_symmetry():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-3)
    path = sample_subordinator(spec, 10.0, rng_stream(3, 1))
    dw = subordinated_increments(path, 4, rng_stream(3, 2))
    assert dw.shape == (10000, 4)
    alive = path.increments > 0
    z = dw[alive] / np.sqrt(path.increments[alive])[:, None]
    # normalized increments are standard normal in every coordinate
    pooled = z.ravel()
    assert abs(pooled.var() - 1.0) <= 3.0 * np.sqrt(2.0 / pooled.size) + 1e-3
    p = stats.kstest(z[:10000 // 4, 0], "norm").pvalue
    assert p > 0.01


def test_rank_correlation_of_consecutive_increments():
    spec = SubordinatorSpec(grid_step=1e-2)
    path = sample_subordinator(spec, 100.0, rng_stream(11, 1))
    inc = path.increments
    rho = stats.spearmanr(inc[:-1], inc[1:]).statistic
    assert abs(rho) < 0.05


# ---------------------------------------------------------------------------
# path serialization


def test_path_roundtrip_exact():
    spec = SubordinatorSpec(a=2.0, b=5.0, grid_step=1e-2)
    path = sample_subordinator(spec, 0.5, rng_stream(9, 1), seed=9)
    buf = io.StringIO()
    save_path(path, buf)
    buf.seek(0)
    back = load_path(buf)
    assert back.spec == spec
    assert back.seed == 9
    assert np.array_equal(back.times, path.times)
    # the stored columns round-trip exactly; increments are their differences
    assert np.array_equal(back.cumulative, path.cumulative)
    assert np.allclose(back.increments, path.increments, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# forcing geometry


def test_forcing_increment_unit_vector():
    # the kick the sweeps apply is the slot table's scatter of dw
    n = 32
    kick = NoiseModel().slots(n).scatter(np.array([1.0, 0.0, 0.0, 0.0]))
    x1, _ = sp.grid_points(n)
    field = sp.to_physical(kick)
    assert np.max(np.abs(field - np.cos(x1 + 0 * field))) < 1e-12


def test_forcing_dimensions_and_intensity():
    model = NoiseModel(modes=((1, 0), (0, 1)))
    assert model.dim == 4
    assert model.b0 == 4.0
    scaled = NoiseModel(modes=((1, 0),), alphas=(2.0, 3.0))
    assert scaled.b0 == 13.0
    with pytest.raises(ValueError):
        NoiseModel(modes=((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        NoiseModel(modes=((-1, 0),))


def test_forcing_is_temperature_only_random_direction():
    # one step from rest with one kicked cell: the substep leaves the zero
    # state at zero, so the vorticity stays zero and the temperature is the kick
    slots = NoiseModel().slots(16)
    dw = rng_stream(5, 1).standard_normal((1, 4))
    zero = np.zeros((16, 9), np.complex128)          # half storage
    stepper = Stepper(16, sp.PhysicsParams(), DEFAULT_SCHEME, 1e-3)
    w, t = sweep(stepper, zero, zero, 1, KickSchedule(1e-3, 1e-3, 1, dw=dw, slots=slots))
    assert np.max(np.abs(w)) == 0.0
    assert np.max(np.abs(t)) > 0.0
    assert np.array_equal(t, slots.scatter(dw[0]))


# ---------------------------------------------------------------------------
# stopping times


def test_stopping_times_frozen_clock():
    spec = SubordinatorSpec(a=0.0, grid_step=1e-3)
    path = sample_subordinator(spec, 10.5, rng_stream(1, 1))
    etas = stopping_times(path, nu=1.0, kappa=0.7, b0=4.0)
    assert np.array_equal(etas[:11], np.arange(11, dtype=float))


def test_stopping_times_zero_kappa():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-3)
    path = sample_subordinator(spec, 5.0, rng_stream(2, 1))
    etas = stopping_times(path, nu=2.0, kappa=0.0, b0=4.0)
    # crossing exactly at the horizon is not resolvable inside the path,
    # so the last emitted renewal is at 4.5
    assert len(etas) == 10
    assert np.array_equal(etas, 0.5 * np.arange(10))


def test_stopping_times_monotone_and_delayed_by_jumps():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-3)
    path = sample_subordinator(spec, 30.0, rng_stream(3, 1))
    etas = stopping_times(path, nu=1.0, kappa=2e-3, b0=4.0)
    gaps = np.diff(etas)
    assert np.all(gaps > 0)
    # every renewal takes at least the jump-free crossing time 1/nu
    assert np.all(gaps >= 1.0 - 1e-12)
    assert np.any(gaps > 1.0 + 1e-9)


def test_first_eta_batch_matches_exact_walk():
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-3)
    nu, kappa, b0 = 1.0, 2e-3, 4.0
    etas, censored = first_eta_batch(spec, nu, kappa, b0, n_paths=1, seed=77, horizon=20.0)
    assert censored == 0
    rng = rng_stream(77, noise.ROLE_CLOCK)
    inc = rng.gamma(spec.a * spec.grid_step, 1.0 / spec.b, size=(1, 20000))
    path = noise.SubordinatorPath(spec, 1e-3 * np.arange(20001), inc[0])
    walked = stopping_times(path, nu, kappa, b0, max_count=1)
    assert etas[0] == walked[1]


def _walk_cells(path, nu, kappa, b0, max_count=None):
    # the cell-by-cell walk of the renewal criterion, kept as the oracle of
    # stopping_times: one Python step per cell, each crossing resolved from
    # the anchor
    times, cum = path.times, path.cumulative
    drop = 8.0 * b0 * kappa
    etas = [0.0]
    t0, ell0 = 0.0, 0.0
    cell = 0
    while cell < len(path.increments):
        f_pre = nu * (times[cell + 1] - t0) - drop * (cum[cell] - ell0)
        if f_pre > 1.0:
            t_star = t0 + (1.0 + drop * (cum[cell] - ell0)) / nu
            etas.append(t_star)
            if max_count is not None and len(etas) - 1 >= max_count:
                break
            t0, ell0 = t_star, cum[cell]
            continue
        cell += 1
    return np.asarray(etas)


def test_stopping_times_equal_the_cell_walk():
    rng = np.random.default_rng(2024)
    for case in range(60):
        a = 0.0 if case % 10 == 0 else 8.0
        spec = SubordinatorSpec(a=a, b=4.0, grid_step=(1e-3, 1e-2)[case % 2])
        horizon = spec.grid_step * int(rng.integers(50, 4000))
        path = sample_subordinator(spec, horizon, rng_stream(case, noise.ROLE_CLOCK))
        nu = float(rng.uniform(0.5, 2.0))
        kappa = 0.0 if case % 7 == 0 else float(rng.uniform(0.0, 0.05))
        max_count = (None, 1, 3)[case % 3]
        got = stopping_times(path, nu, kappa, 4.0, max_count)
        want = _walk_cells(path, nu, kappa, 4.0, max_count)
        assert got.tobytes() == want.tobytes(), case


def test_stopping_times_of_an_empty_path():
    path = sample_subordinator(SubordinatorSpec(), 0.0, rng_stream(1, noise.ROLE_CLOCK))
    assert stopping_times(path, 1.0, 1e-3, 4.0).tolist() == [0.0]


@pytest.mark.parametrize("nu, kappa", [(1.0, -1e-3), (0.0, 1e-3), (-1.0, 1e-3)])
def test_every_renewal_entry_refuses_bad_rates(nu, kappa):
    from boussinesq_lab.ensembles import stopping_moment_experiment
    spec = SubordinatorSpec()
    path = sample_subordinator(spec, 1.0, rng_stream(1, noise.ROLE_CLOCK))
    message = "need nu > 0" if nu <= 0 else "need kappa >= 0"
    for call in (lambda: stopping_times(path, nu, kappa, 4.0),
                 lambda: first_eta_batch(spec, nu, kappa, 4.0, 5, 1),
                 lambda: exp_moment_eta(spec, nu, kappa, 4.0, 5, 1),
                 lambda: stopping_moment_experiment(spec, nu, kappa, 4.0, 1, 5),
                 lambda: renewal_cells(path, nu, kappa, 4.0, 2),
                 lambda: sample_renewal_noise(spec, NoiseModel(), nu, kappa, 2, 1)):
        with pytest.raises(ValueError, match=message):
            call()


# ---------------------------------------------------------------------------
# renewal windows


def test_renewal_cells_round_each_renewal_up_onto_the_grid():
    # c_j is eta_j rounded up onto the clock grid: the first edge at or past
    # eta_j, one cell past c_{j-1} at least
    spec, model = SubordinatorSpec(grid_step=1e-2), NoiseModel()
    nu, kappa = 1.0, 5e-3
    for key in range(4):
        path, _ = sample_noise(spec, model, 12.0, 31, key)
        etas = stopping_times(path, nu, kappa, model.b0, max_count=3)[1:]
        cells = renewal_cells(path, nu, kappa, model.b0, 3)
        want = [0]
        for eta in etas:
            want.append(max(noise._cells_up(eta, spec.grid_step), want[-1] + 1))
        assert cells == want, key
        for eta, c in zip(etas, cells[1:]):
            assert path.times[c - 1] < eta <= path.times[c]
    # a path with fewer renewals than asked gives what it has
    short, _ = sample_noise(spec, model, 2.5, 31, 0)
    assert len(renewal_cells(short, nu, kappa, model.b0, 5)) == \
        len(stopping_times(short, nu, kappa, model.b0))


def test_a_renewal_on_a_cell_end_gains_no_cell():
    # a still clock at nu = 2.5 renews every 0.4, the third time at
    # 1.2000000000000002, the end of cell 12 up to roundoff: a bare ceiling
    # of eta / 0.1 would add a thirteenth cell, the rounding adds none
    path = sample_subordinator(SubordinatorSpec(a=0.0, grid_step=0.1), 2.0,
                               rng_stream(1, noise.ROLE_CLOCK))
    eta_3 = stopping_times(path, 2.5, 0.0, 4.0, max_count=3)[3]
    assert np.ceil(eta_3 / 0.1) == 13
    assert renewal_cells(path, 2.5, 0.0, 4.0, 3) == [0, 4, 8, 12]


def test_every_renewal_window_holds_a_cell():
    # at nu * grid_step = 1 exactly, with no clock penalty, the renewals
    # fall on the cell ends one by one and every window holds one cell
    spec, model = SubordinatorSpec(grid_step=1e-2), NoiseModel()
    assert 100.0 * spec.grid_step == 1.0
    path, _ = sample_noise(spec, model, 0.1, 1, 0)
    assert renewal_cells(path, 100.0, 0.0, model.b0, 6) == list(range(7))
    _, _, cells = sample_renewal_noise(spec, model, 100.0, 0.0, 20, 4, 3)
    assert cells == list(range(21))


def test_renewal_windows_refuse_a_grid_coarser_than_one_over_nu(monkeypatch):
    # renewals lie 1/nu apart at least: at nu = 200 two fit in a cell of
    # 1e-2, and the windows are refused, by sample_renewal_noise before any draw
    spec, model = SubordinatorSpec(grid_step=1e-2), NoiseModel()
    path, _ = sample_noise(spec, model, 1.0, 4, 3)
    why = "nu 200.0 times clock grid step 0.01 exceeds 1"
    with pytest.raises(ValueError, match=why):
        renewal_cells(path, 200.0, 0.0, model.b0, 20)

    def no_draw(*args):
        raise AssertionError("drew noise")
    monkeypatch.setattr(noise, "_keyed_draw", no_draw)
    with pytest.raises(ValueError, match=why):
        sample_renewal_noise(spec, model, 200.0, 0.0, 20, 4, 3)


def test_path_window_rebases_a_slice():
    spec = SubordinatorSpec(grid_step=1e-2)
    path, _ = sample_noise(spec, NoiseModel(), 1.0, 8, 2)
    sub = path.window(30, 47)
    assert sub.spec == spec and sub.seed == path.seed == 8
    assert sub.times.tobytes() == (path.times[30:48] - path.times[30]).tobytes()
    assert sub.times[0] == 0.0
    assert sub.increments.tobytes() == path.increments[30:47].tobytes()
    assert sub.cumulative.tobytes() == np.concatenate([[0.0], np.cumsum(sub.increments)]).tobytes()
    np.testing.assert_allclose(sub.cumulative, path.cumulative[30:48] - path.cumulative[30],
                               rtol=1e-12, atol=1e-12)
    assert path.window(0, 100).times.tobytes() == path.times.tobytes()
    for c0, c1 in ((5, 5), (6, 5), (-1, 3), (90, 101)):
        with pytest.raises(ValueError, match="window cells"):
            path.window(c0, c1)


def test_renewal_noise_redraws_a_longer_clock():
    # the first clock spans 1.8 (count + 1) / nu = 3.6; key 3 renews first
    # at cell 787, so it is redrawn over 7.2 and then 14.4, and each longer
    # draw keeps the shorter one as its prefix
    spec, model = SubordinatorSpec(grid_step=1e-2), NoiseModel()
    nu, kappa = 1.0, 0.014
    path, dw, cells = sample_renewal_noise(spec, model, nu, kappa, 1, 4, 3)
    assert path.horizon == pytest.approx(14.4) and cells == [0, 787]
    want, want_dw = sample_noise(spec, model, 14.4, 4, 3)
    assert path.increments.tobytes() == want.increments.tobytes()
    assert dw.tobytes() == want_dw.tobytes() and path.seed == 4
    assert cells == renewal_cells(want, nu, kappa, model.b0, 1)
    for horizon in (3.6, 7.2):
        short, _ = sample_noise(spec, model, horizon, 4, 3)
        assert renewal_cells(short, nu, kappa, model.b0, 1) == [0]
        assert path.increments[:len(short.increments)].tobytes() == short.increments.tobytes()
    # a clock penalty the drift never beats renews nowhere
    with pytest.raises(RuntimeError, match="clock horizon too short"):
        sample_renewal_noise(SubordinatorSpec(grid_step=1.0), model, nu, 10.0, 1, 4, 3)


def test_first_eta_batch_honours_its_horizon():
    # with no clock penalty every path crosses at 1/nu, so a horizon before
    # it censors them all, as a tiny penalty does; an off-grid horizon, or
    # one of no whole cell, is refused
    spec = SubordinatorSpec(grid_step=1e-3)
    for kappa in (0.0, 1e-9):
        etas, censored = first_eta_batch(spec, 1.0, kappa, 4.0, 3, 1, horizon=0.5)
        assert (len(etas), censored) == (0, 3)
    etas, censored = first_eta_batch(spec, 1.0, 0.0, 4.0, 3, 1, horizon=1.5)
    assert etas.tolist() == [1.0] * 3 and censored == 0
    with pytest.raises(ValueError, match="multiple of the grid step"):
        first_eta_batch(spec, 1.0, 1e-3, 4.0, 3, 1, horizon=1.0004)
    for horizon in (0.4e-3, 1e-10, 0.0, -1.0):
        with pytest.raises(ValueError):
            first_eta_batch(spec, 1.0, 1e-3, 4.0, 3, 1, horizon=horizon)


def test_noise_batch_stacks_the_keyed_draws():
    spec, model = SubordinatorSpec(grid_step=1e-2), NoiseModel()
    incs, dw = sample_noise_batch(spec, model, 0.3, 9, 3, key_offset=2)
    for row, key in enumerate(range(2, 5)):
        path, dw_one = sample_noise(spec, model, 0.3, 9, key)
        assert incs[row].tobytes() == path.increments.tobytes()
        assert dw[row].tobytes() == dw_one.tobytes()
    with pytest.raises(ValueError, match="multiple of the grid step"):
        sample_noise_batch(spec, model, 0.305, 9, 3)


def test_exp_moment_zero_kappa_is_closed_form():
    spec = SubordinatorSpec()
    out = exp_moment_eta(spec, nu=1.0, kappa=0.0, b0=4.0, n_paths=100, seed=5)
    assert abs(out["estimate"] - np.exp(10.0)) < 1e-9 * np.exp(10.0)
    assert out["censored"] == 0


def test_exp_moment_light_kappa_finite_and_uncensored():
    spec = SubordinatorSpec()
    out = exp_moment_eta(spec, nu=1.0, kappa=1.25e-3, b0=4.0, n_paths=400, seed=6)
    assert out["censored"] == 0
    assert np.exp(10.0) < out["estimate"] < np.exp(13.0)
