"""Tangent flow, adjoint transport, jump Gramian, eigen probe, control."""

import warnings

import numpy as np
import pytest

from boussinesq_lab import spectral as sp
from boussinesq_lab import variation as var
from boussinesq_lab.noise import (
    ROLE_BROWNIAN,
    ROLE_CLOCK,
    NoiseModel,
    SubordinatorPath,
    SubordinatorSpec,
    rng_stream,
    sample_noise,
    sample_subordinator,
    subordinated_increments,
)
from boussinesq_lab.spectral import PhysicsParams, SpectralState
from boussinesq_lab.stepping import (DEFAULT_SCHEME, KickSchedule, Stepper, StepScheme,
                                     simulate, sweep)


def make_noise(seed, horizon, dim=4, h=5e-3, a=8.0, b=4.0):
    spec = SubordinatorSpec(a=a, b=b, grid_step=h)
    clock_h = h * int(np.ceil(horizon / h))
    path = sample_subordinator(spec, clock_h, rng_stream(seed, ROLE_CLOCK))
    dw = subordinated_increments(path, dim, rng_stream(seed, ROLE_BROWNIAN))
    return path, dw


@pytest.fixture
def stepper32(params):
    return Stepper(32, params, DEFAULT_SCHEME, 1e-3)


# ---------------------------------------------------------------------------
# tangent flow


def test_drift_direction_matches_operator_formula(params, rng, stepper32):
    base = sp.random_state(32, rng)
    xi = sp.random_state(32, rng)
    lin = var.Linearizer(stepper32)
    dw_, dt_ = lin.drift_direction(lin.prepare(base.halves()), *xi.halves())
    want = sp.apply_G(xi, params) - sp.nonlinear_B(base, xi) - sp.nonlinear_B(xi, base)
    scale = np.abs(want.w_hat).max() + np.abs(want.theta_hat).max()
    assert np.allclose(dw_, sp.half(want.w_hat), atol=1e-10 * scale)
    assert np.allclose(dt_, sp.half(want.theta_hat), atol=1e-10 * scale)


def test_tangent_zero_base_modal_oracle(params, stepper32):
    # around U = 0 the advection terms vanish and the step recursion is
    # diagonal per mode: theta multiplies decay_t, the vorticity slot picks
    # up the buoyancy coupling through a geometric accumulation
    lin = var.Linearizer(stepper32)
    st = stepper32
    xi = sp.sigma_state(32, (1, 2), 0)
    n_steps = 25
    _, xw, xt, _ = var.flow_with_tangent(sp.state_zeros(32), n_steps, lin,
                                         lead=var.stack_states([xi]))

    ik1 = 1j * sp.wavenumbers(32)[0]
    acc = np.zeros_like(sp.half(xi.theta_hat))
    for p in range(n_steps):
        acc += st.decay_w ** (n_steps - 1 - p) * st.decay_t**p
    want_t = st.decay_t**n_steps * sp.half(xi.theta_hat)
    want_w = params.g * st.gain_w * ik1 * acc * sp.half(xi.theta_hat)
    assert np.allclose(xt[0], want_t, atol=1e-12)
    assert np.allclose(xw[0], want_w, atol=1e-12)


def test_jacobian_linearity(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    phi = sp.random_state(32, rng)
    psi = sp.random_state(32, rng)
    combo = SpectralState(0.7 * phi.w_hat - 1.3 * psi.w_hat,
                          0.7 * phi.theta_hat - 1.3 * psi.theta_hat)
    out = var.jacobian_forward(u0, 0.05, stepper32, [phi, psi, combo])
    mix_w = 0.7 * out[0].w_hat - 1.3 * out[1].w_hat
    mix_t = 0.7 * out[0].theta_hat - 1.3 * out[1].theta_hat
    scale = np.abs(out[2].w_hat).max() + np.abs(out[2].theta_hat).max()
    assert np.allclose(out[2].w_hat, mix_w, atol=1e-11 * scale)
    assert np.allclose(out[2].theta_hat, mix_t, atol=1e-11 * scale)


def test_jacobian_semigroup_split(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    xi = sp.random_state(32, rng)
    lin = var.Linearizer(stepper32)
    lead = var.stack_states([xi])
    _, xw_a, xt_a, _ = var.flow_with_tangent(u0, 60, lin, lead=lead)
    mid, xw_b, xt_b, _ = var.flow_with_tangent(u0, 25, lin, lead=lead)
    _, xw_b, xt_b, _ = var.flow_with_tangent(mid, 35, lin, lead=(xw_b, xt_b))
    assert np.allclose(xw_a, xw_b, atol=1e-13 * max(1.0, np.abs(xw_a).max()))
    assert np.allclose(xt_a, xt_b, atol=1e-13 * max(1.0, np.abs(xt_a).max()))


def test_jacobian_fd_with_noise(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    model = NoiseModel()
    path, dw = make_noise(411, 0.1, dim=model.dim)
    dirs = [sp.random_state(32, rng) for _ in range(3)]
    worst = var.jacobian_fd_check(u0, 0.1, stepper32, dirs, eps=1e-6,
                                  model=model, path=path, dw=dw)
    assert worst <= 1e-4


def test_jacobian_fd_imex(params, rng):
    stepper = Stepper(24, params, StepScheme.IMEX_EULER, 1e-3)
    u0 = sp.random_state(24, rng)
    dirs = [sp.random_state(24, rng)]
    worst = var.jacobian_fd_check(u0, 0.05, stepper, dirs, eps=1e-6)
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# adjoint transport


def test_adjoint_single_step_transpose(params, rng, stepper32):
    lin = var.Linearizer(stepper32)
    base = sp.random_state(32, rng)
    prep = lin.prepare(base.halves())
    for _ in range(5):
        xi = sp.random_state(32, rng)
        rho = sp.random_state(32, rng)
        fw, ft = lin.tangent(prep, *xi.halves())
        bw, bt = lin.adjoint(prep, *rho.halves())
        lhs = sp.state_dot(SpectralState.from_halves(fw, ft), rho, params)
        rhs = sp.state_dot(xi, SpectralState.from_halves(bw, bt), params)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_duality_window_with_noise(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    model = NoiseModel()
    path, dw = make_noise(902, 0.08, dim=model.dim)
    for _ in range(5):
        xi = sp.random_state(32, rng)
        phi = sp.random_state(32, rng)
        gap = var.duality_gap(u0, 0.08, stepper32, xi, phi,
                              model=model, path=path, dw=dw)
        assert gap <= 1e-8


@pytest.mark.parametrize("entry", ["jacobian_forward", "second_variation", "duality_gap",
                                   "tail_coupling_series"])
def test_horizon_must_be_a_multiple_of_the_step(params, entry):
    # rounding would run 0.015 as 0.02, and 0.004 as zero steps (a vacuous pass)
    stepper = Stepper(16, params, DEFAULT_SCHEME, 1e-2)
    rng = np.random.default_rng(5)
    u0, xi = sp.random_state(16, rng), sp.random_state(16, rng)
    calls = {
        "jacobian_forward": lambda h: var.jacobian_forward(u0, h, stepper, [xi]),
        "second_variation": lambda h: var.second_variation(u0, h, stepper, xi, xi),
        "duality_gap": lambda h: var.duality_gap(u0, h, stepper, xi, xi),
        "tail_coupling_series": lambda h: var.tail_coupling_series(u0, h, stepper, (2,), rng),
    }
    for horizon in (0.015, 0.004):
        with pytest.raises(ValueError, match="horizon must be a multiple of the step size"):
            calls[entry](horizon)


def test_adjoint_zeta_weighting(rng):
    # transpose must hold in the weighted product when zeta* != 1
    params = PhysicsParams(nu1=2.0, nu2=3.0, g=2.0)
    stepper = Stepper(24, params, DEFAULT_SCHEME, 1e-3)
    lin = var.Linearizer(stepper)
    base = sp.random_state(24, rng)
    prep = lin.prepare(base.halves())
    xi = sp.random_state(24, rng)
    rho = sp.random_state(24, rng)
    fw, ft = lin.tangent(prep, *xi.halves())
    bw, bt = lin.adjoint(prep, *rho.halves())
    lhs = sp.state_dot(SpectralState.from_halves(fw, ft), rho, params)
    rhs = sp.state_dot(xi, SpectralState.from_halves(bw, bt), params)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_symmetric(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    phi = sp.random_state(32, rng)
    psi = sp.random_state(32, rng)
    a = var.second_variation(u0, 0.03, stepper32, phi, psi)
    b = var.second_variation(u0, 0.03, stepper32, psi, phi)
    scale = max(np.abs(a.w_hat).max(), np.abs(a.theta_hat).max(), 1e-30)
    assert np.allclose(a.w_hat, b.w_hat, atol=1e-13 * scale)
    assert np.allclose(a.theta_hat, b.theta_hat, atol=1e-13 * scale)


def test_second_variation_fd(params, rng):
    stepper = Stepper(24, params, DEFAULT_SCHEME, 1e-3)
    u0 = sp.random_state(24, rng)
    phi = sp.random_state(24, rng)
    psi = sp.random_state(24, rng)
    rel = var.second_variation_fd_check(u0, 0.05, stepper, phi, psi)
    assert rel <= 1e-3


def test_second_variation_zero_direction(params, rng, stepper32):
    u0 = sp.random_state(32, rng)
    zero = sp.state_zeros(32)
    psi = sp.random_state(32, rng)
    out = var.second_variation(u0, 0.02, stepper32, zero, psi)
    assert np.abs(out.w_hat).max() == 0.0
    assert np.abs(out.theta_hat).max() == 0.0


# ---------------------------------------------------------------------------
# jump Gramian


def gramian_setup(params, seed=77, n=32, horizon=0.04, dt=1e-3, level=2.0):
    stepper = Stepper(n, params, DEFAULT_SCHEME, dt)
    model = NoiseModel()
    path, dw = make_noise(seed, horizon, dim=model.dim)
    rng = np.random.default_rng(seed)
    u0 = sp.random_state(n, rng)
    basis = var.HNBasis(n, level, params)
    n_steps = int(round(horizon / dt))
    return stepper, model, path, dw, u0, basis, n_steps


def test_gramian_forward_backward_agree(params):
    stepper, model, path, dw, u0, basis, n_steps = gramian_setup(params)
    fwd = var.malliavin_forward(u0, n_steps, stepper, model, path, dw, basis)
    traj = simulate(u0, n_steps * stepper.dt, stepper, model=model, path=path,
                    dw=dw, store_full=True)
    bwd = var.malliavin_backward(traj.states, stepper, model, path, basis)
    scale = max(1.0, np.abs(fwd.matrix).max())
    assert fwd.n_jumps == bwd.n_jumps
    assert np.abs(fwd.matrix - bwd.matrix).max() <= 1e-8 * scale


@pytest.mark.parametrize("seed", [77, 78])
def test_gramian_factors_agree_row_for_row(params, seed):
    # both assemblies return the factor F with rows in time order, d per
    # jump, and the matrix F^T F formed from it
    stepper, model, path, dw, u0, basis, n_steps = gramian_setup(params, seed=seed, n=16)
    fwd = var.malliavin_forward(u0, n_steps, stepper, model, path, dw, basis)
    traj = simulate(u0, n_steps * stepper.dt, stepper, model=model, path=path,
                    dw=dw, store_full=True)
    bwd = var.malliavin_backward(traj.states, stepper, model, path, basis)
    assert fwd.n_jumps > 1
    assert fwd.factor.shape == bwd.factor.shape == (fwd.n_jumps * model.dim, basis.dim)
    gap = np.abs(fwd.factor - bwd.factor).max()
    assert gap <= 1e-12 * np.abs(fwd.factor).max()
    for res in (fwd, bwd):
        assert np.array_equal(res.matrix, res.factor.T @ res.factor)


def test_gramian_symmetric_psd(params):
    stepper, model, path, dw, u0, basis, n_steps = gramian_setup(params, seed=91)
    out = var.malliavin_forward(u0, n_steps, stepper, model, path, dw, basis)
    assert np.array_equal(out.matrix, out.matrix.T)
    eigs = np.linalg.eigvalsh(out.matrix)
    assert eigs.min() >= -1e-10 * max(1.0, np.abs(eigs).max())


def test_gramian_no_jump_degenerate(params):
    stepper = Stepper(24, params, DEFAULT_SCHEME, 1e-3)
    model = NoiseModel()
    spec = SubordinatorSpec(a=0.0, b=4.0, grid_step=5e-3)
    path = sample_subordinator(spec, 0.02, rng_stream(1, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(1, ROLE_BROWNIAN))
    basis = var.HNBasis(24, 2.0, params)
    out = var.malliavin_forward(sp.state_zeros(24), 20, stepper, model, path, dw, basis)
    assert out.degenerate
    assert out.n_jumps == 0
    assert np.abs(out.matrix).max() == 0.0


def test_gramian_single_jump_trace(params):
    n, dt, h = 24, 1e-3, 5e-3
    stepper = Stepper(n, params, DEFAULT_SCHEME, dt)
    model = NoiseModel()
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=h)
    times = h * np.arange(5)
    inc = np.array([0.0, 0.3, 0.0, 0.0])
    path = SubordinatorPath(spec, times, inc)
    dw = np.zeros((4, model.dim))
    dw[1] = [0.4, -0.2, 0.1, 0.3]
    rng = np.random.default_rng(5)
    u0 = sp.random_state(n, rng)
    basis = var.HNBasis(n, 2.0, params)
    n_steps = 20
    out = var.malliavin_forward(u0, n_steps, stepper, model, path, dw, basis)
    assert out.n_jumps == 1

    # reference: propagate each seeded direction from just after the jump
    traj = simulate(u0, n_steps * dt, stepper, model=model, path=path, dw=dw,
                    store_full=True)
    jump_step = 2 * int(round(h / dt)) - 1          # cell 1 ends step 9
    start = traj.states[jump_step + 1]
    dirs = [SpectralState(np.zeros((n, n), np.complex128), a * sp.trig_hat(n, k[0], k[1], m))
            for (k, m), a in zip(model.directions(), model.alphas)]
    cols = var.jacobian_forward(start, (n_steps - jump_step - 1) * dt, stepper, dirs)
    want = 0.3 * sum(float(np.sum(basis.coords(*c.halves()) ** 2)) for c in cols)
    assert np.trace(out.matrix) == pytest.approx(want, rel=1e-10)


def test_malliavin_fd_identity(params):
    # bumping one Brownian increment moves the endpoint along the tangent
    # column seeded at that jump
    n, dt, h, horizon = 24, 1e-3, 5e-3, 0.03
    stepper = Stepper(n, params, DEFAULT_SCHEME, dt)
    model = NoiseModel()
    path, dw = make_noise(314, horizon, dim=model.dim, h=h)
    rng = np.random.default_rng(8)
    u0 = sp.random_state(n, rng)
    n_steps = int(round(horizon / dt))
    row, direction = 2, 1
    eps = 1e-5

    lin = var.Linearizer(stepper)
    kicks = KickSchedule.along(path, stepper, n_steps, model, dw)
    (k, m), alpha = model.directions()[direction], model.alphas[direction]
    cw = ct = None

    def on_step(i, pre, post, cell):
        nonlocal cw, ct
        if cw is not None:
            cw, ct = lin.tangent(lin.prepare(pre), cw, ct)
        if cell == row:
            cw = np.zeros((n, n // 2 + 1), np.complex128)
            ct = alpha * sp.half(sp.trig_hat(n, k[0], k[1], m))

    sweep(stepper, *u0.halves(), n_steps, kicks, on_step)
    assert cw is not None

    bumped = dw.copy()
    bumped[row, direction] += eps
    ref = simulate(u0, horizon, stepper, model=model, path=path, dw=dw).final
    shifted = simulate(u0, horizon, stepper, model=model, path=path, dw=bumped).final
    fd = SpectralState((shifted.w_hat - ref.w_hat) / eps,
                       (shifted.theta_hat - ref.theta_hat) / eps)
    gap = sp.weighted_norm(fd - SpectralState.from_halves(cw, ct), params)
    assert gap <= 1e-3 * sp.weighted_norm(SpectralState.from_halves(cw, ct), params)


# ---------------------------------------------------------------------------
# constrained eigen probe


def test_eigen_probe_inactive():
    m = np.diag([1.0, 3.0])
    probe = var.min_eigen_probe(m, np.array([True, False]), 0.5)
    assert not probe.active
    assert probe.lower == pytest.approx(1.0)
    assert probe.upper == pytest.approx(1.0)


def test_eigen_probe_boundary_exact():
    # min over the boundary |P phi| = 0.8 of diag(3, 1): 3 * 0.64 + 1 * 0.36
    m = np.diag([3.0, 1.0])
    probe = var.min_eigen_probe(m, np.array([True, False]), 0.8)
    assert probe.active
    assert probe.lower == pytest.approx(2.28, abs=5e-3)
    assert probe.upper == pytest.approx(2.28, abs=5e-3)
    assert probe.unconstrained == pytest.approx(1.0)


def test_eigen_probe_upper_within_p_block():
    # every unit vector inside the P block is feasible, so the block's least
    # eigenvalue caps the constrained minimum. Here the multiplier crosses
    # from a mixed eigenvector (P-mass 0.2) to the P-block vector e1 without
    # meeting the boundary, and both rebalanced candidates land far above
    # the block minimum 1e-3
    a, delta = 0.2, 1e-3
    w = np.array([np.sqrt(1.0 - a * a), 0.0, -a])
    m = np.outer(w, w) + delta * np.diag([0.0, 1.0, 0.0])
    probe = var.min_eigen_probe(m, np.array([True, True, False]), 0.5)
    assert probe.active
    assert probe.upper <= delta * (1.0 + 1e-12)
    assert probe.lower <= probe.upper


def test_eigen_probe_random_invariants():
    rng = np.random.default_rng(40)
    mask = np.zeros(8, dtype=bool)
    mask[:3] = True
    for _ in range(10):
        a = rng.standard_normal((8, 8))
        m = a.T @ a
        probe = var.min_eigen_probe(m, mask, 0.7)
        assert probe.lower <= probe.upper + 1e-12
        assert probe.lower >= probe.unconstrained - 1e-12
        if probe.active:
            # the bisected dual value should not be beaten by a coarse scan
            grid = np.linspace(0.0, 4.0 * probe.mu + 1.0, 200)
            best = -np.inf
            for mu in grid:
                lam = np.linalg.eigvalsh(m - mu * np.diag(mask.astype(float)))[0]
                best = max(best, lam + mu * 0.49)
            assert probe.lower >= best - 1e-3 * max(1.0, abs(best))


def test_eigen_probe_bisection_stops_at_roundoff_width(monkeypatch):
    # the eigenvector jumps from e2 (P-mass 0) to e1 (P-mass 1) where
    # 2 - mu = 0.7, so the P-mass never comes within 1e-3 of alpha; once the
    # bracket is one ulp wide each further halving repeats the same eigh.
    # The fields are pinned from the search that ran all 200 halvings
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    probe = var.min_eigen_probe(np.diag([2.0, 0.7, 3.0]), np.array([True, False, False]), 0.5)
    assert len(calls) < 60          # 203 without the stop
    assert (probe.lower, probe.upper, probe.unconstrained, probe.mu, probe.boundary_gap) == (
        1.025, 1.0250000000000004, 0.7, 1.2999999999999998, 0.5)
    assert probe.active


def test_eigen_probe_rejects_bad_input():
    m = np.eye(3)
    with pytest.raises(ValueError):
        var.min_eigen_probe(m, np.zeros(3, dtype=bool), 0.5)
    with pytest.raises(ValueError):
        var.min_eigen_probe(m, np.ones(3, dtype=bool), 1.5)


# ---------------------------------------------------------------------------
# window control


def control_setup(params, seed=17, n=16, horizon=0.5, dt=1e-2):
    stepper = Stepper(n, params, DEFAULT_SCHEME, dt)
    model = NoiseModel()
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=dt)
    path = sample_subordinator(spec, horizon, rng_stream(seed, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(seed, ROLE_BROWNIAN))
    rng = np.random.default_rng(seed)
    u0 = sp.random_state(n, rng)
    rho = sp.random_state(n, rng)
    nrm = sp.weighted_norm(rho, params)
    rho = SpectralState(rho.w_hat / nrm, rho.theta_hat / nrm)
    n_steps = int(round(horizon / dt))
    return stepper, model, path, dw, u0, rho, n_steps


def test_control_recursion_identity(params):
    stepper, model, path, dw, u0, rho, n_steps = control_setup(params)
    out = var.control_window(rho, u0, n_steps, stepper, model, path, dw)
    free = var.control_window(rho, u0, n_steps, stepper, model, path, dw,
                              controlled=False)
    assert out.recursion_residual <= 1e-6
    assert out.v_norm_sq > 0.0
    assert out.beta > 0.0
    damped = sp.weighted_norm(out.rho_out, params)
    plain = sp.weighted_norm(free.rho_out, params)
    assert damped <= plain + 1e-9
    # the controlled window shares the base path with the free transport
    assert np.allclose(out.base_out.theta_hat, free.base_out.theta_hat)


def test_control_huge_beta_is_free_transport(params):
    stepper, model, path, dw, u0, rho, n_steps = control_setup(params, seed=23)
    out = var.control_window(rho, u0, n_steps, stepper, model, path, dw, beta=1e12)
    free = var.control_window(rho, u0, n_steps, stepper, model, path, dw,
                              controlled=False)
    num = sp.weighted_norm(out.rho_out - free.rho_out, params)
    den = sp.weighted_norm(free.rho_out, params)
    assert num <= 1e-8 * den
    assert out.v_norm_sq <= 1e-12


def test_control_zero_costate(params):
    stepper, model, path, dw, u0, _, n_steps = control_setup(params, seed=29)
    zero = sp.state_zeros(16)
    out = var.control_window(zero, u0, n_steps, stepper, model, path, dw)
    assert sp.weighted_norm(out.rho_out, params) == 0.0
    assert out.v_norm_sq == 0.0


def test_control_window_takes_subnormal_clock_masses():
    # the default clock draws subnormal cell masses (cell 368 here holds
    # 2.4e-322); the jump columns carry sqrt(dl), so no step divides by one
    spec, model = SubordinatorSpec(grid_step=1e-3), NoiseModel()
    path, dw = sample_noise(spec, model, 5.4, 20260818, 0)
    c0, c1 = 338, 379
    assert 0.0 < path.increments[368] < 1e-320
    sub = path.window(c0, c1)
    stepper = Stepper(16, PhysicsParams(), DEFAULT_SCHEME, 1e-3)
    rng = np.random.default_rng(5)
    u0 = sp.random_state(16, rng)
    rho = sp.random_state(16, rng)
    rho = rho * (1.0 / sp.weighted_norm(rho, stepper.params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = var.control_window(rho, u0, c1 - c0, stepper, model, sub, dw[c0:c1])
    assert out.n_jumps == c1 - c0
    assert out.recursion_residual <= 1e-6
    assert np.isfinite(sp.weighted_norm(out.rho_out, stepper.params))


def test_control_experiment_median_decay():
    params = PhysicsParams(nu1=2.0, nu2=2.0, g=1.0)
    spec = SubordinatorSpec(a=8.0, b=4.0, grid_step=1e-2)
    model = NoiseModel()
    kappa = 0.1 * 0.05 * params.nu / model.b0
    out = var.control_experiment(seed=3101, n_paths=12, n_windows=4,
                                 stepper=Stepper(12, params, DEFAULT_SCHEME, 1e-2),
                                 spec=spec, model=model, kappa=kappa, amplitude=0.5)
    assert out.residual_max <= 1e-6
    assert out.n_degenerate == 0
    med = np.median(out.rho_norms, axis=0)
    # controlled windows are the even ones; compare costate at even edges
    assert med[2] < 0.5 * med[0]
    assert med[4] < 0.5 * med[2]


def test_control_experiment_draws_a_longer_clock():
    # at kappa = 0.01 neither path renews twice within the first clock
    # horizon 1.8 (n_windows + 1) / nu = 5.4, so both are redrawn longer. At
    # kappa = 0.005 both fit at once and draw what a fixed 5.4 horizon drew.
    # The edges are [0, eta_1, eta_2] in steps, rounded up to the clock grid
    def run(kappa):
        return var.control_experiment(11, 2, 2, Stepper(16, PhysicsParams(), DEFAULT_SCHEME, 1e-2),
                                      SubordinatorSpec(grid_step=1e-2), NoiseModel(), kappa)

    out = run(0.01)
    assert out.edge_steps == [[0, 423, 589], [0, 306, 707]]
    assert np.all(np.isfinite(out.rho_norms))
    ref = run(0.005)
    assert ref.edge_steps == [[0, 173, 326], [0, 160, 303]]
    # the norms pass through control_window, which amplifies roundoff ~5e7
    np.testing.assert_allclose(ref.rho_norms, [[1.0, 0.05650127711641388, 0.01496654275086353],
                                               [1.0, 0.05566801141923405, 0.019322835713519556]],
                               rtol=1e-6, atol=0)


def test_control_experiment_first_window_ends_at_eta_1():
    # window 0 runs from 0 to the first renewal time eta_1 rounded up to the
    # clock grid, not one cell (the eta_0 = 0 edge)
    from boussinesq_lab.noise import sample_noise, stopping_times

    params, spec, model = PhysicsParams(), SubordinatorSpec(grid_step=1e-2), NoiseModel()
    dt, kappa, n_windows = 5e-3, 0.005, 2
    out = var.control_experiment(11, 2, n_windows, Stepper(16, params, DEFAULT_SCHEME, dt),
                                 spec, model, kappa)
    for i, edges in enumerate(out.edge_steps):
        path, _ = sample_noise(spec, model, 1.8 * (n_windows + 1) / params.nu, 11, i)
        eta_1 = stopping_times(path, params.nu, kappa, model.b0, max_count=1)[1]
        cells = int(np.ceil(eta_1 / spec.grid_step - 1e-12))
        assert cells > 1
        assert edges[:2] == [0, 2 * cells]


# ---------------------------------------------------------------------------
# spectral-tail coupling


def test_tail_coupling_envelopes(params):
    stepper = Stepper(32, params, DEFAULT_SCHEME, 1e-3)
    rng = np.random.default_rng(62)
    u0 = sp.random_state(32, rng)
    series = var.tail_coupling_series(u0, 0.3, stepper, levels=(3, 6), seed_rng=rng)
    s3, s6 = series
    assert s3.tail_sq[0] == pytest.approx(1.0, abs=1e-10)
    assert s3.band_sq[0] <= 1e-12

    c_fit = var.fit_tail_envelope(s3, params.nu)
    c_test = var.fit_tail_envelope(s6, params.nu)
    assert c_test <= 1.05 * c_fit + 1e-12

    # smallest band growth constant: max_t band(t) N^{1/4} / (1 + t)
    def band_constant(s):
        return float((s.band_sq * s.level**0.25 / (1.0 + s.times)).max())

    assert band_constant(s6) <= 1.05 * band_constant(s3) + 1e-12

    # log-linear decay rate of the tail energy over (0, t_cut]
    m = (s6.times > 0) & (s6.times <= 0.5 / (params.nu * 36.0))
    assert m.any()
    q = np.maximum(s6.tail_sq[m], 1e-300)
    slope = float(-(np.log(q[-1]) - np.log(s6.tail_sq[0])) / s6.times[m][-1])
    assert slope >= 0.8 * params.nu * 36.0


def test_tail_seed_requires_headroom(params):
    # n = 16 samples modes up to |k_i| <= 5, so nothing lives beyond level 8
    stepper = Stepper(16, params, DEFAULT_SCHEME, 1e-3)
    rng = np.random.default_rng(7)
    u0 = sp.state_zeros(16)
    with pytest.raises(ValueError):
        var.tail_coupling_series(u0, 0.01, stepper, levels=(8,), seed_rng=rng)
