"""Integrator contracts: per-mode decay, reproducibility, energy audit."""

import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from boussinesq_lab import spectral as sp
from boussinesq_lab import variation as var
from boussinesq_lab.config import RunConfig
from boussinesq_lab.ensembles import BatchRunner, default_observables
from boussinesq_lab.noise import (
    ROLE_BROWNIAN,
    ROLE_CLOCK,
    NoiseModel,
    SubordinatorSpec,
    rng_stream,
    sample_subordinator,
    subordinated_increments,
)
from boussinesq_lab.spectral import PhysicsParams, psi_state, random_state, sigma_state
from boussinesq_lab.stepping import (
    KickSchedule,
    StepScheme,
    Stepper,
    energy_audit,
    run_with_noise,
    simulate,
    sweep,
)

TWO_PI_SQ = 2.0 * np.pi**2


def test_single_temperature_mode_decay_is_exact():
    n = 32
    p = PhysicsParams(nu1=1.0, nu2=0.8, g=1.0)
    k = (0, 2)                       # k1 = 0: no buoyancy pickup, stays linear
    u = sigma_state(n, k, 0)
    dt = 0.05
    z = p.nu2 * 4.0 * dt

    etd = simulate(u, dt, Stepper(n, p, StepScheme.ETD_EULER, dt)).final
    ratio = sp.mode_coeff(sp.half(etd.theta_hat), k, 0)
    assert ratio == pytest.approx(np.exp(-z), rel=0, abs=1e-15)

    imex = simulate(u, dt, Stepper(n, p, StepScheme.IMEX_EULER, dt)).final
    ratio = sp.mode_coeff(sp.half(imex.theta_hat), k, 0)
    assert ratio == pytest.approx(1.0 / (1.0 + z), rel=0, abs=1e-15)


def test_single_vorticity_mode_decay():
    n = 32
    p = PhysicsParams(nu1=0.6, nu2=1.0, g=1.0)
    k = (2, 1)
    u = psi_state(n, k, 1)
    dt = 0.02
    out = simulate(u, dt, Stepper(n, p, StepScheme.ETD_EULER, dt)).final
    expect = np.exp(-p.nu1 * 5.0 * dt)
    assert abs(sp.mode_coeff(sp.half(out.w_hat), k, 1) - expect) < 1e-13


def test_lyapunov_norm_nonincreasing_without_forcing(rng):
    n = 32
    p = PhysicsParams(nu1=1.0, nu2=2.0, g=1.5)
    u0 = random_state(n, rng)
    traj = simulate(u0, 1.0, Stepper(n, p, StepScheme.ETD_EULER, 1e-3))
    assert np.all(np.diff(traj.norm0) <= 1e-12)


def test_simulate_zero_horizon(rng):
    u0 = random_state(16, rng)
    traj = simulate(u0, 0.0, Stepper(16, PhysicsParams(), StepScheme.ETD_EULER, 1e-2))
    assert len(traj.times) == 1
    assert np.array_equal(traj.snapshots[0].w_hat, u0.w_hat)


def test_zero_noise_decay_rate_fit():
    n = 32
    p = PhysicsParams(nu1=1.0, nu2=0.5, g=1.0)
    u0 = sigma_state(n, (0, 1), 0)
    traj = simulate(u0, 2.0, Stepper(n, p, StepScheme.ETD_EULER, 1e-3))
    slope = np.polyfit(traj.times, np.log(traj.norm0), 1)[0]
    assert abs(slope + p.nu2) < 1e-6


def test_same_seed_bit_identical(rng):
    n = 16
    p = PhysicsParams()
    u0 = random_state(n, rng)
    model = NoiseModel()
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(n, p, StepScheme.ETD_EULER, 1e-2)
    t1, _, _ = run_with_noise(u0, 0.5, stepper, model, spec, seed=101)
    t2, _, _ = run_with_noise(u0, 0.5, stepper, model, spec, seed=101)
    t3, _, _ = run_with_noise(u0, 0.5, stepper, model, spec, seed=102)
    assert np.array_equal(t1.final.theta_hat, t2.final.theta_hat)
    assert np.array_equal(t1.final.w_hat, t2.final.w_hat)
    assert not np.array_equal(t1.final.theta_hat, t3.final.theta_hat)


def test_step_size_must_divide_clock_grid(rng):
    n = 16
    u0 = random_state(n, rng)
    model = NoiseModel()
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 3e-3)
    with pytest.raises(ValueError):
        run_with_noise(u0, 0.3, stepper, model, spec, seed=1)


# ---------------------------------------------------------------------------
# kick schedule


def test_kick_schedule_step_to_cell():
    # q = 1: every step ends a clock cell
    ks = KickSchedule(1e-2, 1e-2, 4)
    assert ks.n_steps == 4
    assert ks.cell_at == {0: 0, 1: 1, 2: 2, 3: 3}
    # q = 3: the jump of cell i ends step 3 (i + 1) - 1
    ks = KickSchedule(3e-2, 1e-2, 3)
    assert ks.n_steps == 9
    assert ks.cell_at == {2: 0, 5: 1, 8: 2}
    # a sweep shorter than the path sees only the cells it completes
    assert KickSchedule(3e-2, 1e-2, 3, n_steps=8).cell_at == {2: 0, 5: 1}
    assert KickSchedule(3e-2, 1e-2, 3, n_steps=2).cell_at == {}
    assert KickSchedule(3e-2, 1e-2, 3, n_steps=0).cell_at == {}


def test_kick_schedule_jumps_are_the_cells_with_mass():
    # a zero clock increment kicks by zero and seeds no Gramian column; a
    # cell the sweep does not complete carries no jump either
    increments = np.array([0.5, 0.0, 2e-300, 0.25])
    assert KickSchedule(3e-2, 1e-2, 4).jumps(increments) == {2: 0, 8: 2, 11: 3}
    assert KickSchedule(3e-2, 1e-2, 4, n_steps=10).jumps(increments) == {2: 0, 8: 2}
    assert KickSchedule(1e-2, 1e-2, 4).jumps(np.zeros(4)) == {}


DIVIDE = "step size must divide the clock grid step"


@pytest.mark.parametrize("entry", ["simulate", "BatchRunner.run", "malliavin_forward",
                                   "control_experiment", "RunConfig"])
def test_divisibility_rule_is_shared(entry):
    # dt = 3e-3 does not divide grid_step = 1e-2 at any entry point
    n, dt, h = 16, 3e-3, 1e-2
    p = PhysicsParams()
    model = NoiseModel()
    spec = SubordinatorSpec(grid_step=h)
    stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
    path = sample_subordinator(spec, 0.1, rng_stream(1, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(1, ROLE_BROWNIAN))
    u0 = sp.state_zeros(n)
    zeros = np.zeros((1, n, n), complex)
    calls = {
        "simulate": lambda: simulate(u0, 30 * dt, stepper, model=model, path=path, dw=dw),
        "BatchRunner.run": lambda: BatchRunner(stepper, model).run(zeros, zeros, dw[None], h),
        "malliavin_forward": lambda: var.malliavin_forward(u0, 30, stepper, model, path, dw,
                                                           var.HNBasis(n, 2, p)),
        "control_experiment": lambda: var.control_experiment(1, 1, 1, stepper, spec, model,
                                                             0.0),
        "RunConfig": lambda: RunConfig(dt=dt, grid_step=h),
    }
    with pytest.raises(ValueError, match=DIVIDE):
        calls[entry]()


@pytest.mark.parametrize("entry", ["simulate", "jacobian_forward", "second_variation",
                                   "duality_gap", "malliavin_forward", "malliavin_backward",
                                   "control_window"])
def test_sweeps_reject_a_short_clock_path(entry, rng):
    # 5 clock cells cover 10 steps of dt = 5e-3; every sweep asks for 12
    n, dt = 16, 5e-3
    p = PhysicsParams()
    model = NoiseModel()
    stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
    path = sample_subordinator(SubordinatorSpec(grid_step=1e-2), 0.05, rng_stream(2, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(2, ROLE_BROWNIAN))
    u0 = random_state(n, rng)
    xi = random_state(n, rng)
    noise = dict(model=model, path=path, dw=dw)
    calls = {
        "simulate": lambda: simulate(u0, 12 * dt, stepper, **noise),
        "jacobian_forward": lambda: var.jacobian_forward(u0, 12 * dt, stepper, [xi], **noise),
        "second_variation": lambda: var.second_variation(u0, 12 * dt, stepper, xi, xi, **noise),
        "duality_gap": lambda: var.duality_gap(u0, 12 * dt, stepper, xi, xi, **noise),
        "malliavin_forward": lambda: var.malliavin_forward(u0, 12, stepper, model, path, dw,
                                                           var.HNBasis(n, 2, p)),
        "malliavin_backward": lambda: var.malliavin_backward([u0] * 13, stepper, model, path,
                                                             var.HNBasis(n, 2, p)),
        "control_window": lambda: var.control_window(xi, u0, 12, stepper, model, path, dw),
    }
    with pytest.raises(ValueError, match="clock path too short"):
        calls[entry]()


@pytest.mark.parametrize("piece", ["model", "dw", "short dw", "wide dw"])
@pytest.mark.parametrize("entry", ["simulate", "jacobian_forward", "second_variation",
                                   "duality_gap", "tail_coupling_series", "malliavin_forward"])
def test_noise_triple_is_checked_once(entry, piece, rng):
    # a clock path of 5 cells needs its model and dw of shape (5, model.dim)
    n, dt = 16, 5e-3
    p = PhysicsParams()
    model = NoiseModel()
    stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
    path = sample_subordinator(SubordinatorSpec(grid_step=1e-2), 0.05, rng_stream(2, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(2, ROLE_BROWNIAN))
    noise, match = {
        "model": (dict(model=None, path=path, dw=dw), "without a noise model"),
        "dw": (dict(model=model, path=path, dw=None), "without Brownian increments dw"),
        "short dw": (dict(model=model, path=path, dw=dw[:-1]), r"dw have shape \(4, 4\)"),
        "wide dw": (dict(model=model, path=path, dw=np.zeros((5, model.dim + 1))),
                    r"dw have shape \(5, 5\)"),
    }[piece]
    u0 = random_state(n, rng)
    xi = random_state(n, rng)
    calls = {
        "simulate": lambda: simulate(u0, 10 * dt, stepper, **noise),
        "jacobian_forward": lambda: var.jacobian_forward(u0, 10 * dt, stepper, [xi], **noise),
        "second_variation": lambda: var.second_variation(u0, 10 * dt, stepper, xi, xi, **noise),
        "duality_gap": lambda: var.duality_gap(u0, 10 * dt, stepper, xi, xi, **noise),
        "tail_coupling_series": lambda: var.tail_coupling_series(u0, 10 * dt, stepper, [3], rng,
                                                                 **noise),
        "malliavin_forward": lambda: var.malliavin_forward(u0, 10, stepper,
                                                           basis=var.HNBasis(n, 2, p), **noise),
    }
    with pytest.raises(ValueError, match=match):
        calls[entry]()


@pytest.mark.parametrize("entry", ["simulate", "BatchRunner.run", "jacobian_forward"])
def test_entry_rejects_a_vorticity_mean(entry, rng):
    n, dt = 16, 5e-3
    model = NoiseModel()
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, dt)
    u0 = random_state(n, rng)
    u0.w_hat[0, 0] = 3.0 * n * n
    calls = {
        "simulate": lambda: simulate(u0, 4 * dt, stepper),
        "BatchRunner.run": lambda: BatchRunner(stepper, model).run(
            u0.w_hat[None], u0.theta_hat[None], np.zeros((1, 2, model.dim)), grid_step=2 * dt),
        "jacobian_forward": lambda: var.jacobian_forward(u0, 4 * dt, stepper, [u0]),
    }
    with pytest.raises(ValueError, match="vorticity must have zero mean"):
        calls[entry]()


def test_step_needs_no_hermitize(monkeypatch, rng):
    # the transforms return exactly conjugate-symmetric coefficients, so
    # neither the kernel nor nonlinear_B projects its output
    def refuse(f_hat):
        raise AssertionError("hermitize called")

    n, dt = 16, 5e-3
    model = NoiseModel()
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, dt)
    u, v = random_state(n, rng), random_state(n, rng)
    w, t = sp.half(np.stack([u.w_hat, v.w_hat])), sp.half(np.stack([u.theta_hat, v.theta_hat]))
    kicks = KickSchedule(dt, dt, 3, dw=rng.standard_normal((2, 3, model.dim)),
                         slots=model.slots(n))
    monkeypatch.setattr(sp, "hermitize", refuse)
    w, t = sweep(stepper, w, t, 3, kicks)
    for h in (w, t):        # and the stored state stays exactly symmetric
        x = sp.full(h)
        assert np.array_equal(sp.half(x), h)
        assert np.array_equal(x, np.conj(np.roll(x[..., ::-1, ::-1], (1, 1), axis=(-2, -1))))
    sp.nonlinear_B(u, v)


@pytest.mark.parametrize("n", [16, 9])
def test_kernels_never_write_a_mirror(monkeypatch, n, rng):
    # the step, the tangent, the adjoint and the adjoint Gramian run on the
    # half storage: none of them reaches `sp.full`, the only writer of
    # k2 < 0 columns
    def refuse(h):
        raise AssertionError("full called")

    dt = 5e-3
    model = NoiseModel()
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, dt)
    lin = var.Linearizer(stepper)
    u, v = random_state(n, rng), random_state(n, rng)
    w, t = sp.half(np.stack([u.w_hat, v.w_hat])), sp.half(np.stack([u.theta_hat, v.theta_hat]))
    kicks = KickSchedule(dt, dt, 3, dw=rng.standard_normal((2, 3, model.dim)),
                         slots=model.slots(n))
    prep = lin.prepare(u.halves())
    xw, xt = _states(n, sp.block_rows(n) + 1, rng)     # two blocks
    # a stored 3-step path for the adjoint Gramian, recorded before the patch
    path = sample_subordinator(SubordinatorSpec(grid_step=dt), 3 * dt, rng_stream(3, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(3, ROLE_BROWNIAN))
    traj = simulate(u, 3 * dt, stepper, model=model, path=path, dw=dw, store_full=True)
    basis = var.HNBasis(n, 2, stepper.params)
    monkeypatch.setattr(sp, "full", refuse)
    w1, t1 = sweep(stepper, w, t, 3, kicks)
    assert w1.shape == t1.shape == (2, n, n // 2 + 1)
    fw, ft = lin.tangent(prep, xw, xt)
    bw, bt = lin.adjoint(prep, xw, xt)
    assert fw.shape == bw.shape == xw.shape
    gram = var.malliavin_backward(traj.states, stepper, model, path, basis)
    assert gram.n_jumps > 0 and gram.matrix.shape == (basis.dim, basis.dim)


def _states(n, rows, rng):
    states = [random_state(n, rng) for _ in range(rows)]
    return (sp.half(np.stack([u.w_hat for u in states])),
            sp.half(np.stack([u.theta_hat for u in states])))


def test_blocked_advance_equals_one_block(rng):
    # the batch rows never mix, so a step in blocks of `block_rows(n)` paths
    # is bit-equal to the same step of the whole batch as one block
    n = 32
    r = sp.block_rows(n)
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 5e-3)
    w, t = _states(n, 2 * r + 1, rng)
    for rows in (r - 1, r, r + 1, 2 * r + 1):
        got = stepper.advance(w[:rows], t[:rows])
        want = np.empty((2, rows, n, n // 2 + 1), np.complex128)
        stepper._advance_block(w[:rows], t[:rows], *want)
        for x, y in zip(got, want):
            assert x.shape == (rows, n, n // 2 + 1)
            assert x.tobytes() == y.tobytes()


def test_blocked_tangent_equals_one_block(rng):
    n = 16
    lin = var.Linearizer(Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 1e-2))
    prep = lin.prepare(random_state(n, rng).halves())
    xw, xt = _states(n, 440, rng)
    assert 440 > sp.block_rows(n)
    got = lin.tangent(prep, xw, xt)
    want = np.empty((2,) + xw.shape, np.complex128)
    lin._tangent_block(prep, xw, xt, *want)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


@pytest.fixture(params=[1, 3], ids=["serial", "three_groups"])
def cpus(request, monkeypatch):
    # the driver's CPU count: 1 runs the blocks in turn, 3 deals them into
    # three groups whatever the machine has
    monkeypatch.setattr(sp, "_CPUS", request.param)
    return request.param


def test_blocked_adjoint_equals_one_block(cpus, rng):
    n = 16
    lin = var.Linearizer(Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 1e-2))
    prep = lin.prepare(random_state(n, rng).halves())
    rw, rt = _states(n, 440, rng)
    assert 440 > sp.block_rows(n)
    got = lin.adjoint(prep, rw, rt)
    want = np.empty((2,) + rw.shape, np.complex128)
    lin._adjoint_block(prep, rw, rt, *want)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


def _copy_block(w, t, out_w, out_t):
    out_w[...], out_t[...] = w, t


def _zeros(n, blocks):
    shape = (blocks * sp.block_rows(n), n, n // 2 + 1)
    return np.zeros(shape, np.complex128), np.zeros(shape, np.complex128)


def test_blockwise_raises_the_error_of_a_later_block(cpus):
    # every other block still runs to its end before the error surfaces
    n = 16
    w, t = _zeros(n, 4)
    done = []

    def step(w, t, out_w, out_t):
        block = int(w[0, 0, 0].real)
        if block == 3:
            raise KeyError(block)
        time.sleep(0.05)
        done.append(block)

    w[:, 0, 0] = np.arange(len(w)) // sp.block_rows(n)
    with pytest.raises(KeyError, match="3"):
        sp.blockwise(step, w, t)
    assert sorted(done) == [0, 1, 2]


def test_blockwise_keeps_the_callers_errstate(cpus):
    # a NaN cast to an integer is an invalid operation; in a non-first block
    # it raises only if that block runs under the caller's np.errstate
    n = 16
    w, t = _zeros(n, 2)
    w[sp.block_rows(n) + 1, 3, 2] = np.nan

    def step(w, t, out_w, out_t):
        w.real.astype(np.int64)
        _copy_block(w, t, out_w, out_t)

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        sp.blockwise(step, w, t)


def _in_thread(fun, timeout=60.0):
    # fun's result, or a failure if it does not return within the timeout
    out = []
    worker = threading.Thread(target=lambda: out.append(fun()), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive() and out
    return out[0]


def test_nested_blockwise_returns(cpus):
    # a block that itself calls blockwise, from the calling thread or a pool
    # thread, neither deadlocks nor changes the result
    n = 16
    w, t = (np.arange(x.size, dtype=np.complex128).reshape(x.shape) for x in _zeros(n, 4))

    def step(w, t, out_w, out_t):
        # the inner call gets the block twice over, so two blocks of rows
        inner_w, _ = sp.blockwise(_copy_block, np.concatenate([w, w]), np.concatenate([t, t]))
        out_w[...], out_t[...] = inner_w[:len(w)], t

    got_w, got_t = _in_thread(lambda: sp.blockwise(step, w, t))
    assert got_w.tobytes() == w.tobytes() and got_t.tobytes() == t.tobytes()


def test_concurrent_callers_get_the_one_block_result(rng):
    # four threads step their own batches through the one pool at a short
    # switch interval; each result equals its batch stepped as one block
    n = 32
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 5e-3)
    batches = [_states(n, 2 * sp.block_rows(n) + 1, rng) for _ in range(4)]
    want = []
    for w, t in batches:
        want.append(np.empty((2,) + w.shape, np.complex128))
        stepper._advance_block(w, t, *want[-1])
    results = [None] * len(batches)

    def caller(i):
        for _ in range(5):
            results[i] = stepper.advance(*batches[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                   for i in range(len(batches))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60.0)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for got, ref in zip(results, want):
        assert got is not None
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))


def test_importing_the_package_starts_no_thread():
    # the block pool is made at import, but an executor starts a thread only
    # on its first submit, so a run that never splits a batch stays on one
    code = ("import threading, boussinesq_lab.spectral as sp; "
            "print(threading.active_count(), sp._pool._max_workers == max(1, sp._CPUS - 1))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_the_kernels_stop_faulting_their_memory_in():
    # freed block temporaries stay in the process, so once warm a tangent
    # step reuses its memory instead of faulting in fresh zeroed pages; the
    # second warm-up call lets the pool thread's heap reach its high-water
    # mark. Two CPUs give one pool thread, which runs the same block on every
    # call, so no thread meets a block size for the first time while counted
    code = """
import resource
import numpy as np
from boussinesq_lab import spectral, variation as var
from boussinesq_lab.spectral import PhysicsParams, random_state
from boussinesq_lab.stepping import Stepper, StepScheme
spectral._CPUS = 2
n, rng = 16, np.random.default_rng(1)
lin = var.Linearizer(Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 1e-2))
prep = lin.prepare(random_state(n, rng).halves())
xw, xt = rng.standard_normal((2, 200, n, n // 2 + 1)) + 0j
for _ in range(2):
    lin.tangent(prep, xw, xt)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    lin.tangent(prep, xw, xt)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


@pytest.mark.parametrize("n", [16, 48])
def test_kick_scatter_equals_the_dense_sum(n, rng):
    # each real component of a forced slot is one product dw_j alpha_j trig_j,
    # so the scatter reproduces the dense sum over directions bit for bit
    model = NoiseModel(modes=((1, 0), (0, 1), (2, -1)), alphas=(0.5, 1.5, 1.0, 2.0, 0.25, 3.0))
    basis = np.stack([a * sp.trig_hat(n, k[0], k[1], m)
                      for (k, m), a in zip(model.directions(), model.alphas)])
    dw = rng.standard_normal((3, 5, model.dim))
    for rows in (dw, dw[1]):            # a batch and one path
        kicks = KickSchedule(1e-2, 1e-2, 5, dw=rows, slots=model.slots(n))
        for cell in range(5):
            got = kicks.increment(cell)
            assert got.shape == rows.shape[:-2] + (n, n // 2 + 1)
            want = sp.half(np.tensordot(rows[..., cell, :], basis, axes=1))
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="share"):
        sp.trig_slots(n, (((1, 0), 0, 1.0), ((1, 0), 0, 2.0)))


def test_sweep_calls_no_blas(monkeypatch, rng):
    # the kick is a scatter: no sweep (a kicked simulate, a B = 2 batch with
    # the default observables, the jump Gramian's forward sweep) reaches a
    # BLAS product through numpy
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS product called")

    n, dt = 16, 5e-3
    model = NoiseModel()
    stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, dt)
    spec = SubordinatorSpec(grid_step=2 * dt)
    path = sample_subordinator(spec, 0.1, rng_stream(3, ROLE_CLOCK))
    dw = subordinated_increments(path, model.dim, rng_stream(3, ROLE_BROWNIAN))
    u0, u1 = random_state(n, rng), random_state(n, rng)
    for name in ("tensordot", "dot", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    traj = simulate(u0, 0.1, stepper, model=model, path=path, dw=dw)
    assert traj.jump_identity.any()
    out = BatchRunner(stepper, model).run(
        np.stack([u0.w_hat, u1.w_hat]), np.stack([u0.theta_hat, u1.theta_hat]),
        np.stack([dw, dw]), spec.grid_step, 2, default_observables())
    assert np.array_equal(out.w_hat[0], traj.final.w_hat)
    var.malliavin_forward(u0, 20, stepper, model, path, dw, var.HNBasis(n, 2, PhysicsParams()))


def test_weak_convergence_order(rng):
    n = 32
    p = PhysicsParams()
    u0 = random_state(n, rng, amplitude=0.5)
    model = NoiseModel()
    spec = SubordinatorSpec(grid_step=2e-2)
    horizon = 0.5

    def terminal_energy(dt):
        stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
        traj, _, _ = run_with_noise(u0, horizon, stepper, model, spec, seed=31)
        return traj.norm0[-1] ** 2

    ref = terminal_energy(2e-2 / 16)
    errs = [abs(terminal_energy(2e-2 / (2**j)) - ref) for j in range(3)]
    slope = np.log2(errs[0] / errs[2]) / 2.0
    assert slope >= 0.9


def test_blow_up_guard():
    n = 16
    p = PhysicsParams(nu1=1e-6, nu2=1e-6, g=1.0)
    rng = np.random.default_rng(4)
    u0 = random_state(n, rng, amplitude=2e4, decay=0.5)
    stepper = Stepper(n, p, StepScheme.ETD_EULER, 0.05)
    traj = simulate(u0, 5.0, stepper)
    assert traj.blew_up
    assert traj.times[-1] < 5.0
    assert np.all(np.isfinite(traj.norm0[:-1]))
    # the run stops off the snapshot stride: the last snapshot is where it stopped
    assert traj.snapshot_times[-1] == traj.times[-1]
    full = simulate(u0, 5.0, stepper, store_full=True)
    assert np.array_equal(traj.final.w_hat, full.final.w_hat)
    assert np.array_equal(traj.final.theta_hat, full.final.theta_hat)


@pytest.mark.parametrize("case", ["sigma_6_8", "inviscid_burst"])
def test_blow_up_verdict_is_shared(case):
    # simulate and a B=1 batch of the same state reach the same verdict
    model = NoiseModel()
    if case == "sigma_6_8":
        # weighted norm 2e5, smoothness-1 norm 2e6: inside the energy ceiling
        n, p, dt, n_steps, want = 32, PhysicsParams(), 1e-4, 10, False
        u0 = sigma_state(n, (6, 8), 0)
        u0 = u0 * (2e5 / sp.weighted_norm(u0, p))
    else:
        # the state of test_batch_blow_up_names_path_and_energy
        n, dt, n_steps, want = 16, 0.05, 20, True
        p = PhysicsParams(nu1=1e-6, nu2=1e-6, g=1.0)
        u0 = random_state(n, np.random.default_rng(4), amplitude=2e4, decay=0.5)
    stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
    traj = simulate(u0, n_steps * dt, stepper)
    try:
        BatchRunner(stepper, model).run(u0.w_hat[None], u0.theta_hat[None],
                                        np.zeros((1, n_steps, model.dim)), grid_step=dt)
        batch_blew_up = False
    except RuntimeError as err:
        assert "blow-up" in str(err)
        batch_blew_up = True
    assert traj.blew_up == batch_blew_up == want


# ---------------------------------------------------------------------------
# energy audit


def linear_only_trajectory(dt, horizon=1.0):
    n = 32
    p = PhysicsParams(nu1=1.0, nu2=1.0, g=1.0)
    u0 = sigma_state(n, (0, 1), 0) * (1.0 / np.sqrt(TWO_PI_SQ))
    stepper = Stepper(n, p, StepScheme.ETD_EULER, dt)
    return simulate(u0, horizon, stepper), p, stepper


def test_energy_audit_linear_run_residual():
    traj, p, stepper = linear_only_trajectory(1e-3)
    audit = energy_audit(traj, stepper)
    assert audit.n_jumps == 0
    assert audit.max_jump_residual == 0.0
    assert audit.dissipation_residual_rate <= 1e-6


def test_energy_audit_richardson_order():
    coarse, p, st_c = linear_only_trajectory(2e-3)
    fine, _, st_f = linear_only_trajectory(1e-3)
    r_c = energy_audit(coarse, st_c).dissipation_residual_rate
    r_f = energy_audit(fine, st_f).dissipation_residual_rate
    # trapezoid quadrature of the dissipation integral: second order per unit time
    assert r_f <= 0.35 * r_c


def test_energy_audit_jump_identity(rng):
    n = 16
    p = PhysicsParams()
    u0 = random_state(n, rng)
    stepper = Stepper(n, p, StepScheme.ETD_EULER, 1e-2)
    traj, _, _ = run_with_noise(u0, 0.5, stepper, NoiseModel(), SubordinatorSpec(grid_step=1e-2), seed=9)
    audit = energy_audit(traj, stepper)
    assert audit.n_jumps > 10
    assert audit.max_jump_residual <= 1e-12


def test_snapshot_stride(rng):
    u0 = random_state(16, rng)
    traj = simulate(u0, 0.1, Stepper(16, PhysicsParams(), StepScheme.ETD_EULER, 1e-3))
    assert len(traj.snapshot_times) == 11
    assert traj.snapshot_times[1] == pytest.approx(0.01)
    full = simulate(u0, 0.05, Stepper(16, PhysicsParams(), StepScheme.ETD_EULER, 1e-2),
                    store_full=True)
    assert len(full.states) == 6
