"""End-to-end acceptance checks for the laboratory.

Each numbered check records one PASS/FAIL verdict line, built from the
command line's `Check` records (value, bound and margin of each condition)
and echoed in a terminal-summary section at the end of the run, and asserts
its stated tolerances; wall-clock budgets are asserted where a check carries one.
Every check runs from frozen seeds, so reruns are bit-identical.
"""

import hashlib
import time

import numpy as np

from boussinesq_lab import spectral as sp
from boussinesq_lab.cli import Check
from boussinesq_lab.cli import main as cli_main
from boussinesq_lab.config import RunConfig
from boussinesq_lab.ensembles import (default_observables, eproperty_probe,
                                      exp_moment_eta, invariant_statistics,
                                      moment_experiment,
                                      stopping_moment_experiment)
from boussinesq_lab.hormander import (bracket_z_sigma, bracket_z_sigma_field,
                                      combo_state, induction_set,
                                      numerical_lie_bracket, psi_recovery,
                                      span_generation, verify_span, z_field)
from boussinesq_lab.noise import (ROLE_BROWNIAN, ROLE_CLOCK, ROLE_INIT,
                                  ROLE_SCRATCH, NoiseModel, SubordinatorSpec,
                                  renewal_cells, rng_stream, sample_subordinator,
                                  subordinated_increments)
from boussinesq_lab.stepping import Stepper, StepScheme, simulate
from boussinesq_lab.variation import (HNBasis, duality_gap, fit_tail_envelope,
                                      jacobian_fd_check, malliavin_backward,
                                      malliavin_forward, min_eigen_probe,
                                      tail_coupling_series)

PARAMS = sp.PhysicsParams()
MODEL = NoiseModel()

# one line per numbered check; the conftest terminal-summary hook prints
# these after the run so the verdicts survive output capture
VERDICTS: list[str] = []


def _verdict(num: str, label: str, checks: list[Check], detail: str) -> bool:
    """PASS when every check passes; the line gives the detail, then each
    check's value, bound and margin."""
    ok = all(c.passed for c in checks)
    line = (f"acceptance {num} {label}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {'; '.join(map(str, checks))})")
    VERDICTS.append(line)
    print(line, flush=True)
    return ok


def _rel_gap(a: sp.SpectralState, b: sp.SpectralState) -> float:
    ref = max(sp.weighted_norm(a, PARAMS), sp.weighted_norm(b, PARAMS), 1e-300)
    return sp.weighted_norm(a - b, PARAMS) / ref


def test_c01_operator_identities():
    # skew pairing and energy neutrality of the advection form, per slot
    t0 = time.perf_counter()
    rng = rng_stream(101, ROLE_SCRATCH)
    worst = 0.0
    for _ in range(100):
        u = sp.random_state(64, rng, amplitude=1.5)
        v = sp.random_state(64, rng, amplitude=1.5)
        w = sp.random_state(64, rng, amplitude=1.5)
        buv = sp.nonlinear_B(u, v)
        buw = sp.nonlinear_B(u, w)
        for slot in ("w_hat", "theta_hat"):
            a = sp.l2_dot(getattr(buv, slot), getattr(w, slot))
            b = sp.l2_dot(getattr(buw, slot), getattr(v, slot))
            worst = max(worst, abs(a + b) / max(abs(a), abs(b), 1e-300))
            neutral = sp.l2_dot(getattr(buv, slot), getattr(v, slot))
            scale = np.sqrt(sp.l2_dot(getattr(buv, slot), getattr(buv, slot))
                            * sp.l2_dot(getattr(v, slot), getattr(v, slot)))
            worst = max(worst, abs(neutral) / max(scale, 1e-300))
    dt = time.perf_counter() - t0
    assert _verdict("01", "operator identities",
                    [Check("worst_rel", worst, 1e-9, "<="), Check("wall_s", dt, 10.0, "<")],
                    "100 triples at 64^2")
    assert worst <= 1e-9
    assert dt < 10.0


def test_c02_tangent_correctness():
    t0 = time.perf_counter()
    stepper = Stepper(32, PARAMS, StepScheme.ETD_EULER, 1e-3)
    u0 = sp.random_state(32, rng_stream(202, ROLE_INIT), amplitude=1.0)
    dirs = [sp.random_state(32, rng_stream(202, ROLE_SCRATCH, i), amplitude=1.0)
            for i in range(10)]
    fd_gap = jacobian_fd_check(u0, 0.5, stepper, dirs, eps=1e-6)

    spec = SubordinatorSpec(grid_step=1e-2)
    path = sample_subordinator(spec, 0.5, rng_stream(202, ROLE_CLOCK), seed=202)
    dw = subordinated_increments(path, MODEL.dim, rng_stream(202, ROLE_BROWNIAN))
    dual = 0.0
    for i in range(5):
        xi = sp.random_state(32, rng_stream(202, 11, i), amplitude=1.0)
        phi = sp.random_state(32, rng_stream(202, 12, i), amplitude=1.0)
        dual = max(dual, duality_gap(u0, 0.5, stepper, xi, phi,
                                     model=MODEL, path=path, dw=dw))
    dt = time.perf_counter() - t0
    assert _verdict("02", "tangent correctness",
                    [Check("fd_gap", fd_gap, 1e-4, "<="), Check("duality_gap", dual, 1e-8, "<="),
                     Check("wall_s", dt, 60.0, "<")],
                    "10 directions, 5 duality pairs at 32^2")
    assert fd_gap <= 1e-4
    assert dual <= 1e-8
    assert dt < 60.0


def test_c03_malliavin_assembly():
    t0 = time.perf_counter()
    stepper = Stepper(32, PARAMS, StepScheme.ETD_EULER, 5e-3)
    spec = SubordinatorSpec(grid_step=1e-2)
    basis = HNBasis(32, 2, PARAMS)
    worst_gap, worst_psd = 0.0, 0.0
    for s in range(10):
        path = sample_subordinator(spec, 0.2, rng_stream(303, ROLE_CLOCK, s), seed=s)
        dw = subordinated_increments(path, MODEL.dim, rng_stream(303, ROLE_BROWNIAN, s))
        u0 = sp.random_state(32, rng_stream(303, ROLE_INIT, s), amplitude=1.0)
        fwd = malliavin_forward(u0, 40, stepper, MODEL, path, dw, basis)
        traj = simulate(u0, 0.2, stepper, model=MODEL, path=path, dw=dw, store_full=True)
        bwd = malliavin_backward(traj.states, stepper, MODEL, path, basis)
        scale = np.linalg.norm(fwd.matrix)
        worst_gap = max(worst_gap, float(np.linalg.norm(fwd.matrix - bwd.matrix) / scale))
        eigs = np.linalg.eigvalsh(0.5 * (fwd.matrix + fwd.matrix.T))
        worst_psd = max(worst_psd, float(-eigs[0] / max(abs(eigs).max(), 1e-300)))
    dt = time.perf_counter() - t0
    assert _verdict("03", "malliavin assembly",
                    [Check("fwd_bwd_gap", worst_gap, 1e-8, "<="),
                     Check("psd_defect", worst_psd, 1e-10, "<="), Check("wall_s", dt, 120.0, "<")],
                    "10 windows")
    assert worst_gap <= 1e-8
    assert worst_psd <= 1e-10
    assert dt < 120.0


def test_c04_bracket_certificate():
    t0 = time.perf_counter()
    result = span_generation(((1, 0), (0, 1)), 8)
    assert result.success, f"missing modes: {result.missing}"
    log = result.log_lines()
    assert log and log[-1].endswith("PASS")

    replay = verify_span(result, PARAMS)
    replay_err = replay["max_rel_err"]
    mismatches = len(replay["symbolic_mismatches"])

    first = {tuple(k) for k in induction_set(1)}
    assert first == {(1, 1), (1, -1)}

    state = sp.random_state(24, rng_stream(404, ROLE_SCRATCH), amplitude=1.0)
    pars = PARAMS
    worst_num = 0.0
    for j, m, k, mp in [((0, 1), 0, (1, 0), 0), ((1, 1), 1, (1, 0), 1)]:
        zf = lambda u, j=j, m=m: z_field(j, m, u, pars)
        sf = lambda u, k=k, mp=mp: sp.sigma_state(24, k, mp)
        num = numerical_lie_bracket(zf, sf, state, pars)
        op = bracket_z_sigma_field(j, m, k, mp, 24, pars)
        worst_num = max(worst_num, _rel_gap(num, op))
        sym = combo_state(bracket_z_sigma(j, m, k, mp), 24, pars.g)
        worst_num = max(worst_num, _rel_gap(sym, op))
    for j, m in [((1, 1), 0), ((2, 1), 1), ((0, 1), 0), ((0, 2), 1)]:
        rec, _ = psi_recovery(j, m, state, pars)
        worst_num = max(worst_num, _rel_gap(rec, sp.psi_state(24, j, m)))
    dt = time.perf_counter() - t0
    assert _verdict("04", "bracket certificate",
                    [Check("replay_symbolic_mismatches", mismatches, 0, "=="),
                     Check("replay_err", replay_err, 1e-10, "<="),
                     Check("identities_vs_oracle", worst_num, 1e-4, "<="),
                     Check("wall_s", dt, 60.0, "<")],
                    f"level-8 span {len(result.reached)} modes, replay "
                    f"{replay['checked']} checks on the {replay['grid']} grid, "
                    f"first level {{(1,1),(1,-1)}}")
    assert mismatches == 0
    assert replay_err <= 1e-10
    assert worst_num <= 1e-4
    assert dt < 60.0


def test_c05_moment_bound():
    # one dissipation-plus-offset envelope, constant fitted on the excited
    # start and shared verbatim with the rest start
    t0 = time.perf_counter()
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(32, PARAMS, StepScheme.ETD_EULER, 5e-3)
    nu = PARAMS.nu
    u0a = sp.random_state(32, rng_stream(900, ROLE_INIT), amplitude=2.0)
    na = sp.weighted_norm(u0a, PARAMS) ** 2
    curve_a = moment_experiment(901, 200, 2.0, stepper, MODEL, spec, u0a, record_every=4)
    curve_b = moment_experiment(902, 200, 2.0, stepper, MODEL, spec,
                                sp.state_zeros(32), record_every=4)
    env_a = np.exp(-nu * curve_a.times) * na
    mean_a = curve_a.mean_curve()
    se_a = curve_a.energy_sq.std(axis=0, ddof=1) / np.sqrt(curve_a.energy_sq.shape[0])
    c1_hat = float(np.max(mean_a - env_a))
    mean_b = curve_b.mean_curve()
    se_b = curve_b.energy_sq.std(axis=0, ddof=1) / np.sqrt(curve_b.energy_sq.shape[0])
    sig_a = float(np.max((mean_a - env_a - c1_hat) / np.maximum(se_a, 1e-300)))
    sig_b = float(np.max((mean_b - c1_hat) / np.maximum(se_b, 1e-300)))
    dt = time.perf_counter() - t0
    assert _verdict("05", "moment bound",
                    [Check("excess_sigmas_excited", sig_a, 3.0, "<="),
                     Check("excess_sigmas_rest", sig_b, 3.0, "<="),
                     Check("wall_s", dt, 600.0, "<")],
                    f"C1 {c1_hat:.2f} fitted on |U0|^2={na:.2f}, worst excess over 200 paths")
    assert sig_a <= 3.0
    assert sig_b <= 3.0
    assert dt < 600.0


def test_c06_stopping_moment():
    spec = SubordinatorSpec()
    nu, b0 = PARAMS.nu, MODEL.b0
    kappa = 0.1 * 0.05 * nu / b0
    rep = stopping_moment_experiment(spec, nu, kappa, b0, seed=60, n_paths=1000)
    det = exp_moment_eta(spec, nu, 0.0, b0, 64, seed=61)
    drift = abs(det["estimate"] - np.exp(10.0)) / np.exp(10.0)
    assert _verdict("06", "stopping moment",
                    [Check("doubling_gap", rep.doubling_gap, 0.20, "<="),
                     Check("censored", rep.censored, 0, "=="),
                     Check("tail_margin", rep.tail_margin, 2.0, ">="),
                     Check("kappa0_drift", drift, 0.01, "<=")],
                    f"E exp(10 nu eta) {rep.estimate:.0f} vs doubled "
                    f"{rep.doubled_estimate:.0f}, tail margin {rep.tail_margin:.1f}")
    assert rep.doubling_gap <= 0.20
    assert rep.censored == 0
    assert drift <= 0.01


def test_c07_tail_envelope():
    # fit the floor constant on the coarsest level, test the finer two;
    # the comparison carries a 1e-12 absolute allowance because the tail
    # energy is a difference of two O(1) sums and its floor is roundoff
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(64, PARAMS, StepScheme.ETD_EULER, 2.5e-3)
    nu = PARAMS.nu
    path = sample_subordinator(spec, 1.0, rng_stream(77, ROLE_CLOCK), seed=77)
    dw = subordinated_increments(path, MODEL.dim, rng_stream(77, ROLE_BROWNIAN))
    u0 = sp.random_state(64, rng_stream(77, ROLE_INIT), amplitude=2.0)
    series = tail_coupling_series(u0, 1.0, stepper, [4, 8, 16],
                                  rng_stream(77, 41), model=MODEL, path=path, dw=dw)
    c_hat = fit_tail_envelope(series[0], nu)
    atol = 1e-12
    worst = -np.inf
    for srs in series[1:]:
        env = np.exp(-nu * srs.level**2 * srs.times) + c_hat / np.sqrt(srs.level)
        worst = max(worst, float(np.max(srs.tail_sq - env)))
    assert _verdict("07", "tail dissipation envelope", [Check("worst_excess", worst, atol, "<=")],
                    f"C fitted on N=4 is {c_hat:.2e}, excess on N=8,16 grids")
    assert worst <= atol


def test_c08_min_eigenvalue_probe():
    # 100 windows [0, eta] from the recurrence clock; constrained smallest
    # eigenvalue of the smoothing matrix, band mass >= 0.5 on the level-2
    # block inside the level-4 ambient
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(16, PARAMS, StepScheme.ETD_EULER, 1e-2)
    basis = HNBasis(16, 4, PARAMS)
    pmask = basis.sublevel_mask(2)
    nu, b0 = PARAMS.nu, MODEL.b0
    kappa = 0.1 * 0.05 * nu / b0
    uppers, degenerate = [], 0
    for s in range(100):
        path = sample_subordinator(spec, 4.0, rng_stream(s, ROLE_CLOCK), seed=s)
        # the window [0, eta_1] in cells, one step each since dt is the grid step
        n_steps = renewal_cells(path, nu, kappa, b0, 1)[1]
        dw = subordinated_increments(path, MODEL.dim, rng_stream(s, ROLE_BROWNIAN))
        u0 = sp.random_state(16, rng_stream(s, ROLE_INIT), amplitude=1.0)
        res = malliavin_forward(u0, n_steps, stepper, MODEL, path, dw, basis)
        if res.degenerate:
            degenerate += 1
            continue
        uppers.append(min_eigen_probe(res.matrix, pmask, 0.5).upper)
    lam = np.asarray(uppers)
    fracs = [float(np.mean(lam < eps)) for eps in (1e-2, 1e-4, 1e-6)]
    monotone = fracs[0] >= fracs[1] >= fracs[2]
    toward_zero = fracs[2] < fracs[0] and fracs[2] <= 0.1
    assert _verdict("08", "min-eigenvalue probe",
                    [Check("frac_1e-4_within_1e-2", fracs[1], fracs[0], "<="),
                     Check("frac_1e-6_within_1e-4", fracs[2], fracs[1], "<="),
                     Check("frac_1e-6_under_1e-2", fracs[2], fracs[0], "<"),
                     Check("frac_1e-6", fracs[2], 0.1, "<=")],
                    f"fractions below (1e-2, 1e-4, 1e-6) = "
                    f"({fracs[0]:.2f}, {fracs[1]:.2f}, {fracs[2]:.2f}) over {len(lam)} "
                    f"windows, {degenerate} degenerate; spectrum min {lam.min():.1e} "
                    f"median {np.median(lam):.1e} max {lam.max():.1e}")
    assert monotone
    # the distribution must thin out toward zero across the ladder
    assert toward_zero, (
        "constrained minima concentrate at "
        f"[{lam.min():.1e}, {lam.max():.1e}], below the threshold ladder; "
        f"fraction under 1e-6 is {fracs[2]:.2f}")


def test_c09_ergodicity_signature():
    t0 = time.perf_counter()
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(48, PARAMS, StepScheme.ETD_EULER, 1e-2)
    big = sp.random_state(48, rng_stream(905, ROLE_INIT), amplitude=3.0)
    rep = invariant_statistics(906, [sp.state_zeros(48), big], 500.0, stepper,
                               MODEL, spec, observables=default_observables(),
                               n_batches=20)
    dt = time.perf_counter() - t0
    assert _verdict("09", "ergodicity signature",
                    [Check("max_gap_sigmas", rep.max_gap_sigmas, 3.0, "<="),
                     Check("wall_s", dt, 1800.0, "<")],
                    "3 bounded-Lipschitz observables from rest and a large start at T=500")
    assert rep.max_gap_sigmas <= 3.0
    assert dt < 1800.0


def test_c10_eproperty():
    spec = SubordinatorSpec(grid_step=1e-2)
    stepper = Stepper(32, PARAMS, StepScheme.ETD_EULER, 2e-3)
    base = sp.random_state(32, rng_stream(1001, ROLE_INIT), amplitude=1.0)
    rep = eproperty_probe(1001, stepper, MODEL, spec, base, 0.4, 12)
    drops = np.all(np.diff(rep.sup_gaps) < 0.0)
    assert _verdict("10", "e-property",
                    [Check("coupled", rep.coupled, True, "=="),
                     Check("gaps_drop", bool(drops), True, "=="),
                     Check("slope", rep.slope, 0.8, ">=")],
                    f"gaps [{' '.join(f'{g:.2e}' for g in rep.sup_gaps)}] "
                    f"over deltas {rep.deltas}")
    assert rep.coupled
    assert drops
    assert rep.slope >= 0.8


def test_c11_reproducibility(tmp_path):
    cfg = RunConfig(n=16, dt=5e-3, grid_step=1e-2, horizon=0.5, seed=5)
    ini = tmp_path / "cfg.ini"
    ini.write_text(cfg.to_ini())

    def run(tag):
        out = tmp_path / tag
        rc = cli_main(["--config", str(ini), "--out", str(out), "simulate"])
        assert rc == 0
        base = out / cfg.digest[:12] / "simulate"
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(base.iterdir())}

    first, second = run("a"), run("b")
    files_equal = first == second

    ma = moment_experiment(1101, 8, 0.5, Stepper(16, PARAMS, StepScheme.ETD_EULER, 5e-3),
                           MODEL, SubordinatorSpec(grid_step=1e-2), sp.state_zeros(16))
    mb = moment_experiment(1101, 8, 0.5, Stepper(16, PARAMS, StepScheme.ETD_EULER, 5e-3),
                           MODEL, SubordinatorSpec(grid_step=1e-2), sp.state_zeros(16))
    arrays_equal = np.array_equal(ma.energy_sq, mb.energy_sq)

    ra = stopping_moment_experiment(SubordinatorSpec(), 1.0, 1e-3, 4.0, seed=1102, n_paths=64)
    rb = stopping_moment_experiment(SubordinatorSpec(), 1.0, 1e-3, 4.0, seed=1102, n_paths=64)
    scalars_equal = ra.estimate == rb.estimate and ra.doubled_estimate == rb.doubled_estimate

    assert _verdict("11", "reproducibility",
                    [Check("files_equal", files_equal, True, "=="),
                     Check("arrays_equal", arrays_equal, True, "=="),
                     Check("scalars_equal", scalars_equal, True, "==")],
                    f"config {cfg.digest[:12]} reruns over {len(first)} files, ensemble reruns")
    assert files_equal
    assert arrays_equal
    assert scalars_equal
