"""Ensemble machinery: lockstep batches, plateaus, coupling, hitting, averages."""

import ast
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import beta

import boussinesq_lab
from boussinesq_lab import ensembles as en
from boussinesq_lab import spectral as sp
from boussinesq_lab.noise import (
    ROLE_BROWNIAN,
    ROLE_CLOCK,
    NoiseModel,
    SubordinatorSpec,
    rng_stream,
    sample_subordinator,
    subordinated_increments,
)
from boussinesq_lab.spectral import PhysicsParams
from boussinesq_lab.stepping import DEFAULT_SCHEME, Stepper, simulate

PARAMS = PhysicsParams()
SPEC = SubordinatorSpec(grid_step=5e-3)
MODEL = NoiseModel(modes=((1, 0), (0, 1)))


@pytest.fixture(scope="module")
def stepper24():
    return Stepper(24, PARAMS, DEFAULT_SCHEME, 2.5e-3)


@pytest.fixture(scope="module")
def big_state():
    return sp.random_state(24, np.random.default_rng(8), amplitude=3.0)


# ---------------------------------------------------------------------------
# lockstep batch vs the single-path loop


def _assert_batch_reproduces_single_paths(stepper):
    n_paths, horizon, seed = 3, 0.1, 31
    incs, dw = en.sample_noise_batch(SPEC, MODEL, horizon, seed, n_paths)
    rng = np.random.default_rng(5)
    u0s = [sp.random_state(stepper.n, rng, amplitude=0.6) for _ in range(n_paths)]
    runner = en.BatchRunner(stepper, MODEL)
    out = runner.run(np.stack([u.w_hat for u in u0s]),
                     np.stack([u.theta_hat for u in u0s]),
                     dw, SPEC.grid_step, record_every=8)
    for i, u0 in enumerate(u0s):
        path = sample_subordinator(SPEC, horizon, rng_stream(seed, ROLE_CLOCK, i))
        dwi = subordinated_increments(path, MODEL.dim, rng_stream(seed, ROLE_BROWNIAN, i))
        assert np.array_equal(dwi, dw[i])
        traj = simulate(u0, horizon, stepper, model=MODEL, path=path, dw=dwi)
        assert np.array_equal(out.w_hat[i], traj.final.w_hat)
        assert np.array_equal(out.theta_hat[i], traj.final.theta_hat)
        want = sp.weighted_norm(traj.final, PARAMS) ** 2
        assert out.energy_sq[i, -1] == pytest.approx(want, rel=1e-12)


def test_batch_reproduces_single_paths(stepper24):
    _assert_batch_reproduces_single_paths(stepper24)


def test_batch_reproduces_single_paths_n48():
    # at c09's size the batched real transforms must still match B = 1 bit for bit
    _assert_batch_reproduces_single_paths(Stepper(48, PARAMS, DEFAULT_SCHEME, 2.5e-3))


def test_batch_rejects_bad_grid(stepper24):
    dw = np.zeros((1, 4, MODEL.dim))
    runner = en.BatchRunner(stepper24, MODEL)
    w = np.zeros((1, 24, 24), complex)
    with pytest.raises(ValueError, match="divide"):
        runner.run(w, w, dw, grid_step=3e-3)
    with pytest.raises(ValueError, match="record_every"):
        runner.run(w, w, dw, SPEC.grid_step, record_every=7)


@pytest.mark.parametrize("shape", [(2, 4, MODEL.dim + 2), (2, 4, MODEL.dim - 1),
                                   (3, 4, MODEL.dim)])
def test_batch_rejects_misshaped_noise(stepper24, shape):
    # extra direction columns, too few, and a batch-size mismatch are refused
    # with simulate's message rather than ignored or failing inside numpy
    w = np.zeros((2, 24, 24), complex)
    with pytest.raises(ValueError, match=r"dw have shape"):
        en.BatchRunner(stepper24, MODEL).run(w, w, np.zeros(shape), SPEC.grid_step)


def test_batch_blow_up_names_path_and_energy():
    # on a nearly inviscid flow path 1 starts at energy 8.6e9 and passes the
    # 1e12 ceiling in its first step, while path 0 stays at rest; the error
    # must point at path 1
    n = 16
    params = PhysicsParams(nu1=1e-6, nu2=1e-6, g=1.0)
    stepper = Stepper(n, params, DEFAULT_SCHEME, 0.05)
    big = sp.random_state(n, np.random.default_rng(4), amplitude=2e4, decay=0.5)
    w = np.stack([np.zeros((n, n), complex), big.w_hat])
    t = np.stack([np.zeros((n, n), complex), big.theta_hat])
    dw = np.zeros((2, 20, MODEL.dim))
    with pytest.raises(RuntimeError, match=r"at step \d+: path 1 has energy \S+") as err:
        en.BatchRunner(stepper, MODEL).run(w, t, dw, grid_step=0.05)
    assert "path 0" not in str(err.value)


# ---------------------------------------------------------------------------
# observables


def test_default_observables_bounded(big_state):
    obs = en.default_observables()
    assert len({o.name for o in obs}) == 3
    for o in obs:
        assert abs(o.fun(*big_state.halves(), PARAMS)) < 1.0
    zero = sp.state_zeros(24)
    assert en.squashed_energy_observable().fun(*zero.halves(), PARAMS) == 0.0


def test_observables_pickle(big_state):
    obs = en.default_observables()
    back = pickle.loads(pickle.dumps(obs))
    for a, b in zip(obs, back):
        assert a.fun(*big_state.halves(), PARAMS) == b.fun(*big_state.halves(), PARAMS)


def test_squashed_mode_tracks_coefficient(big_state):
    o = en.squashed_mode_observable((1, 0), 0, "theta")
    c = sp.mode_coeff(sp.half(big_state.theta_hat), (1, 0), 0)
    assert o.fun(*big_state.halves(), PARAMS) == pytest.approx(c / (1 + abs(c)), rel=1e-12)


# ---------------------------------------------------------------------------
# second-moment plateau


def test_moment_plateau_initial_state_agreement(stepper24, big_state):
    shared = dict(n_paths=24, horizon=2.0, stepper=stepper24, model=MODEL,
                  spec=SPEC, record_every=80)
    c0 = en.moment_experiment(7, initial=sp.state_zeros(24), **shared)
    c1 = en.moment_experiment(7, initial=big_state, key_offset=5000, **shared)
    assert c0.mean_curve()[0] == 0.0
    assert c1.mean_curve()[0] > 5.0
    p0, p1 = c0.plateau(), c1.plateau()
    assert p0[0] > 0 and p1[0] > 0
    assert en.plateau_agreement([c0, c1]) < 4.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_plateau_agreement_fails_without_error_bars():
    # one path per curve has no standard error (NaN); the gap must not read
    # as 0 sigma and pass
    times = np.arange(5.0)
    curves = [en.MomentCurve(times, np.full((1, 5), level)) for level in (1.0, 2.0)]
    assert not en.plateau_agreement(curves) <= 3.0


def test_moment_run_is_reproducible(stepper24):
    kw = dict(n_paths=4, horizon=0.5, stepper=stepper24, model=MODEL, spec=SPEC,
              initial=sp.state_zeros(24), record_every=40)
    a = en.moment_experiment(11, **kw)
    b = en.moment_experiment(11, **kw)
    assert np.array_equal(a.energy_sq, b.energy_sq)


def test_moment_run_refuses_a_bad_horizon_before_drawing(stepper24, monkeypatch):
    # a horizon of no whole cell, off the clock grid, or of no whole record
    # (4 steps against record_every = 10) is refused before any noise is drawn
    monkeypatch.setattr(en, "sample_noise_batch", lambda *a, **k: pytest.fail("noise drawn"))
    for horizon, why in ((0.0, "at least one grid cell"), (0.0075, "multiple of the grid step"),
                         (0.01, "4 steps is not a multiple of record_every = 10")):
        with pytest.raises(ValueError, match=why):
            en.moment_experiment(7, 2, horizon, stepper24, MODEL, SPEC, sp.state_zeros(24))


def test_quiet_ensemble_decays_like_dissipation(stepper24, big_state):
    # without jumps every mode contracts at least as fast as e^{-nu t}
    quiet = SubordinatorSpec(a=0.0, grid_step=5e-3)
    c = en.moment_experiment(7, 3, 0.5, stepper24, MODEL, quiet, big_state,
                             record_every=40)
    start = sp.weighted_norm(big_state, PARAMS) ** 2
    bound = start * np.exp(-2 * PARAMS.nu * c.times)
    assert (c.energy_sq <= bound[None] * (1 + 1e-9)).all()
    assert (np.diff(c.mean_curve()) < 0).all()


# ---------------------------------------------------------------------------
# stopping-time moments


def test_stopping_moment_exact_at_zero_kappa():
    rep = en.stopping_moment_experiment(SPEC, 1.0, 0.0, MODEL.b0, 3, 50)
    assert rep.estimate == pytest.approx(np.exp(10.0), rel=1e-12)
    assert rep.stderr < 1e-9            # identical paths up to summation dust
    assert rep.tail_margin == np.inf


def test_stopping_moment_doubling_and_margin():
    nu = 1.0
    kappa = 0.1 * 0.05 * nu / MODEL.b0
    rep = en.stopping_moment_experiment(SPEC, nu, kappa, MODEL.b0, 3, 400)
    assert rep.doubling_gap < 0.2
    assert rep.estimate > np.exp(10.0)        # slowed clock only lengthens eta
    assert rep.tail_margin > 2.0
    assert rep.censored == 0


def test_stopping_moment_flags_divergent_regime():
    # at the critical drain rate the moment does not exist; the margin must
    # fall under the bound of the moments command's tail_margin record (2)
    nu = 1.0
    rep = en.stopping_moment_experiment(SPEC, nu, 0.05 * nu / MODEL.b0,
                                        MODEL.b0, 3, 50)
    assert rep.tail_margin < 1.0


def test_clock_rate_function_values():
    base = SPEC.a / SPEC.b
    assert en.clock_rate_function(SPEC, base) == 0.0
    assert en.clock_rate_function(SPEC, 0.5 * base) == 0.0
    want = SPEC.a * (1.0 - np.log(2.0))
    assert en.clock_rate_function(SPEC, 2 * base) == pytest.approx(want, rel=1e-12)
    cs = np.linspace(base, 5 * base, 9)
    vals = [en.clock_rate_function(SPEC, c) for c in cs]
    assert (np.diff(vals) >= 0).all()


# ---------------------------------------------------------------------------
# coupled equicontinuity


def test_eproperty_gap_shrinks_linearly(stepper24):
    base = sp.random_state(24, np.random.default_rng(11), amplitude=1.0)
    rep = en.eproperty_probe(7, stepper24, MODEL, SPEC, base, horizon=0.4,
                             n_paths=16, record_every=20)
    assert rep.coupled
    assert (np.diff(rep.sup_gaps) < 0).all()
    assert (np.diff(rep.state_gaps) < 0).all()
    assert rep.slope >= 0.8
    assert rep.gaps.shape == (3, 3)


def test_noise_batch_digest_is_deterministic():
    a = en.sample_noise_batch(SPEC, MODEL, 0.1, 5, 3)
    b = en.sample_noise_batch(SPEC, MODEL, 0.1, 5, 3)
    c = en.sample_noise_batch(SPEC, MODEL, 0.1, 6, 3)
    assert en.noise_digest(*a) == en.noise_digest(*b)
    assert en.noise_digest(*a) != en.noise_digest(*c)


# ---------------------------------------------------------------------------
# small-ball hitting


def test_irreducibility_positive_at_low_amplitude():
    small = NoiseModel(modes=((1, 0), (0, 1)), alphas=(0.1,) * 4)
    st = Stepper(24, PARAMS, DEFAULT_SCHEME, 5e-3)
    rep = en.irreducibility_probe(7, st, small, SPEC, horizon=3.0, n_paths=25,
                                  radius=0.65, mesh_scale=1.0)
    assert len(rep.estimates) == 9
    assert {e.start for e in rep.estimates} == {(a, b)
                                                for a in (-1.0, 0.0, 1.0)
                                                for b in (-1.0, 0.0, 1.0)}
    for e in rep.estimates:
        assert 0 < e.lower_bound < e.hits / e.n_paths
        # partial hit counts pin the Clopper-Pearson quantile itself, beyond
        # the closed form 0.05 ** (1 / n) of hits = n
        assert e.lower_bound == pytest.approx(
            beta.ppf(0.05, e.hits, e.n_paths - e.hits + 1), rel=1e-12)
        # and it is the quantile at exactly 0.05, bit for bit
        assert e.lower_bound == betaincinv(e.hits, e.n_paths - e.hits + 1, 0.05)
    assert any(e.hits < e.n_paths for e in rep.estimates)


def test_irreducibility_certain_and_impossible_hits():
    # a massless clock turns the kicks off: a small start contracts into the
    # ball on every path, and a far start cannot reach it in a short window
    quietest = SubordinatorSpec(a=0.0, grid_step=5e-3)
    st = Stepper(24, PARAMS, DEFAULT_SCHEME, 5e-3)
    rep = en.irreducibility_probe(7, st, MODEL, quietest, horizon=3.0,
                                  n_paths=4, radius=0.5, mesh_scale=1.0)
    for e in rep.estimates:
        assert e.hits == e.n_paths
        assert e.lower_bound == pytest.approx(0.05 ** (1.0 / e.n_paths), rel=1e-12)
    far = en.irreducibility_probe(7, st, MODEL, quietest, horizon=0.05,
                                  n_paths=4, radius=0.05, mesh_scale=5.0)
    corner = [e for e in far.estimates if e.start == (5.0, 5.0)][0]
    assert corner.hits == 0 and corner.lower_bound == 0.0
    for horizon, why in ((0.0, "at least one grid cell"), (0.0075, "multiple of the grid step")):
        with pytest.raises(ValueError, match=why):
            en.irreducibility_probe(7, st, MODEL, quietest, horizon=horizon,
                                    n_paths=4, radius=0.5, mesh_scale=1.0)


# ---------------------------------------------------------------------------
# long-run averages


def test_invariant_statistics_report(big_state):
    st = Stepper(24, PARAMS, DEFAULT_SCHEME, 5e-3)
    rep = en.invariant_statistics(7, [sp.state_zeros(24), big_state], 24.0, st,
                                  MODEL, SPEC, record_every=16)
    assert len(rep.estimates) == 2 and len(rep.estimates[0]) == 3
    for row in rep.estimates:
        for est in row:
            assert est.n_batches == 20
            assert np.isfinite(est.mean) and est.stderr > 0
            assert abs(est.mean) < 1.0          # all defaults are bounded by 1
    assert rep.max_gap_sigmas < 4.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_invariant_statistics_fails_with_one_batch(stepper24, big_state):
    # one batch mean has no standard error (NaN), so the starts cannot agree:
    # a `<=` bound on the gap fails
    rep = en.invariant_statistics(7, [sp.state_zeros(24), big_state], 0.1, stepper24,
                                  MODEL, SPEC, n_batches=1)
    assert np.isnan(rep.max_gap_sigmas)


def test_batch_means_variance_scaling():
    rng = np.random.default_rng(0)
    series = rng.normal(size=8000)
    bm20 = en.batch_means(series, 20)
    bm80 = en.batch_means(series, 80)
    assert bm20.mean() == pytest.approx(series.mean(), abs=1e-12)
    # iid input: batch-mean spread shrinks like the root of the batch length
    ratio = bm80.std(ddof=1) / bm20.std(ddof=1)
    assert 1.6 < ratio < 2.5
    with pytest.raises(ValueError, match="too short"):
        en.batch_means(np.arange(5.0), 20)


def test_lag1_correlation_detects_structure():
    rng = np.random.default_rng(1)
    iid = rng.normal(size=4000)
    assert abs(en.lag1_correlation(iid)) < 0.1
    ar = np.empty(4000)
    ar[0] = 0.0
    eps = rng.normal(size=4000)
    for i in range(1, 4000):
        ar[i] = 0.9 * ar[i - 1] + eps[i]
    assert en.lag1_correlation(ar) == pytest.approx(0.9, abs=0.08)
    assert en.lag1_correlation(np.ones(10)) == 0.0


def test_invariant_statistics_batch_matches_single_paths(big_state):
    # the starts advance as one batch; start i must reproduce a B = 1 run on
    # the streams keyed by i, and its estimates the loop over that run
    st = Stepper(24, PARAMS, DEFAULT_SCHEME, 5e-3)
    initials = [sp.state_zeros(24), big_state, big_state * 0.5]
    horizon, n_batches, record_every = 6.0, 20, 16
    obs = en.default_observables()
    rep = en.invariant_statistics(7, initials, horizon, st, MODEL, SPEC, obs,
                                  n_batches=n_batches, record_every=record_every)
    for idx, u0 in enumerate(initials):
        _, dw = en.sample_noise_batch(SPEC, MODEL, horizon, 7, 1, key_offset=idx)
        out = en.BatchRunner(st, MODEL).run(u0.w_hat[None], u0.theta_hat[None], dw,
                                            SPEC.grid_step, record_every, obs)
        burn = int(round(0.2 * (out.observed.shape[-1] - 1)))
        for oi, est in enumerate(rep.estimates[idx]):
            bm = en.batch_means(out.observed[oi, 0, burn:], n_batches)
            rho = en.lag1_correlation(bm)
            se = float(bm.std(ddof=1) / np.sqrt(n_batches))
            if rho > 0.0:
                se *= float(np.sqrt((1.0 + rho) / (1.0 - min(rho, 0.95))))
            assert (est.observable, est.mean, est.stderr, est.lag1) == (
                obs[oi].name, float(bm.mean()), se, rho)


@pytest.mark.parametrize("n", [24, 48])
def test_observables_on_a_stack_match_each_state(n):
    # stack-native observables reduce each state exactly as the per-state
    # formulas do: the weighted norm of sobolev_sq, the mode coefficient of
    # the full L2 pairing with its trig element
    rng = np.random.default_rng(n)
    states = [sp.random_state(n, rng, amplitude=a) for a in (0.3, 1.0, 3.0)]
    w = np.stack([u.w_hat for u in states])
    t = np.stack([u.theta_hat for u in states])
    energy, theta_mode, w_mode = en.default_observables()
    want = {energy.name: [], theta_mode.name: [], w_mode.name: []}
    for u in states:
        x = sp.weighted_norm(u, PARAMS)
        want[energy.name].append(x / (1.0 + x))
        for o, f_hat, k, m in ((theta_mode, u.theta_hat, (1, 0), 0),
                               (w_mode, u.w_hat, (1, 1), 1)):
            c = sp.l2_dot(f_hat, sp.trig_hat(n, k[0], k[1], m)) / sp.TRIG_NORM_SQ
            want[o.name].append(c / (1.0 + abs(c)))
    for o in (energy, theta_mode, w_mode):
        got = o.fun(sp.half(w), sp.half(t), PARAMS)
        assert got.shape == (3,)
        assert got.tolist() == want[o.name]
        assert [float(o.fun(*u.halves(), PARAMS)) for u in states] == want[o.name]


def test_eproperty_probe_sees_a_perturbed_noise_block(stepper24, monkeypatch):
    # negative control for the coupling check: when one delta run draws
    # different noise, the digests disagree and the probe reports it
    exact = en.sample_noise_batch
    calls = []

    def perturbed(*args, **kwargs):
        incs, dw = exact(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            dw = dw.copy()
            dw[0, 0, 0] += 1e-9
        return incs, dw

    base = sp.random_state(24, np.random.default_rng(11), amplitude=1.0)
    kw = dict(horizon=0.05, n_paths=2, record_every=20)
    assert en.eproperty_probe(7, stepper24, MODEL, SPEC, base, **kw).coupled
    calls.clear()
    monkeypatch.setattr(en, "sample_noise_batch", perturbed)
    rep = en.eproperty_probe(7, stepper24, MODEL, SPEC, base, **kw)
    assert len(calls) == 4
    assert not rep.coupled


def test_no_worker_pool_in_the_package():
    # every experiment runs as one lockstep batch in one process; the only
    # threads are those of the block pool behind `spectral.blockwise`
    process = re.compile(r"BQLAB_WORKERS|ProcessPoolExecutor|\bmultiprocessing\b|\bos\.fork\b")
    threads = re.compile(r"\bthreading\b|\bconcurrent\.futures\b|\bfrom\s+concurrent\s+import\b")
    pkg = Path(sp.__file__).parent
    offenders = [f.name for f in sorted(pkg.glob("*.py"))
                 if process.search(f.read_text())
                 or (f.name != "spectral.py" and threads.search(f.read_text()))]
    assert offenders == []


# kept although nothing but their unit tests reaches them, each with its reason
REACHABILITY_ALLOWLIST = {
    "second_variation_fd_check": "checks the second-variation flow, which the README names",
    "grid_points": "states the grid convention; the trig-coefficient tests use it as oracle",
    "load_path": "reads the clock_path.txt artifact back",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _local_names(fn) -> set:
    """The names a function binds as an argument or a local (not global)."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            # a nested def binds its name, but its body is a scope of its own
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _referenced_names(tree) -> set:
    # a name that a function binds as an argument or a local shadows the
    # module-level def of that name, so its uses there reach nothing
    names = set()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound = bound | _local_names(node)
        if isinstance(node, ast.Name):
            if node.id not in bound:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return names


def test_every_module_level_name_is_reached():
    # a def or class only its own unit test calls is dead code: it must be
    # referenced elsewhere in the package, exported by __all__, used by an
    # acceptance check, or carry a reason in the allowlist
    pkg = Path(sp.__file__).parent
    trees = {f.name: ast.parse(f.read_text()) for f in sorted(pkg.glob("*.py"))}
    defined = [(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    acceptance = Path(__file__).with_name("test_acceptance.py")
    reached = set(boussinesq_lab.__all__) | _referenced_names(ast.parse(acceptance.read_text()))
    for tree in trees.values():
        reached |= _referenced_names(tree)
    assert set(REACHABILITY_ALLOWLIST) <= {name for _, name in defined}
    unreached = [f"{mod}:{name}" for mod, name in defined
                 if name not in reached and name not in REACHABILITY_ALLOWLIST]
    assert unreached == []


def test_no_module_reads_the_environment():
    # a run is set by its config and arguments alone: no package module
    # names os.environ, os.getenv or environ
    pkg = Path(sp.__file__).parent
    offenders = []
    for f in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            offenders += [f"{f.name}:{node.lineno}" for x in names if x in ("environ", "getenv")]
    assert offenders == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node, package: str):
    """The package module an import names, or None: `from .x import ...`
    and `from package.x import ...` name x."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith(package + "."):
        return node.module[len(package) + 1:]
    return None


def test_no_module_reaches_into_another_modules_private_names():
    # a `_`-prefixed name belongs to its module: no other package module
    # imports it (`from .noise import _x`, at module level or inside a
    # function) or reads it off an imported module (`sp._x`)
    pkg = Path(sp.__file__).parent
    offenders = []
    for f in sorted(pkg.glob("*.py")):
        tree = ast.parse(f.read_text())
        aliases = set()         # local names bound to a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _package_module(node, pkg.name)
                if node.level == 1 and module is None:      # from . import spectral as sp
                    aliases |= {a.asname or a.name for a in node.names}
                elif module is not None and module != f.stem:
                    offenders += [f"{f.name}:{node.lineno} imports {module}.{a.name}"
                                  for a in node.names if _is_private(a.name)]
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names
                            if a.asname and a.name.startswith(pkg.name + ".")}
        offenders += [f"{f.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases and _is_private(node.attr)]
    assert offenders == []


# dataclass fields kept although nothing reads them, each with its reason
FIELD_ALLOWLIST = {}


def _is_dataclass_def(node) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _read_names(tree) -> set:
    """Attribute names loaded anywhere in the tree, and constant getattr names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_every_dataclass_field_is_read():
    # a result field that is filled but never read is dead output: it must be
    # read somewhere in src/, tests/ or benchmarks/, or carry a reason here
    pkg = Path(sp.__file__).parent
    tests = Path(__file__).resolve().parent
    trees = {f: ast.parse(f.read_text())
             for d in (pkg, tests, tests.parent / "benchmarks") for f in sorted(d.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    owned = [(f.stem, node.name, stmt.target.id)
             for f in sorted(pkg.glob("*.py")) for node in trees[f].body
             if _is_dataclass_def(node)
             for stmt in node.body
             if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert set(FIELD_ALLOWLIST) <= {name for *_, name in owned}
    unread = [f"{mod}:{cls}.{name}" for mod, cls, name in owned
              if name not in read and name not in FIELD_ALLOWLIST]
    assert unread == []
