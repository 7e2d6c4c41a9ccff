"""Command line front end.

Every command loads one config, derives the canonical digest, and writes its
outputs under <out>/<digest prefix>/<command>/ so reruns with the same
effective config land in the same place with byte-identical content. Exit
status: 0 when the command's checks pass, 1 when they fail, 2 on usage or
config errors.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import spectral as sp
from .config import ConfigError, RunConfig, load_config, save_config
from .ensembles import (check_eproperty_horizon, check_invariant_horizon, eproperty_probe,
                        horizon_records, invariant_statistics, irreducibility_probe,
                        moment_experiment, plateau_agreement, stopping_moment_experiment)
from .hormander import (bracket_z_sigma, bracket_z_sigma_field, combo_state,
                        numerical_lie_bracket, psi_recovery, span_generation,
                        verify_span, z_field)
from .noise import (ROLE_INIT, ROLE_SCRATCH, check_renewal_grid, grid_cells, rng_stream,
                    sample_noise, save_path)
from .spectral import PhysicsParams, SpectralState, weighted_norm
from .stepping import energy_audit, horizon_steps, run_with_noise, simulate
from .variation import (HNBasis, control_experiment, malliavin_backward,
                        malliavin_forward, min_eigen_probe)

# pass thresholds of the brackets and ergodicity commands
TOL_EXACT = 1e-10           # brackets: symbolic against operator
TOL_NUMERIC = 1e-6          # brackets: operator against central differences
SLOPE_MIN = 0.8             # ergodicity: e-property log-log slope (acceptance 10)

SNAPSHOT_MAGIC = b"BQLB"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIII dddd 16s")


# ---------------------------------------------------------------------------
# snapshot container


def write_snapshots(fname, states, cfg: RunConfig) -> None:
    """Binary frame dump: header, then (w_hat, theta_hat) complex128 pairs.

    The header records grid size, frame count, dt, the three physics
    constants, and the first 16 hex characters of the config digest.
    """
    if not states:
        raise ValueError("nothing to write")
    n = states[0].n
    head = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n, len(states),
                        cfg.dt, cfg.nu1, cfg.nu2, cfg.g,
                        cfg.digest[:16].encode("ascii"))
    with open(fname, "wb") as fh:
        fh.write(head)
        for state in states:
            fh.write(np.ascontiguousarray(state.w_hat).tobytes())
            fh.write(np.ascontiguousarray(state.theta_hat).tobytes())


def read_snapshots(fname):
    """Inverse of write_snapshots: (states, meta dict)."""
    with open(fname, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, version, n, count, dt, nu1, nu2, g, digest = _HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("not a snapshot file")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        frame = n * n * 16
        states = []
        for _ in range(count):
            raw = fh.read(2 * frame)
            if len(raw) < 2 * frame:
                raise ValueError("truncated snapshot frame")
            w = np.frombuffer(raw[:frame], np.complex128).reshape(n, n).copy()
            t = np.frombuffer(raw[frame:], np.complex128).reshape(n, n).copy()
            states.append(SpectralState(w, t))
    meta = {"n": n, "count": count, "dt": dt, "nu1": nu1, "nu2": nu2, "g": g,
            "digest": digest.decode("ascii")}
    return states, meta


# ---------------------------------------------------------------------------
# shared plumbing


def _outdir(cfg: RunConfig, base, command: str) -> Path:
    root = Path(base) / cfg.digest[:12]
    out = root / command
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, root / "config.ini")
    return out


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    body = {"config_digest": cfg.digest}
    body.update(payload)
    path.write_text(json.dumps(body, indent=2, sort_keys=True,
                               default=_np_default) + "\n")


def _initial_state(cfg: RunConfig) -> SpectralState:
    if cfg.amplitude == 0.0:
        return sp.state_zeros(cfg.n)
    return sp.random_state(cfg.n, rng_stream(cfg.seed, ROLE_INIT),
                           amplitude=cfg.amplitude)


def _rel_gap(a: SpectralState, b: SpectralState, params: PhysicsParams) -> float:
    ref = max(weighted_norm(a, params), weighted_norm(b, params), 1e-300)
    return weighted_norm(a - b, params) / ref


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, out: Path, args) -> bool:
    traj, path, _ = run_with_noise(_initial_state(cfg), cfg.horizon, cfg.stepper(),
                                   cfg.model(), cfg.spec(), cfg.seed)
    write_snapshots(out / "trajectory.bqlb", traj.snapshots, cfg)

    buf = io.StringIO()
    save_path(path, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    lines.insert(1, f"# config: {cfg.digest}\n")
    (out / "clock_path.txt").write_text("".join(lines))

    cols = np.column_stack([traj.times, traj.norm0, traj.norm1, traj.w_part,
                            traj.theta_part, traj.clock])
    np.savetxt(out / "series.csv", cols, delimiter=",",
               header=f"config {cfg.digest}\nt,norm0,norm1,w_part,theta_part,ell")

    n_jumps = int(np.count_nonzero(traj.jump_identity))
    _write_json(out / "summary.json", {
        "n_steps": len(traj.times) - 1,
        "n_jumps": n_jumps,
        "blew_up": traj.blew_up,
        "final_norm0": float(traj.norm0[-1]),
        "final_norm1": float(traj.norm1[-1]),
        "clock_total": float(traj.clock[-1]),
        "snapshots": len(traj.snapshots),
    }, cfg)
    print(f"  {len(traj.times) - 1} steps, {n_jumps} jumps, "
          f"final weighted norm {traj.norm0[-1]:.6g}")
    if traj.blew_up:
        print("  trajectory blew up before the horizon")
    return not traj.blew_up


def cmd_audit(cfg: RunConfig, out: Path, args) -> bool:
    stepper = cfg.stepper()
    traj, _, _ = run_with_noise(_initial_state(cfg), cfg.horizon, stepper,
                                cfg.model(), cfg.spec(), cfg.seed)
    coarse = energy_audit(traj, stepper)

    # halving dt keeps the clock grid divisible, so the same jumps land at the
    # same times; the residual rate mixes trapezoid quadrature (second order)
    # with the integrator's own truncation (first order on nonlinear runs),
    # so require a clear decrease rather than a strict quartering
    half = replace(cfg, dt=cfg.dt / 2.0)
    traj_f, _, _ = run_with_noise(_initial_state(half), half.horizon, half.stepper(),
                                  half.model(), half.spec(), half.seed)
    fine = energy_audit(traj_f, half.stepper())
    order_ok = (fine.dissipation_residual_rate <= 0.7 * coarse.dissipation_residual_rate
                or coarse.dissipation_residual_rate < 1e-12)
    jump_ok = coarse.max_jump_residual <= 1e-10

    # rerun the coarse configuration and require byte-identical snapshots
    traj_r, _, _ = run_with_noise(_initial_state(cfg), cfg.horizon, cfg.stepper(),
                                  cfg.model(), cfg.spec(), cfg.seed)
    write_snapshots(out / "first.bqlb", traj.snapshots, cfg)
    write_snapshots(out / "rerun.bqlb", traj_r.snapshots, cfg)
    d1 = hashlib.sha256((out / "first.bqlb").read_bytes()).hexdigest()
    d2 = hashlib.sha256((out / "rerun.bqlb").read_bytes()).hexdigest()
    repro_ok = d1 == d2

    back, meta = read_snapshots(out / "first.bqlb")
    roundtrip_ok = (meta["digest"] == cfg.digest[:16]
                    and all(np.array_equal(a.w_hat, b.w_hat)
                            and np.array_equal(a.theta_hat, b.theta_hat)
                            for a, b in zip(back, traj.snapshots)))

    _write_json(out / "audit.json", {
        "dissipation_rate": coarse.dissipation_residual_rate,
        "dissipation_rate_half_dt": fine.dissipation_residual_rate,
        "max_jump_residual": coarse.max_jump_residual,
        "n_jumps": coarse.n_jumps,
        "snapshot_sha256": d1,
        "order_ok": order_ok,
        "jump_ok": jump_ok,
        "reproducible": repro_ok,
        "roundtrip_ok": roundtrip_ok,
    }, cfg)
    print(f"  dissipation residual rate {coarse.dissipation_residual_rate:.3e} "
          f"-> {fine.dissipation_residual_rate:.3e} at dt/2 "
          f"({'ok' if order_ok else 'not shrinking'})")
    print(f"  jump identity residual {coarse.max_jump_residual:.3e} over "
          f"{coarse.n_jumps} jumps ({'ok' if jump_ok else 'BAD'})")
    print(f"  rerun snapshots {'byte-identical' if repro_ok else 'DIFFER'}")
    print(f"  snapshot roundtrip {'ok' if roundtrip_ok else 'BAD'}")
    return order_ok and jump_ok and repro_ok and roundtrip_ok


def cmd_malliavin(cfg: RunConfig, out: Path, args) -> bool:
    stepper = cfg.stepper()
    params = cfg.params()
    model = cfg.model()
    # rows accumulate one perturbation per direction per jump cell, so the
    # window has to stay short; the full horizon would be quadratic work
    window = args.window
    n_steps = horizon_steps(window, cfg.dt)
    path, dw = sample_noise(cfg.spec(), model, window, cfg.seed)
    basis = HNBasis(cfg.n, 2 * cfg.level, params)
    u0 = _initial_state(cfg)
    res = malliavin_forward(u0, n_steps, stepper, model, path, dw, basis)

    payload = {
        "dim": basis.dim,
        "level": cfg.level,
        "ambient_level": 2 * cfg.level,
        "window": window,
        "n_jumps": res.n_jumps,
        "clock_mass": res.clock_mass,
        "degenerate": res.degenerate,
    }
    ok = not res.degenerate
    if res.degenerate:
        print("  degenerate window: the clock carried no jump mass")
    else:
        eigs = np.linalg.eigvalsh(0.5 * (res.matrix + res.matrix.T))
        scale = float(eigs[-1])
        psd_ok = float(eigs[0]) >= -1e-10 * max(scale, 1.0)
        probe = min_eigen_probe(res.matrix, basis.sublevel_mask(cfg.level),
                                args.alpha)
        bounds_ok = probe.lower <= probe.upper + 1e-12 * max(scale, 1.0)
        payload.update({
            "eig_min": float(eigs[0]),
            "eig_max": scale,
            "alpha": args.alpha,
            "probe_lower": probe.lower,
            "probe_upper": probe.upper,
            "probe_unconstrained": probe.unconstrained,
            "constraint_active": probe.active,
        })
        ok = psd_ok and bounds_ok
        print(f"  gramian dim {basis.dim}, {res.n_jumps} jumps, "
              f"eigenvalues in [{eigs[0]:.3e}, {scale:.3e}]")
        print(f"  constrained minimum in [{probe.lower:.3e}, {probe.upper:.3e}] "
              f"at alpha {args.alpha}")
        if args.check_adjoint:
            traj = simulate(u0, window, stepper, model=model, path=path,
                            dw=dw, store_full=True)
            res_b = malliavin_backward(traj.states, stepper, model, path, basis)
            gap = float(np.abs(res.matrix - res_b.matrix).max())
            gap_ok = gap <= 1e-8 * max(scale, 1.0)
            payload["adjoint_gap"] = gap
            ok = ok and gap_ok
            print(f"  forward vs adjoint assembly gap {gap:.3e} "
                  f"({'ok' if gap_ok else 'BAD'})")
        np.savetxt(out / "gramian.csv", res.matrix, delimiter=",",
                   header=f"config {cfg.digest}\nweighted gramian, dim {basis.dim}")
        np.savetxt(out / "eigenvalues.csv", eigs[::-1], delimiter=",",
                   header=f"config {cfg.digest}\ndescending eigenvalues")

    if args.control_windows > 0:
        kappa0 = 0.05 * params.nu / model.b0
        ctl = control_experiment(cfg.seed, 4, args.control_windows, stepper, cfg.spec(),
                                 model, 0.1 * kappa0, amplitude=cfg.amplitude)
        with open(out / "control_trace.csv", "w") as fh:
            fh.write(f"# config {cfg.digest}\n# path,window,edge_step,costate_norm\n")
            for i, edges in enumerate(ctl.edge_steps):
                for w, e in enumerate(edges):
                    fh.write(f"{i},{w},{e},{float(ctl.rho_norms[i, w])!r}\n")
        ctl_ok = ctl.residual_max <= 1e-6
        payload["control"] = {
            "windows": args.control_windows,
            "recursion_residual_max": ctl.residual_max,
            "n_degenerate": ctl.n_degenerate,
        }
        ok = ok and ctl_ok
        print(f"  damped-window recursion residual {ctl.residual_max:.3e} "
              f"({'ok' if ctl_ok else 'BAD'})")
    _write_json(out / "malliavin.json", payload, cfg)
    return ok


def cmd_brackets(cfg: RunConfig, out: Path, args) -> bool:
    params = cfg.params()
    n = cfg.n
    state = sp.random_state(n, rng_stream(cfg.seed, ROLE_SCRATCH),
                            amplitude=max(cfg.amplitude, 0.5))
    pairs = [((0, 1), 0, (1, 0), 0), ((1, 1), 1, (1, 0), 1),
             ((1, 2), 0, (2, 1), 1), ((0, 2), 1, (1, 1), 0)]
    checks = []

    worst_exact = 0.0
    for j, m, k, mp in pairs:
        sym = combo_state(bracket_z_sigma(j, m, k, mp), n, params.g)
        op = bracket_z_sigma_field(j, m, k, mp, n, params)
        err = _rel_gap(sym, op, params)
        worst_exact = max(worst_exact, err)
        checks.append({"pair": [list(j), m, list(k), mp], "symbolic_vs_operator": err})

    worst_num = 0.0
    for j, m, k, mp in pairs[:2]:
        zf = lambda u, j=j, m=m: z_field(j, m, u, params)
        sf = lambda u, k=k, mp=mp: sp.sigma_state(n, k, mp)
        num = numerical_lie_bracket(zf, sf, state, params)
        op = bracket_z_sigma_field(j, m, k, mp, n, params)
        worst_num = max(worst_num, _rel_gap(num, op, params))

    worst_psi = 0.0
    for j, m in [((1, 1), 0), ((2, 1), 1), ((0, 1), 0), ((0, 2), 1)]:
        rec, branch = psi_recovery(j, m, state, params)
        target = sp.psi_state(n, j, m)
        worst_psi = max(worst_psi, _rel_gap(rec, target, params))

    exact_ok = worst_exact <= TOL_EXACT
    num_ok = worst_num <= TOL_NUMERIC
    psi_ok = worst_psi <= TOL_NUMERIC
    _write_json(out / "brackets.json", {
        "n": n,
        "pairs": checks,
        "worst_symbolic_vs_operator": worst_exact,
        "worst_operator_vs_numerical": worst_num,
        "worst_psi_recovery": worst_psi,
        "tol_exact": TOL_EXACT,
        "tol_numeric": TOL_NUMERIC,
    }, cfg)
    print(f"  symbolic vs operator brackets: {worst_exact:.3e} "
          f"({'ok' if exact_ok else 'BAD'})")
    print(f"  operator vs central differences: {worst_num:.3e} "
          f"({'ok' if num_ok else 'BAD'})")
    print(f"  vorticity direction recovery: {worst_psi:.3e} "
          f"({'ok' if psi_ok else 'BAD'})")
    return exact_ok and num_ok and psi_ok


def cmd_span(cfg: RunConfig, out: Path, args) -> bool:
    zset = tuple(cfg.modes)
    result = span_generation(zset, args.level)
    (out / "span.log").write_text("\n".join(result.log_lines()) + "\n")
    (out / "span.json").write_text(result.to_json() + "\n")
    payload = {
        "level": args.level,
        "generators": [list(k) for k in zset],
        "reached": len(result.reached),
        "targets": len(result.targets),
        "missing": [list(k) for k in result.missing],
        "success": result.success,
    }
    ok = result.success
    print(f"  level {args.level}: {len(result.reached)} modes reached, "
          f"{len(result.missing)} targets missing")
    if result.success and not args.no_verify:
        need = max(max(abs(k[0]), abs(k[1])) for k in result.reached)
        n_v = 3 * need + 1 + (3 * need + 1) % 2     # the least even n with 3 need < n
        n_v = max(n_v, 12)
        replay = verify_span(result, n_v, cfg.params())
        payload.update({"replay_grid": n_v, "replay_checked": replay["checked"],
                        "replay_max_rel_err": replay["max_rel_err"]})
        ok = replay["max_rel_err"] <= 1e-8
        print(f"  replayed {replay['checked']} checks on a {n_v}x{n_v} grid, "
              f"max rel err {replay['max_rel_err']:.3e}")
    _write_json(out / "summary.json", payload, cfg)
    return ok


def cmd_moments(cfg: RunConfig, out: Path, args) -> bool:
    stepper = cfg.stepper()
    model = cfg.model()
    spec = cfg.spec()
    params = cfg.params()
    starts = [sp.state_zeros(cfg.n), _initial_state(cfg)]
    curves = [moment_experiment(cfg.seed, args.paths, cfg.horizon, stepper, model,
                                spec, s, key_offset=i * args.paths)
              for i, s in enumerate(starts)]
    agreement = plateau_agreement(curves)
    fits = [c.plateau() for c in curves]
    np.savetxt(out / "moments.csv",
               np.column_stack([curves[0].times] + [c.mean_curve() for c in curves]),
               delimiter=",",
               header=f"config {cfg.digest}\nt,rest_mean_energy_sq,excited_mean_energy_sq")

    nu = params.nu
    kappa0 = 0.05 * nu / model.b0
    kappa = args.kappa_frac * kappa0
    rep = stopping_moment_experiment(spec, nu, kappa, model.b0, cfg.seed,
                                     args.eta_paths)

    agree_ok = agreement <= 3.0
    stop_ok = rep.doubling_gap <= 0.25 and rep.censored == 0 and not rep.heavy_tail
    _write_json(out / "moments.json", {
        "n_paths": args.paths,
        "plateaus": [{"mean": f[0], "stderr": f[1]} for f in fits],
        "plateau_agreement_sigmas": agreement,
        "kappa": kappa,
        "eta_paths": args.eta_paths,
        "eta_moment": rep.estimate,
        "eta_moment_stderr": rep.stderr,
        "eta_moment_doubled": rep.doubled_estimate,
        "doubling_gap": rep.doubling_gap,
        "censored": rep.censored,
        "tail_margin": rep.tail_margin,
        "heavy_tail": rep.heavy_tail,
    }, cfg)
    print(f"  plateau fits {fits[0][0]:.4g}+-{fits[0][1]:.2g} (rest) vs "
          f"{fits[1][0]:.4g}+-{fits[1][1]:.2g} (excited): "
          f"{agreement:.2f} sigma ({'ok' if agree_ok else 'BAD'})")
    print(f"  recurrence moment {rep.estimate:.4g}, doubling gap "
          f"{rep.doubling_gap:.3f}, tail margin {rep.tail_margin:.2f} "
          f"({'ok' if stop_ok else 'BAD'})")
    return agree_ok and stop_ok


def cmd_ergodicity(cfg: RunConfig, out: Path, args) -> bool:
    stepper = cfg.stepper()
    model = cfg.model()
    spec = cfg.spec()
    payload = {"args": {
        "paths": args.paths,
        "ep_horizon": None if args.skip_eproperty else args.ep_horizon,
        "invariant_horizon": None if args.skip_invariant else args.invariant_horizon,
        "radius": args.radius,
        "mesh_scale": None if args.radius is None else args.mesh_scale,
    }}
    ok = True

    if not args.skip_eproperty:
        base = _initial_state(cfg)
        ep = eproperty_probe(cfg.seed, stepper, model, spec, base,
                             args.ep_horizon, args.paths)
        decreasing = bool(np.all(np.diff(ep.sup_gaps) < 0))
        ep_ok = ep.coupled and ep.slope >= SLOPE_MIN and decreasing
        np.savetxt(out / "eproperty.csv",
                   np.column_stack([ep.deltas, ep.sup_gaps, ep.state_gaps]),
                   delimiter=",", header=f"config {cfg.digest}\ndelta,sup_gap,state_gap")
        payload["eproperty"] = {
            "deltas": list(ep.deltas),
            "sup_gaps": [float(x) for x in ep.sup_gaps],
            "state_gaps": [float(x) for x in ep.state_gaps],
            "slope": ep.slope,
            "coupled": ep.coupled,
        }
        ok = ok and ep_ok
        print(f"  equicontinuity: gaps {ep.sup_gaps[0]:.3e} -> {ep.sup_gaps[-1]:.3e}, "
              f"slope {ep.slope:.2f} ({'ok' if ep_ok else 'BAD'})")

    if not args.skip_invariant:
        inv = invariant_statistics(cfg.seed, [sp.state_zeros(cfg.n), _initial_state(cfg)],
                                   args.invariant_horizon, stepper, model, spec)
        payload["invariant"] = {
            "max_gap_sigmas": inv.max_gap_sigmas,
            "agree": inv.agree,
            "estimates": [[{"observable": e.observable, "mean": e.mean,
                            "stderr": e.stderr, "lag1": e.lag1,
                            "short_batches": e.short_batches}
                           for e in rows] for rows in inv.estimates],
        }
        ok = ok and inv.agree
        with open(out / "invariant.csv", "w") as fh:
            fh.write(f"# config {cfg.digest}\n# start,observable,mean,stderr,lag1\n")
            for i, row in enumerate(inv.estimates):
                for e in row:
                    fh.write(f"{i},{e.observable},{e.mean!r},{e.stderr!r},{e.lag1!r}\n")
        short = [e.short_batches for rows in inv.estimates for e in rows]
        print(f"  invariant statistics agree within {inv.max_gap_sigmas:.2f} sigma, "
              f"short_batches {sum(short)} of {len(short)} "
              f"({'ok' if inv.agree else 'BAD'})")

    if args.radius is not None:
        rep = irreducibility_probe(cfg.seed, stepper, model, spec, cfg.horizon,
                                   args.paths, args.radius, args.mesh_scale)
        payload["irreducibility"] = {
            "radius": rep.radius,
            "all_positive": rep.all_positive,
            "lower_bounds": [e.lower_bound for e in rep.estimates],
        }
        ok = ok and rep.all_positive
        print(f"  hitting probability lower bounds all positive: {rep.all_positive}")

    _write_json(out / "ergodicity.json", payload, cfg)
    return ok


# ---------------------------------------------------------------------------
# dispatch


def _checked(kind, ok, what: str):
    """argparse type: kind(text) that must satisfy ok, or a usage error
    (exit 2, before any output directory is made)."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind.__name__}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    return parse


def _int_from(low: int):
    return _checked(int, lambda x: x >= low, f"an integer >= {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqlab",
        description="Desk-scale stochastic Boussinesq laboratory")
    parser.add_argument("--config", help="INI config file (defaults built in)")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", default="runs", help="output root directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="integrate one noisy trajectory")

    sub.add_parser("audit", help="energy balance and reproducibility checks")

    p = sub.add_parser("malliavin", help="jump Gramian and its smallest eigenvalue")
    p.add_argument("--alpha", type=_checked(float, lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
                   default=0.5,
                   help="low-mode mass floor for the constrained eigenvalue")
    p.add_argument("--window", type=float, default=0.05,
                   help="propagation window, a positive multiple of grid.dt")
    p.add_argument("--check-adjoint", action="store_true",
                   help="assemble the Gramian a second time by the adjoint sweep")
    p.add_argument("--control-windows", type=_int_from(0), default=0,
                   help="also trace this many alternating damped/free recurrence "
                        "windows (costly: one tangent row per direction per cell)")

    sub.add_parser("brackets", help="verify the bracket identities numerically")

    p = sub.add_parser("span", help="run the directional span induction")
    p.add_argument("--level", type=_int_from(1), default=8)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the grid replay of the derivation log")

    p = sub.add_parser("moments", help="moment plateaus and recurrence moments")
    p.add_argument("--paths", type=_int_from(2), default=16)
    p.add_argument("--eta-paths", type=_int_from(2), default=400)
    p.add_argument("--kappa-frac", type=_checked(float, lambda x: x > 0, "positive"),
                   default=0.1,
                   help="threshold radius as a fraction of the safe bound")

    p = sub.add_parser("ergodicity", help="equicontinuity and invariant statistics")
    p.add_argument("--paths", type=_int_from(1), default=12)
    p.add_argument("--ep-horizon", type=float, default=0.4)
    p.add_argument("--invariant-horizon", type=float, default=24.0,
                   help="window for the stationary time averages")
    p.add_argument("--skip-eproperty", action="store_true")
    p.add_argument("--skip-invariant", action="store_true")
    p.add_argument("--radius", type=_checked(float, lambda x: x > 0, "positive"), default=None,
                   help="also probe hitting probabilities of this ball")
    p.add_argument("--mesh-scale", type=float, default=1.0)

    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "audit": cmd_audit,
    "malliavin": cmd_malliavin,
    "brackets": cmd_brackets,
    "span": cmd_span,
    "moments": cmd_moments,
    "ergodicity": cmd_ergodicity,
}


def _config_argument_error(cfg: RunConfig, args) -> str | None:
    """Why an argument does not fit the config, or None: the malliavin
    window must be a positive multiple of grid.dt, and with --control-windows
    the clock grid no coarser than 1/nu (`check_renewal_grid`); the moments
    run.horizon must span whole clock cells, one at least, and whole records
    of 10 steps (`horizon_records`); the ergodicity horizons must lie on the
    clock grid and, where their part runs, hold what its check needs
    (`check_eproperty_horizon`, `check_invariant_horizon`), and with --radius
    run.horizon must span whole clock cells, one at least."""
    if args.command == "malliavin":
        try:
            n_steps = horizon_steps(args.window, cfg.dt)
        except ValueError:
            n_steps = 0         # not a multiple: refused like a window under one step
        if n_steps < 1:
            return f"argument --window {args.window}: window must be a positive multiple " \
                   f"of grid.dt {cfg.dt}"
        if args.control_windows > 0:
            try:
                check_renewal_grid(cfg.params().nu, cfg.grid_step)
            except ValueError as exc:
                return f"argument --control-windows {args.control_windows}: {exc}"
    if args.command == "moments":
        try:
            horizon_records(cfg.horizon, cfg.dt, cfg.grid_step, 10)
        except ValueError as exc:
            return f"run.horizon {cfg.horizon}: {exc}"
    if args.command == "ergodicity":
        for flag, horizon, skip, check in (
                ("--ep-horizon", args.ep_horizon, args.skip_eproperty, check_eproperty_horizon),
                ("--invariant-horizon", args.invariant_horizon, args.skip_invariant,
                 check_invariant_horizon)):
            try:
                grid_cells(horizon, cfg.grid_step)
            except ValueError as exc:
                return f"argument {flag} {horizon}: {exc} {cfg.grid_step}"
            try:
                if not skip:
                    check(horizon, cfg.dt, cfg.grid_step)
            except ValueError as exc:
                return f"argument {flag} {horizon}: {exc}"
        if args.radius is not None:
            try:
                horizon_records(cfg.horizon, cfg.dt, cfg.grid_step, 1)
            except ValueError as exc:
                return f"argument --radius {args.radius}: run.horizon {cfg.horizon}: {exc}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    error = _config_argument_error(cfg, args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = _outdir(cfg, args.out, args.command)
    print(f"{args.command}: config {cfg.digest[:12]} -> {out}")
    ok = _HANDLERS[args.command](cfg, out, args)
    print(f"{args.command}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1
