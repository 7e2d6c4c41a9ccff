"""Linearization machinery: tangent flow, adjoint transport, jump Gramian,
window control, and spectral-tail coupling diagnostics.

One integrator step at frozen base state U acts on a perturbation xi as
    M(U) xi = decay . xi + gain . D(U) xi,
    D(U) xi = -B(U, xi) - B(xi, U) + G xi,
the exact derivative of the deterministic substep (temperature kicks do not
depend on the state, so they drop out of the tangent). The tangent, its
adjoint and the second variation follow the one transform rule of the step
kernel, and read no symbol table and no raw transform of their own: the
base and the perturbations enter as `sp.physical_fields`, the tangent and
the second-variation source apply the one bilinear form B(a, b) + B(b, a),
whose two slots are one stacked `sp.masked_transform` of products summed
in one buffer, and the combine of both is the step's (`Stepper.combine`).
The adjoint runs the transposes of those two stages in reverse order: the
gains, `sp.masked_transform_transpose`, the six cotangent products written
into one (6, ...) buffer, then `sp.physical_fields_transpose`, with the
vorticity-slot weight zeta* carried through: the temperature slot's field
is divided by zeta* once, and the buoyancy term reads zeta* gain_w g i k1
from a table. So forward/backward duality holds to roundoff, the two
Gramian assemblies agree to machine precision, and a block of either makes
one stacked inverse and one stacked forward transform. Like the step, the
tangent and the adjoint run on blocks of `sp.block_rows(n)` rows
(`sp.blockwise`), which the calling thread and a pool sized by the
process's CPU affinity share.

Stacks of perturbations and costates are raw complex arrays in the half
storage of the spectral module, shape (batch, n, n//2+1), so the FFT work
is batched and no loop writes a k2 < 0 column; states enter a loop through
`stack_states` or `SpectralState.halves` and leave it through
`unstack_states` or `SpectralState.from_halves`. Every forward
sweep here is a hook on the stepping module's one forward loop `sweep`,
which advances the base with the one step kernel and applies the kicks of a
`KickSchedule`; each hook linearizes at the pre-step base that `sweep`
hands it. `flow_with_tangent` is the one forward tangent driver: the
Jacobian flow, the tail coupling, the duality check, the Gramian columns
and both kinds of control window are its lead rows, its jump columns or
both, and its on_step hook records a base path where one is needed. Only
the second variation, whose source couples two tangent rows, runs its own
hook. `adjoint_backward` is the one backward loop, on half stacks over a
stored base path; the adjoint Gramian seeds it straight from the basis
slot tables. Every jump column is sqrt(dl) alpha sigma_j, so nothing divides
by a clock mass, and both Gramian assemblies return one time-ordered factor.
The control experiment does no clock arithmetic: `noise` draws each path's
clock, cuts it into renewal windows and slices out each window's sub-path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .noise import ROLE_INIT, ROLE_SCRATCH, rng_stream, sample_renewal_noise
from .spectral import PhysicsParams, SpectralState
from .stepping import KickSchedule, Stepper, horizon_steps, simulate, sweep


# ---------------------------------------------------------------------------
# step linearization


def _rows(f, ndim: int):
    """The rows of a stack of fields, each with 1s prepended to its batch
    shape so that it broadcasts against fields of ndim axes."""
    return f.reshape(f.shape[:1] + (1,) * (ndim - f.ndim + 1) + f.shape[1:])


def _symmetric_B(f, g):
    """Both slots of B(a, b) + B(b, a), one stacked masked transform, from the
    `sp.physical_fields` f of a and g of b (their batch shapes broadcast).

    The slots are u . grad (x, y) + v . grad (w, theta), u the velocity
    (rows 0-1) and grad the gradient rows (2-5) of f, v and (x, y) those of
    g; their products add up in one (2, ...) buffer."""
    ndim = max(f.ndim, g.ndim) - 1
    f, g = _rows(f, ndim), _rows(g, ndim)
    prod = np.multiply(f[0], g[2::2])
    prod += f[1] * g[3::2]
    prod += g[0] * f[2::2]
    prod += g[1] * f[3::2]
    return sp.masked_transform(prod)


class Linearizer:
    """Tangent and adjoint of one step of a fixed Stepper."""

    def __init__(self, stepper: Stepper):
        self.stepper = stepper
        self.n = stepper.n
        self.zeta = stepper.params.zeta_star
        self.zeta_gain_buoyancy = self.zeta * stepper.gain_buoyancy    # the adjoint's G term

    def prepare(self, base):
        """The six physical fields of a base (w, t) in half storage, which
        each step at that base reuses."""
        return sp.physical_fields(*base)

    def tangent(self, prep, xw: np.ndarray, xt: np.ndarray):
        """One tangent step: M(U) xi, made in blocks of `sp.block_rows(n)` rows."""
        return sp.blockwise(lambda *block: self._tangent_block(prep, *block), xw, xt)

    def _tangent_block(self, prep, xw, xt, out_w, out_t) -> None:
        # the tangent step of one (rows, n, n//2+1) block, written into out_w and out_t
        self.stepper.combine(xw, xt, _symmetric_B(prep, sp.physical_fields(xw, xt)),
                             out_w, out_t)

    def adjoint(self, prep, rw: np.ndarray, rt: np.ndarray):
        """One adjoint step: M(U)* rho in the weighted state inner product,
        made in blocks of `sp.block_rows(n)` rows.

        Each block runs the tangent's stages transposed in reverse order:
        the gains, `sp.masked_transform_transpose` (one inverse transform),
        the transposed products, `sp.physical_fields_transpose` (one forward
        transform), then decay and buoyancy. The weight zeta* enters as
        1 / zeta* where the temperature slot feeds the vorticity slot's
        cotangents, one division of that slot's field per block, and as
        zeta* in the buoyancy table zeta* gain_w g i k1.
        """
        return sp.blockwise(lambda *block: self._adjoint_block(prep, *block), rw, rt)

    def _adjoint_block(self, prep, rw, rt, out_w, out_t) -> None:
        # the adjoint step of one (rows, n, n//2+1) block, written into out_w and out_t
        st = self.stepper
        gained = np.empty((2,) + rw.shape, np.complex128)
        np.multiply(st.gain_w, rw, out=gained[0])
        np.multiply(st.gain_t, rt, out=gained[1])
        p = sp.masked_transform_transpose(gained)
        prep = _rows(prep, p.ndim - 1)
        # the cotangents of the perturbation's fields (v1, v2, x1, x2, y1, y2)
        # in `sp.physical_fields`' order, in one buffer: the base velocity
        # times each slot, then the base gradients times both slots, which
        # feed the vorticity slot
        cot = np.empty((6,) + p.shape[1:])
        np.multiply(prep[:2], p[0], out=cot[2:4])
        np.multiply(prep[:2], p[1], out=cot[4:])
        p[1] /= self.zeta
        np.multiply(prep[2:4], p[0], out=cot[:2])
        cot[:2] += prep[4:] * p[1]
        fw, ft = sp.physical_fields_transpose(cot)
        np.multiply(st.decay_w, rw, out=out_w)
        out_w -= fw
        np.multiply(st.decay_t, rt, out=out_t)
        out_t -= ft
        out_t -= self.zeta_gain_buoyancy * rw


def stack_states(states) -> tuple[np.ndarray, np.ndarray]:
    """The (w, t) half stacks of a sequence of states."""
    return (sp.half(np.stack([s.w_hat for s in states])),
            sp.half(np.stack([s.theta_hat for s in states])))


def unstack_states(w: np.ndarray, t: np.ndarray) -> list[SpectralState]:
    """The states of (w, t) half stacks."""
    return [SpectralState.from_halves(w[i], t[i]) for i in range(w.shape[0])]


# ---------------------------------------------------------------------------
# forward sweeps


def flow_with_tangent(u0: SpectralState, n_steps: int, lin: Linearizer,
                      kicks: KickSchedule | None = None, lead=None,
                      increments: np.ndarray | None = None, on_step=None):
    """Advance the base state and a tangent stack in lockstep, the one
    forward tangent driver.

    kicks carries the base path's forcing (None: unforced). The stack holds
    the optional lead pair (w, t) of half stacks, which starts at step 0,
    then, when the clock increments are given, the jump columns
    J_{r, T} sqrt(dl) alpha sigma_j of every jump of kicks: the d columns of
    a cell with mass dl > 0 enter right after its kick and then ride the
    tangent flow. on_step(i, post, xw, xt) is called after step i
    completes, post the (w, t) base pair
    after its kick and xw, xt the stacks, whose columns not yet entered are
    zero. Returns (final base, xw, xt, masses): lead rows first, then d
    columns per jump in time order, and masses the dl of each jump.
    """
    jumps = {} if increments is None else kicks.jumps(increments)
    masses = [increments[c] for c in jumps.values()]
    d = kicks.slots.dim if jumps else 0
    n_lead = 0 if lead is None else len(lead[0])
    xw = np.zeros((n_lead + d * len(masses), lin.n, lin.n // 2 + 1), np.complex128)
    xt = np.zeros_like(xw)
    if lead is not None:
        xw[:n_lead], xt[:n_lead] = lead
    if jumps:
        sig = kicks.slots.scatter(np.eye(d)) + 0.0      # + 0.0: no -0.0 off the slots
    active = n_lead

    def hook(i, pre, post, cell):
        nonlocal active
        if active:
            prep = lin.prepare(pre)
            xw[:active], xt[:active] = lin.tangent(prep, xw[:active], xt[:active])
        if i in jumps:
            xt[active:active + d] = np.sqrt(increments[cell]) * sig
            active += d
        if on_step is not None:
            on_step(i, post, xw, xt)

    w, t = sweep(lin.stepper, *u0.halves(), n_steps, kicks, hook)
    return SpectralState.from_halves(w, t), xw, xt, masses


def jacobian_forward(u0: SpectralState, horizon: float, stepper: Stepper,
                     directions, model=None, path=None, dw=None):
    """Propagate perturbations through the flow started at u0.

    Returns the list J_{0,T} xi for xi in directions; the optional noise
    triple freezes a forcing realization into the base path.
    """
    n_steps = horizon_steps(horizon, stepper.dt)
    _, xw, xt, _ = flow_with_tangent(u0, n_steps, Linearizer(stepper),
                                     KickSchedule.along(path, stepper, n_steps, model, dw),
                                     lead=stack_states(directions))
    return unstack_states(xw, xt)


def adjoint_backward(bases, lin: Linearizer, rw: np.ndarray, rt: np.ndarray,
                     record_at=None):
    """Transport terminal costates, the half stacks (rw, rt), backward
    through a stored base path.

    bases is the list of per-step base states (length n_steps + 1).
    record_at(step_index, rw, rt) is called at loop entry for index j + 1
    (the costate there is K_{t_{j+1}, T}), and once more for index 0.
    Returns the costates at time 0 as half stacks.
    """
    n_steps = len(bases) - 1
    for j in range(n_steps - 1, -1, -1):
        if record_at is not None:
            record_at(j + 1, rw, rt)
        prep = lin.prepare(bases[j].halves())
        rw, rt = lin.adjoint(prep, rw, rt)
    if record_at is not None:
        record_at(0, rw, rt)
    return rw, rt


def second_variation(u0: SpectralState, horizon: float, stepper: Stepper,
                     phi: SpectralState, psi: SpectralState,
                     model=None, path=None, dw=None) -> SpectralState:
    """Second derivative of the discrete flow in the pair (phi, psi).

    Evolves the exact chain rule of the composed steps: the quadratic term
    contributes the constant bilinear form -B(a, b) - B(b, a) sourced by the
    two first variations, the same form the tangent applies to (U, xi), and
    the tangent's combine (`Stepper.combine`) with the two added.
    """
    lin = Linearizer(stepper)
    st = stepper
    n_steps = horizon_steps(horizon, st.dt)
    xw, xt = stack_states([phi, psi])
    jw = np.zeros_like(xw[0])
    jt = np.zeros_like(xt[0])

    def hook(i, pre, post, cell):
        nonlocal xw, xt, jw, jt
        prep = lin.prepare(pre)
        # source from the current first variations, rows 0 and 1 of one stack
        fields = sp.physical_fields(xw, xt)
        src = _symmetric_B(fields[:, 0], fields[:, 1])
        src += _symmetric_B(prep, sp.physical_fields(jw, jt))
        out = np.empty((2,) + jw.shape, np.complex128)
        st.combine(jw, jt, src, out[0], out[1])
        jw, jt = out
        xw, xt = lin.tangent(prep, xw, xt)

    sweep(st, *u0.halves(), n_steps, KickSchedule.along(path, st, n_steps, model, dw), hook)
    return SpectralState.from_halves(jw, jt)


# ---------------------------------------------------------------------------
# projection basis


@dataclass
class HNBasis:
    """Orthonormal trig basis of the finite-dimensional band |k| <= level.

    Elements are temperature-slot (sigma) and vorticity-slot (psi) fields,
    normalized in the weighted state inner product; element j is the pair of
    elements j of the slot tables w_slots and t_slots, one of scale 0.
    """

    n: int
    level: float
    params: PhysicsParams
    labels: list = field(init=False)
    w_slots: sp.TrigSlots = field(init=False)
    t_slots: sp.TrigSlots = field(init=False)

    def __post_init__(self) -> None:
        dirs = [(k, m) for k in sp.modes_in_ball(self.level) for m in (0, 1)]
        s_norm = 1.0 / np.sqrt(sp.TRIG_NORM_SQ)
        p_norm = 1.0 / np.sqrt(self.params.zeta_star * sp.TRIG_NORM_SQ)
        self.labels = [("sigma", k, m) for k, m in dirs] + [("psi", k, m) for k, m in dirs]
        self.w_slots = sp.trig_slots(self.n, tuple((k, m, 0.0) for k, m in dirs)
                                     + tuple((k, m, p_norm) for k, m in dirs))
        self.t_slots = sp.trig_slots(self.n, tuple((k, m, s_norm) for k, m in dirs)
                                     + tuple((k, m, 0.0) for k, m in dirs))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def coords(self, xw: np.ndarray, xt: np.ndarray) -> np.ndarray:
        """Weighted inner products of a half stack with every element."""
        return sp.slot_pairings(xw, xt, self.w_slots, self.t_slots, self.params)

    def sublevel_mask(self, level: float) -> np.ndarray:
        """Which elements lie in the band |k| <= level."""
        k = np.array([k for _, k, _ in self.labels]).reshape(-1, 2)
        return sp.in_ball(k[:, 0] ** 2 + k[:, 1] ** 2, level)


# ---------------------------------------------------------------------------
# jump Gramian


@dataclass
class GramianResult:
    """The jump Gramian M = F^T F on a basis band, and its factor F."""
    factor: np.ndarray        # F: the jump columns' band coordinates, d rows per jump, time order
    matrix: np.ndarray        # F^T F
    basis: HNBasis
    n_jumps: int
    degenerate: bool          # no jump mass in the window
    clock_mass: float


def _gramian(factor: np.ndarray, masses, basis: HNBasis) -> GramianResult:
    """The result of a time-ordered factor F and its jumps' clock masses."""
    return GramianResult(factor=factor, matrix=factor.T @ factor, basis=basis,
                         n_jumps=len(masses), degenerate=not masses,
                         clock_mass=float(sum(masses, 0.0)))


def malliavin_forward(u0: SpectralState, n_steps: int, stepper: Stepper,
                      model, path, dw: np.ndarray, basis: HNBasis) -> GramianResult:
    """Assemble the jump Gramian on the basis band by forward propagation:
    F holds the band coordinates of `flow_with_tangent`'s jump columns."""
    kicks = KickSchedule.along(path, stepper, n_steps, model, dw)
    _, xw, xt, masses = flow_with_tangent(u0, n_steps, Linearizer(stepper), kicks,
                                          increments=path.increments)
    return _gramian(basis.coords(xw, xt), masses, basis)


def malliavin_backward(bases, stepper: Stepper, model, path,
                       basis: HNBasis) -> GramianResult:
    """Assemble the same Gramian by one adjoint sweep of the basis stack,
    which records F's rows last jump first."""
    kicks = KickSchedule(path.spec.grid_step, stepper.dt, len(path.increments), len(bases) - 1)
    slots = model.slots(stepper.n)
    jump_steps = {i + 1: c for i, c in kicks.jumps(path.increments).items()}
    rows = []

    def record(idx, rw, rt):
        if idx in jump_steps:
            dl = path.increments[jump_steps[idx]]
            # <K e_a, (0, sqrt(dl) alpha sigma_j)>, one row per direction j
            pair = sp.slot_pairings(rw, rt, None, slots, stepper.params).T
            rows.append(np.sqrt(dl) * pair)

    # the basis stack, seeded from the slot tables; + 0.0: the other
    # elements' slots hold 0 * v, -0.0 for negative v
    eye = np.eye(basis.dim)
    adjoint_backward(bases, Linearizer(stepper), basis.w_slots.scatter(eye) + 0.0,
                     basis.t_slots.scatter(eye) + 0.0, record_at=record)
    return _gramian(np.concatenate([np.zeros((0, basis.dim))] + rows[::-1]),
                    [path.increments[c] for c in jump_steps.values()], basis)


# ---------------------------------------------------------------------------
# constrained smallest eigenvalue


@dataclass
class EigenProbe:
    lower: float              # certified lower bound on the constrained minimum
    upper: float              # value of a feasible candidate
    unconstrained: float
    mu: float
    boundary_gap: float       # | |P v(mu)| - alpha | at the returned mu
    active: bool              # constraint active (unconstrained minimizer infeasible)


def min_eigen_probe(matrix: np.ndarray, p_mask: np.ndarray, alpha: float) -> EigenProbe:
    """Minimize <M phi, phi> over unit phi with |P phi| >= alpha.

    P is the coordinate projection onto p_mask. If the unconstrained minimal
    eigenvector is feasible the problem is closed. Otherwise the minimum sits
    on the boundary |P phi| = alpha; every multiplier mu >= 0 gives the lower
    bound lambda_min(M - mu P) + mu alpha^2, and the multiplier is bisected
    until the eigenvector's P-mass matches alpha within 1e-3, for at most
    200 halvings, or until the bracket reaches roundoff width. Feasible
    candidates rebalanced onto the boundary supply the matching upper bound,
    which stays informative even when an eigenvalue crossing makes the
    P-mass jump past alpha; every unit vector inside the P block is feasible
    too, so the block's least eigenvalue is a candidate as well. Each
    multiplier is decomposed once: the closing evaluation repeats the last
    bisection point or an endpoint, and reads it back.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("boundary fraction must sit in (0, 1]")
    if not p_mask.any():
        raise ValueError("empty projection block")
    sym = 0.5 * (matrix + matrix.T)
    p = p_mask.astype(float)
    beta_q = np.sqrt(max(0.0, 1.0 - alpha**2))
    evaluated = {}

    def eig_min(mu):
        if mu not in evaluated:
            vals, vecs = np.linalg.eigh(sym - mu * np.diag(p))
            v = vecs[:, 0].copy()       # a view would keep all of vecs alive
            evaluated[mu] = float(vals[0]), v, float(np.linalg.norm(v * p))
        return evaluated[mu]

    def rebalance(vp, vq):
        npv, nqv = np.linalg.norm(vp), np.linalg.norm(vq)
        if npv <= 1e-14:
            return None
        cand = (alpha / npv) * vp
        if nqv > 1e-14:
            cand = cand + (beta_q / nqv) * vq
        cand = cand / np.linalg.norm(cand)
        return float(cand @ sym @ cand)

    lam0, v0, pm0 = eig_min(0.0)
    if pm0 >= alpha:
        return EigenProbe(lower=lam0, upper=lam0, unconstrained=lam0,
                          mu=0.0, boundary_gap=0.0, active=False)

    best_lower = lam0          # mu = 0 bound, valid since alpha <= 1
    # grow an upper bracket: large mu pushes the minimizer into the P block
    mu_hi = max(1e-12, abs(float(np.trace(sym))) / sym.shape[0])
    v_hi = None
    for _ in range(200):
        lam, v, pm = eig_min(mu_hi)
        best_lower = max(best_lower, lam + mu_hi * alpha**2)
        if pm >= alpha:
            v_hi = v
            break
        mu_hi *= 2.0
    mu_lo, v_lo = 0.0, v0
    mu, pm = mu_hi, pm0
    for _ in range(200):
        mu = 0.5 * (mu_lo + mu_hi)
        if mu == mu_lo or mu == mu_hi:
            break       # roundoff width: every later halving repeats this mu
        lam, v, pm = eig_min(mu)
        best_lower = max(best_lower, lam + mu * alpha**2)
        if abs(pm - alpha) <= 1e-3:
            break
        if pm < alpha:
            mu_lo, v_lo = mu, v
        else:
            mu_hi, v_hi = mu, v
    lam, v, pm = eig_min(mu)
    best_lower = max(best_lower, lam + mu * alpha**2)

    uppers = [float(np.linalg.eigvalsh(sym[np.ix_(p_mask, p_mask)])[0])]
    cand = rebalance(v * p, v - v * p)
    if cand is not None:
        uppers.append(cand)
    if v_hi is not None and v_lo is not None:
        cand = rebalance(v_hi * p, v_lo - v_lo * p)
        if cand is not None:
            uppers.append(cand)
    upper = min(uppers)
    return EigenProbe(lower=float(best_lower), upper=float(upper),
                      unconstrained=lam0, mu=float(mu),
                      boundary_gap=float(abs(pm - alpha)), active=True)


# ---------------------------------------------------------------------------
# window control


@dataclass
class ControlWindow:
    rho_out: SpectralState
    base_out: SpectralState
    recursion_residual: float      # relative gap between integrated and closed forms
    v_norm_sq: float               # |v|^2, v the control on the jump columns
    n_jumps: int
    degenerate: bool
    beta: float


def control_window(rho_in: SpectralState, u0: SpectralState, n_steps: int,
                   stepper: Stepper, model, path, dw: np.ndarray,
                   beta: float | None = None, controlled: bool = True) -> ControlWindow:
    """Advance the costate over one window, optionally with Tikhonov control.

    Controlled windows damp rho by the regularized Gramian inversion on the
    q jump columns C of `flow_with_tangent`: J rho - C v, with the control
    v = C* phi, must coincide with beta phi = beta (C C* + beta)^{-1} J rho,
    a residual check. Free windows transport rho by the plain tangent flow.
    beta = None picks 1e-4 of the mean column mass trace(C* C) / q.
    """
    kicks = KickSchedule.along(path, stepper, n_steps, model, dw)
    n_jumps = len(kicks.jumps(path.increments))
    q = n_jumps * model.dim
    controlled = controlled and q > 0
    # propagate rho, and in a controlled window all jump columns with it
    base, xw, xt, _ = flow_with_tangent(
        u0, n_steps, Linearizer(stepper), kicks, lead=stack_states([rho_in]),
        increments=path.increments if controlled else None)
    if not controlled:
        return ControlWindow(rho_out=SpectralState.from_halves(xw[0], xt[0]), base_out=base,
                             recursion_residual=0.0, v_norm_sq=0.0,
                             n_jumps=n_jumps, degenerate=(q == 0), beta=0.0)

    y_w, y_t = xw[0], xt[0]                  # J rho
    cw, ct = xw[1:], xt[1:]                  # the jump columns C

    params = stepper.params
    gram = sp.pairings(cw, ct, cw, ct, params)
    if beta is None:
        beta = max(1e-300, 1e-4 * float(np.trace(gram)) / q)
    rhs = sp.pairings(y_w, y_t, cw, ct, params)
    # phi = (beta + C C*)^{-1} y via the factored identity
    lam = np.linalg.solve(beta * np.eye(q) + gram, rhs)
    phi_w = (y_w - np.tensordot(lam, cw, axes=([0], [0]))) / beta
    phi_t = (y_t - np.tensordot(lam, ct, axes=([0], [0]))) / beta
    v = sp.pairings(phi_w, phi_t, cw, ct, params)   # v_k = <phi, column_k>

    # integrated costate: J rho - sum_k v_k column_k
    rho_w = y_w - np.tensordot(v, cw, axes=([0], [0]))
    rho_t = y_t - np.tensordot(v, ct, axes=([0], [0]))
    # closed form: beta (M + beta)^{-1} J rho = beta phi
    close_w = beta * phi_w
    close_t = beta * phi_t
    num = np.sqrt(sp.weighted_energy(rho_w - close_w, rho_t - close_t, params))
    den = np.sqrt(sp.weighted_energy(rho_w, rho_t, params))
    resid = float(num / max(den, 1e-300))
    return ControlWindow(rho_out=SpectralState.from_halves(rho_w, rho_t), base_out=base,
                         recursion_residual=resid, v_norm_sq=float(np.sum(v * v)),
                         n_jumps=n_jumps, degenerate=False, beta=float(beta))


@dataclass
class ControlDecayResult:
    edge_steps: list            # per path: window edges in step units
    rho_norms: np.ndarray       # (n_paths, n_windows + 1) costate norms at edges
    residual_max: float
    n_degenerate: int           # controlled windows without jump mass


def control_experiment(seed: int, n_paths: int, n_windows: int, stepper: Stepper,
                       spec, model, kappa: float, amplitude: float = 1.0) -> ControlDecayResult:
    """Alternate controlled and free windows of stepper along renewal times of
    the clock.

    Path i runs on the noise and the window edges of `sample_renewal_noise`
    (seed, i): the clock-penalized renewal times rounded up onto the clock
    grid. Even windows apply the Tikhonov control at `control_window`'s
    default beta, odd windows run free. Records the costate norm at every
    edge across independent paths. Raises RuntimeError when the clock cannot
    be drawn long enough for the windows.
    """
    n, params = stepper.n, stepper.params
    q = KickSchedule.steps_per_cell(spec.grid_step, stepper.dt)

    edge_steps_all = []
    norms = np.full((n_paths, n_windows + 1), np.nan)
    residual_max = 0.0
    n_degen = 0
    for i in range(n_paths):
        path, dw, edges = sample_renewal_noise(spec, model, params.nu, kappa, n_windows, seed, i)
        edge_steps_all.append([e * q for e in edges])

        init_rng = rng_stream(seed, ROLE_INIT, i)
        base = sp.random_state(n, init_rng, amplitude=amplitude)
        rho_rng = rng_stream(seed, ROLE_SCRATCH, i)
        rho = sp.random_state(n, rho_rng, amplitude=1.0)
        nrm = sp.weighted_norm(rho, params)
        rho = SpectralState(rho.w_hat / nrm, rho.theta_hat / nrm)
        norms[i, 0] = 1.0
        for w in range(n_windows):
            c0, c1 = edges[w], edges[w + 1]
            res = control_window(rho, base, (c1 - c0) * q, stepper, model, path.window(c0, c1),
                                 dw[c0:c1], controlled=(w % 2 == 0))
            if w % 2 == 0 and res.degenerate:
                n_degen += 1
            residual_max = max(residual_max, res.recursion_residual)
            rho, base = res.rho_out, res.base_out
            norms[i, w + 1] = sp.weighted_norm(rho, params)
    return ControlDecayResult(edge_steps=edge_steps_all, rho_norms=norms,
                              residual_max=residual_max, n_degenerate=n_degen)


# ---------------------------------------------------------------------------
# finite-difference cross checks


def _flow(u0, horizon, stepper, model=None, path=None, dw=None):
    traj = simulate(u0, horizon, stepper, model=model, path=path, dw=dw)
    if traj.blew_up:
        raise RuntimeError("base flow left the norm ceiling during a check")
    return traj.final


def jacobian_fd_check(u0: SpectralState, horizon: float, stepper: Stepper,
                      directions, eps: float = 1e-6,
                      model=None, path=None, dw=None) -> float:
    """Largest relative gap between J xi and a one-sided difference quotient."""
    tangents = jacobian_forward(u0, horizon, stepper, directions,
                                model=model, path=path, dw=dw)
    center = _flow(u0, horizon, stepper, model=model, path=path, dw=dw)
    p = stepper.params
    worst = 0.0
    for xi, jx in zip(directions, tangents):
        bumped = SpectralState(u0.w_hat + eps * xi.w_hat, u0.theta_hat + eps * xi.theta_hat)
        shifted = _flow(bumped, horizon, stepper, model=model, path=path, dw=dw)
        fd = SpectralState((shifted.w_hat - center.w_hat) / eps,
                           (shifted.theta_hat - center.theta_hat) / eps)
        gap = sp.weighted_norm(fd - jx, p) / max(sp.weighted_norm(jx, p), 1e-300)
        worst = max(worst, float(gap))
    return worst


def second_variation_fd_check(u0: SpectralState, horizon: float, stepper: Stepper,
                              phi: SpectralState, psi: SpectralState) -> float:
    """Relative gap between the noise-free second variation and a mixed
    second difference of step 1e-4."""
    j2 = second_variation(u0, horizon, stepper, phi, psi)
    p = stepper.params
    eps = 1e-4

    def at(a, b):
        bumped = SpectralState(u0.w_hat + a * phi.w_hat + b * psi.w_hat,
                               u0.theta_hat + a * phi.theta_hat + b * psi.theta_hat)
        return _flow(bumped, horizon, stepper)

    fpp = at(eps, eps)
    fp0 = at(eps, 0.0)
    f0p = at(0.0, eps)
    f00 = at(0.0, 0.0)
    fd = SpectralState((fpp.w_hat - fp0.w_hat - f0p.w_hat + f00.w_hat) / eps**2,
                       (fpp.theta_hat - fp0.theta_hat - f0p.theta_hat + f00.theta_hat) / eps**2)
    return float(sp.weighted_norm(fd - j2, p) / max(sp.weighted_norm(j2, p), 1e-300))


def duality_gap(u0: SpectralState, horizon: float, stepper: Stepper,
                xi: SpectralState, phi: SpectralState,
                model=None, path=None, dw=None) -> float:
    """Relative gap of <J xi, phi> against <xi, K phi> on one window."""
    lin = Linearizer(stepper)
    n_steps = horizon_steps(horizon, stepper.dt)
    bases = [u0.copy()]
    _, xw, xt, _ = flow_with_tangent(
        u0, n_steps, lin, KickSchedule.along(path, stepper, n_steps, model, dw),
        lead=stack_states([xi]),
        on_step=lambda i, post, *_: bases.append(SpectralState.from_halves(*post)))
    rw, rt = adjoint_backward(bases, lin, *stack_states([phi]))
    p = stepper.params
    fwd = sp.state_dot(SpectralState.from_halves(xw[0], xt[0]), phi, p)
    bwd = sp.state_dot(xi, SpectralState.from_halves(rw[0], rt[0]), p)
    scale = max(abs(fwd), abs(bwd), 1e-300)
    return float(abs(fwd - bwd) / scale)


# ---------------------------------------------------------------------------
# spectral-tail coupling


@dataclass
class TailCoupling:
    level: int
    times: np.ndarray
    tail_sq: np.ndarray       # |Q_N J xi|^2, xi seeded in the tail band
    band_sq: np.ndarray       # |P_N J xi|^2, grows from zero


def tail_coupling_series(u0: SpectralState, horizon: float, stepper: Stepper,
                         levels, seed_rng, model=None, path=None, dw=None) -> list[TailCoupling]:
    """Track tail and band energy of tangent vectors seeded beyond each level.

    One unit-norm perturbation per level, supported where |k| > level, is
    propagated along a common base path; the split energies over time are the
    raw material for the dissipation-envelope checks.
    """
    p = stepper.params
    n_steps = horizon_steps(horizon, stepper.dt)
    seeds = []
    for lv in levels:
        raw = sp.random_state(stepper.n, seed_rng, decay=1.0)
        tail = raw - sp.project_PN(raw, lv)
        nrm = sp.weighted_norm(tail, p)
        if nrm <= 0.0:
            raise ValueError("no tail modes available beyond level %r at n=%d" % (lv, stepper.n))
        seeds.append(SpectralState(tail.w_hat / nrm, tail.theta_hat / nrm))
    xw, xt = stack_states(seeds)
    times = np.empty(n_steps + 1)
    tail_sq = np.empty((len(seeds), n_steps + 1))
    band_sq = np.empty((len(seeds), n_steps + 1))

    masks = [sp.half(sp.pn_mask(stepper.n, lv)) for lv in levels]

    def split(j, w, t):
        tot = sp.weighted_energy(w, t, p)
        for a, m in enumerate(masks):
            bnd = float(sp.weighted_norms(np.where(m, w[a], 0.0), np.where(m, t[a], 0.0), p)) ** 2
            band_sq[a, j] = bnd
            tail_sq[a, j] = max(tot[a] - bnd, 0.0)

    split(0, xw, xt)
    times[0] = 0.0

    def on_step(i, base, w, t):
        split(i + 1, w, t)
        times[i + 1] = (i + 1) * stepper.dt

    flow_with_tangent(u0, n_steps, Linearizer(stepper),
                      KickSchedule.along(path, stepper, n_steps, model, dw), lead=(xw, xt),
                      on_step=on_step)
    return [TailCoupling(level=int(lv), times=times.copy(),
                         tail_sq=tail_sq[a].copy(), band_sq=band_sq[a].copy())
            for a, lv in enumerate(levels)]


def fit_tail_envelope(series: TailCoupling, nu: float) -> float:
    """Smallest floor constant: max_t (tail(t) - e^{-nu N^2 t}) sqrt(N)."""
    env = np.exp(-nu * series.level**2 * series.times)
    gap = series.tail_sq - env
    return float(max(0.0, gap.max()) * np.sqrt(series.level))
