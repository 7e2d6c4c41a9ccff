"""Bracket algebra of the forced directions and the reachability construction.

Vector fields here are maps H -> H evaluated through the spectral operators;
the bracket of two differentiable fields is
    [E1, E2](U) = grad E2(U) E1(U) - grad E1(U) E2(U).
The forced temperature elements are constant fields, so bracketing them twice
against the drift produces first the affine fields Y and then the quadratic
fields Z; bracketing Z against a constant temperature element collapses to an
exact rational combination of two trig elements. That combination is carried
symbolically (Fractions, in units of the buoyancy constant) and every
symbolic step can be replayed against the spectral operators on a grid.

The operator layer derives every field from the drift `sp.drift_F` and its
derivative `grad_drift` by the chain rule: Y = -DF sigma, Z = [F, Y] and
its derivative grad_z. Only the bracket [Z, sigma] keeps a closed form, two
products c B(psi, sigma) of trig elements (`z_sigma_terms`), which the tests
tie to -grad_z sigma. `bracket_fields` evaluates them for a stack of
brackets with one stacked transform each way: one bracket for
`bracket_z_sigma_field`, a block of checks for the grid replay of a span
log (`verify_span`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectral as sp
from .spectral import PhysicsParams, SpectralState

Mode = tuple[int, int]
REPLAY_BLOCK = 8        # checks per stacked block of the grid replay (`verify_span`)


def perp_dot(j: Mode, k: Mode) -> int:
    """j-perp dot k with j-perp = (-j2, j1)."""
    return j[0] * k[1] - j[1] * k[0]


def norm_sq(j: Mode) -> int:
    return j[0] * j[0] + j[1] * j[1]


def coeff_a(j: Mode, k: Mode) -> Fraction:
    """j1/|j|^2 + k1/|k|^2, exactly."""
    return Fraction(j[0], norm_sq(j)) + Fraction(k[0], norm_sq(k))


def coeff_b(j: Mode, k: Mode) -> Fraction:
    """j1/|j|^2 - k1/|k|^2, exactly."""
    return Fraction(j[0], norm_sq(j)) - Fraction(k[0], norm_sq(k))


# ---------------------------------------------------------------------------
# symbolic layer


def bracket_z_sigma(j: Mode, m: int, k: Mode, mp: int) -> dict:
    """Expansion of [Z_j^m(U), sigma_k^{m'}] over canonical trig elements.

    The result maps (mode, parity) to an exact Fraction coefficient in units
    of the buoyancy constant; the field is independent of U. Zero modes are
    dropped: the constant function and sin 0 lie outside the state space.
    The overall sign is fixed against the operator evaluation of the same
    bracket (see bracket_z_sigma_field), which central differences confirm.
    """
    sign = -1 if (m + 1) * (mp + 1) % 2 == 0 else 1
    pref = Fraction(perp_dot(j, k), 2) * sign
    par = (m + mp + 1) % 2
    out: dict = {}
    for mode, coef in (((j[0] - k[0], j[1] - k[1]), pref * coeff_b(j, k) * (1 if mp == 0 else -1)),
                       ((j[0] + k[0], j[1] + k[1]), -pref * coeff_a(j, k))):
        if mode != (0, 0):
            kc, mc, s = sp.canonicalize(mode, par)
            combo_add(out, {(kc, mc): s * coef})
    return out


def combo_add(target: dict, combo: dict, factor: int = 1) -> None:
    for key, coef in combo.items():
        got = target.get(key, Fraction(0)) + factor * coef
        if got:
            target[key] = got
        else:
            target.pop(key, None)


def combo_pieces(kind: str, parity: int) -> list:
    """Signed (m, m') selections whose bracket sum isolates one element.

    Summing factor * [Z_j^m(U), sigma_k^{m'}] over the returned pieces gives
    (jperp.k) a(j,k) g sigma_{j+k}^parity for pair-sum and the b-coefficient
    analogue at j - k for pair-difference; everything else cancels.
    """
    table = {
        ("pair-sum", 0): [((0, 1), 1), ((1, 0), 1)],
        ("pair-sum", 1): [((1, 1), 1), ((0, 0), -1)],
        ("pair-difference", 0): [((0, 1), 1), ((1, 0), -1)],
        ("pair-difference", 1): [((0, 0), 1), ((1, 1), 1)],
    }
    return table[(kind, parity)]


def pair_combo(j: Mode, k: Mode, kind: str, parity: int) -> dict:
    """Symbolic evaluation of the isolating combination for a mode pair."""
    out: dict = {}
    for (m, mp), fac in combo_pieces(kind, parity):
        combo_add(out, bracket_z_sigma(j, m, k, mp), fac)
    return out


def combo_state(combo: dict, n: int, g: float = 1.0) -> SpectralState:
    """Grid realization of a symbolic combination (coefficients times g)."""
    out = sp.state_zeros(n)
    for (mode, parity), coef in combo.items():
        out = out + sp.sigma_state(n, mode, parity) * (g * float(coef))
    return out


# ---------------------------------------------------------------------------
# operator layer


def grad_drift(state: SpectralState, xi: SpectralState, params: PhysicsParams) -> SpectralState:
    """Derivative of the drift at the state, applied to xi."""
    return (sp.apply_G(xi, params) - sp.apply_A(xi, params)
            - sp.nonlinear_B(state, xi) - sp.nonlinear_B(xi, state))


def y_field(j: Mode, m: int, state: SpectralState, params: PhysicsParams) -> SpectralState:
    """First bracket against the drift, [F, sigma](U) = -DF(U) sigma: affine in U."""
    return -grad_drift(state, sp.sigma_state(state.n, j, m), params)


def z_field(j: Mode, m: int, state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Second bracket against the drift, [F, Y](U) = DY(U) F(U) - DF(U) Y(U).

    DY(U) xi = B(xi, sigma): the other term B(sigma, xi) vanishes, since sigma
    carries no vorticity.
    """
    s = sp.sigma_state(state.n, j, m)
    return (sp.nonlinear_B(sp.drift_F(state, params), s)
            - grad_drift(state, y_field(j, m, state, params), params))


def grad_z(j: Mode, m: int, state: SpectralState, xi: SpectralState,
           params: PhysicsParams) -> SpectralState:
    """Derivative of the quadratic field at the state, applied to xi.

    The chain rule of z_field with D^2 F(U)[a, b] = -B(a, b) - B(b, a):
        DZ(U) xi = B(DF(U) xi, sigma) + B(xi, Y) + B(Y, xi) - DF(U) B(xi, sigma).
    """
    s = sp.sigma_state(state.n, j, m)
    y = y_field(j, m, state, params)
    return (sp.nonlinear_B(grad_drift(state, xi, params), s)
            + sp.nonlinear_B(xi, y) + sp.nonlinear_B(y, xi)
            - grad_drift(state, sp.nonlinear_B(xi, s), params))


def z_sigma_terms(j: Mode, m: int, k: Mode, mp: int, g: float):
    """The closed form of [Z_j^m(U), sigma_k^{m'}] = -DZ(U) sigma_k: the sum of
    c B(psi, sigma) over its two (psi, sigma, c) terms, each element a
    (mode, parity) pair; constant in U."""
    sgn_k = 1.0 if mp % 2 == 0 else -1.0
    sgn_j = -1.0 if m % 2 == 0 else 1.0
    return (((k, (mp + 1) % 2), (j, m), sgn_k * g * k[0]),
            ((j, (m + 1) % 2), (k, mp), sgn_j * g * j[0]))


def bracket_z_sigma_field(j: Mode, m: int, k: Mode, mp: int, n: int,
                          params: PhysicsParams) -> SpectralState:
    """[Z_j^m(U), sigma_k^{m'}] = -DZ(U) sigma_k in closed form; constant in U.

    The operator reference of the symbolic layer, kept apart from grad_z
    because it needs two products only: the one-bracket stack of
    `bracket_fields`.
    """
    fw, ft = bracket_fields([(j, m, k, mp)], n, params)
    return SpectralState.from_halves(fw[0], ft[0])


def bracket_fields(brackets, n: int, params: PhysicsParams):
    """The (w, theta) half stacks (len(brackets), n, n//2+1) of the brackets
    [Z_j^m, sigma_k^{m'}] of a sequence of (j, m, k, mp).

    Every distinct trig element of their terms (`z_sigma_terms`) enters one
    stacked `sp.physical_fields`, and every product one stacked
    `sp.transport`; each bracket then adds its two products times their
    coefficients.
    """
    elements: dict = {}         # (slot, mode, parity) -> row; slot 0 psi, 1 sigma
    terms = [z_sigma_terms(j, m, k, mp, params.g) for j, m, k, mp in brackets]
    rows = [(elements.setdefault((0,) + psi, len(elements)),
             elements.setdefault((1,) + sig, len(elements)))
            for pair in terms for psi, sig, _ in pair]
    c = n // 2 + 1
    pair = np.empty((2, len(elements), n, c), np.complex128)     # (w, theta) per element
    for (slot, mode, parity), row in elements.items():
        pair[:, row] = (sp.psi_state if slot == 0 else sp.sigma_state)(n, mode, parity).halves()
    f = sp.physical_fields(pair[0], pair[1])
    psi, sig = zip(*rows)
    prod = sp.transport(f[:2, list(psi)], f[2:, list(sig)])
    out = np.empty((2, len(terms), n, c), np.complex128)
    for i, ((_, _, c1), (_, _, c2)) in enumerate(terms):
        out[:, i] = prod[:, 2 * i] * c1 + prod[:, 2 * i + 1] * c2
    return out[0], out[1]


def bracket_zy_field(j: Mode, m: int, k: Mode, mp: int, state: SpectralState,
                     params: PhysicsParams) -> SpectralState:
    """[Z_j^m(U), Y_k^{m'}(U)] through exact derivatives of both fields."""
    z = z_field(j, m, state, params)
    y = y_field(k, mp, state, params)
    s_k = sp.sigma_state(state.n, k, mp)
    return sp.nonlinear_B(z, s_k) - grad_z(j, m, state, y, params)


def numerical_lie_bracket(e1, e2, state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Central-difference bracket of two callables at step 1e-4, Richardson refined."""
    eps = 1e-4

    def directional(fun, v: SpectralState) -> SpectralState:
        nv = sp.weighted_norm(v, params)
        if nv == 0.0:
            return sp.state_zeros(state.n)

        def diff(h: float) -> SpectralState:
            plus = fun(state + v * (h / nv))
            minus = fun(state - v * (h / nv))
            return (plus - minus) * (nv / (2.0 * h))

        d1 = diff(eps)
        d2 = diff(0.5 * eps)
        return (d2 * 4.0 - d1) * (1.0 / 3.0)

    v1 = e1(state)
    v2 = e2(state)
    return directional(e2, v1) - directional(e1, v2)


# ---------------------------------------------------------------------------
# recovery of vorticity directions


def psi_recovery(j: Mode, m: int, state: SpectralState,
                 params: PhysicsParams) -> tuple[SpectralState, str]:
    """Reconstruct psi_j^m from reachable fields evaluated at the state.

    Columns with j1 != 0 solve the buoyancy coupling inside Y_j^{m+1}; the
    sign differs from the j1 != 0 display of the source identity, which drops
    a minus when moving the psi term across (checked exactly in the tests).
    Axis columns (j1 = 0) come from the vorticity part of two Z-Y brackets
    one column over; their temperature parts cancel against the affine error
    terms, so only the vorticity slot is kept.
    """
    n = state.n
    g = params.g
    if j[0] != 0:
        sgn = 1.0 if m % 2 == 0 else -1.0
        s_next = sp.sigma_state(n, j, (m + 1) % 2)
        err = (s_next * (sgn * params.nu2 * norm_sq(j) / (g * j[0]))
               + sp.nonlinear_B(state, s_next) * (sgn / (g * j[0])))
        out = err - y_field(j, (m + 1) % 2, state, params) * (sgn / (g * j[0]))
        return out, "buoyancy-solve"
    jp = (1, j[1])
    e1 = (1, 0)
    pref = (1.0 + norm_sq(j)) / (g * g * float(norm_sq(j)) ** 1.5)
    if m == 0:
        comb = (bracket_zy_field(jp, 0, e1, 0, state, params)
                + bracket_zy_field(jp, 1, e1, 1, state, params))
    else:
        comb = (bracket_zy_field(jp, 1, e1, 0, state, params)
                - bracket_zy_field(jp, 0, e1, 1, state, params))
    w_only = SpectralState(comb.w_hat * pref, np.zeros((n, n), np.complex128))
    return w_only, "axis-bracket"


# ---------------------------------------------------------------------------
# induction targets and reachability closure


def induction_set(level: int) -> list[Mode]:
    """Canonical target modes at the given induction level.

    The diamond |j1| + |j2| <= level + 1 minus the four axis modes at radii
    level and level + 1.
    """
    if level < 1:
        raise ValueError("level starts at 1")
    drop = {(0, level), (0, level + 1), (level, 0), (level + 1, 0)}
    out = []
    for j1 in range(0, level + 2):
        for j2 in range(-(level + 1 - j1), level + 2 - j1):
            mode = (j1, j2)
            if not sp.is_canonical(mode) or mode in drop:
                continue
            out.append(mode)
    out.sort(key=lambda k: (norm_sq(k), k))
    return out


@dataclass(frozen=True)
class Derivation:
    kind: str                     # forced | pair-sum | pair-difference
    parents: tuple[Mode, Mode] | None
    prefactor: Fraction | None    # units of g; nonzero certifies the step
    depth: int


@dataclass
class SpanResult:
    zset: tuple[Mode, ...]
    level: int
    reached: dict            # Mode -> Derivation
    targets: list
    missing: list
    psi_plan: dict           # Mode -> recovery branch label
    psi_missing: list
    success: bool

    def log_lines(self) -> list[str]:
        lines = [f"generators: {sorted(self.zset)}",
                 f"targets: induction level {self.level}, {len(self.targets)} modes"]
        for mode, der in sorted(self.reached.items(), key=lambda kv: (kv[1].depth, kv[0])):
            if der.kind == "forced":
                lines.append(f"{mode}: forced")
            else:
                lines.append(f"{mode}: {der.kind} of {der.parents[0]} and "
                             f"{der.parents[1]}, prefactor {der.prefactor} g, "
                             f"depth {der.depth}")
        for mode in sorted(self.psi_plan):
            lines.append(f"psi {mode}: {self.psi_plan[mode]}")
        if self.missing:
            lines.append(f"unreached: {sorted(self.missing)}")
        if self.psi_missing:
            lines.append(f"psi unreachable: {sorted(self.psi_missing)}")
        lines.append("PASS" if self.success else "FAIL")
        return lines

    def to_json(self) -> str:
        payload = {
            "generators": sorted(self.zset),
            "level": self.level,
            "success": self.success,
            "missing": sorted(self.missing),
            "psi_missing": sorted(self.psi_missing),
            "derivations": {
                f"{mode[0]},{mode[1]}": {
                    "kind": der.kind,
                    "parents": der.parents,
                    "prefactor": [der.prefactor.numerator, der.prefactor.denominator]
                    if der.prefactor is not None else None,
                    "depth": der.depth,
                }
                for mode, der in sorted(self.reached.items())
            },
            "psi_plan": {f"{m[0]},{m[1]}": br for m, br in sorted(self.psi_plan.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def span_generation(zset, level: int) -> SpanResult:
    """Close the reachable temperature modes under the pair brackets.

    Starting from the forced set, every ordered pair (j, k) of reached modes
    offers j + k when the modes are nonparallel and the a-coefficient is
    nonzero, and j - k (canonicalized) when the b-coefficient is nonzero.
    First derivation wins, breadth first, pairs scanned in sorted order, so
    the log is reproducible; a round scans only the pairs with a mode reached
    in the round before, since the others offered all they could then.
    Candidates keep |k1| + |k2| <= level + 2 plus the largest generator's.
    Vorticity coverage rides on the temperature result: off-axis modes solve
    through the buoyancy term, axis modes need the neighbor column one step
    to the right.
    """
    zset = tuple(sorted(tuple(int(c) for c in z) for z in zset))
    for z in zset:
        if not sp.is_canonical(z):
            raise ValueError(f"generator {z} must be canonical")
    max_norm1 = level + 2 + max(abs(z[0]) + abs(z[1]) for z in zset)

    reached: dict = {z: Derivation("forced", None, None, 0) for z in zset}
    frontier = set(zset)
    depth = 0
    while frontier:
        depth += 1
        known = sorted(reached)
        new_modes = set()
        for j in known:
            for k in known:
                # two modes known before the last round were paired in it
                if (j not in frontier and k not in frontier) or perp_dot(j, k) == 0:
                    continue
                for mode, kind, coeff in (((j[0] + k[0], j[1] + k[1]), "pair-sum", coeff_a),
                                          ((j[0] - k[0], j[1] - k[1]), "pair-difference",
                                           coeff_b)):
                    if mode == (0, 0):
                        continue
                    canon, _, _ = sp.canonicalize(mode, 0)
                    if canon in reached or abs(canon[0]) + abs(canon[1]) > max_norm1:
                        continue
                    c = coeff(j, k)
                    if c != 0:
                        reached[canon] = Derivation(kind, (j, k), Fraction(perp_dot(j, k)) * c,
                                                    depth)
                        new_modes.add(canon)
        frontier = new_modes

    targets = induction_set(level)
    missing = [m for m in targets if m not in reached]
    psi_plan, psi_missing = {}, []
    for mode in targets:
        if mode not in reached:
            psi_missing.append(mode)
        elif mode[0] != 0:
            psi_plan[mode] = "buoyancy-solve"
        elif (1, mode[1]) in reached and (1, 0) in reached:
            psi_plan[mode] = "axis-bracket"
        else:
            psi_missing.append(mode)
    success = not missing and not psi_missing
    return SpanResult(zset=zset, level=level, reached=reached, targets=targets,
                      missing=missing, psi_plan=psi_plan, psi_missing=psi_missing,
                      success=success)


def verify_span(result: SpanResult, params: PhysicsParams) -> dict:
    """Replay every derivation both symbolically and on the grid, and report.

    Each pair step should reduce, as an exact rational identity, to a single
    trig element with the recorded prefactor; `symbolic_mismatches` lists the
    (mode, parity) of every check whose isolating combination does not. The
    same combination of operator-evaluated bracket fields is compared with
    that recorded element on the grid, relative to its largest coefficient
    (floored at 1); `max_rel_err` is the worst. The grid is the least even n
    with 3 need < n, 12 at least, for the largest wavenumber need of the
    log, so every mode touched by a replayed product survives the 2/3
    dealiasing. The report holds no verdict: the caller bounds it.

    The checks, two per derivation (one per parity), run in blocks of
    REPLAY_BLOCK: one `bracket_fields` call evaluates the brackets of a
    block, and each check combines its own on the half storage, whose
    largest coefficient is the full array's. A block is streamed, so memory
    does not grow with the log.
    """
    need = max(max(abs(k[0]), abs(k[1])) for k in result.reached)
    n = max(3 * need + 1 + (3 * need + 1) % 2, 12)
    checks = [(mode, der, parity) for mode, der in sorted(result.reached.items())
              if der.kind != "forced" for parity in (0, 1)]
    mismatches = []
    max_err = 0.0
    for start in range(0, len(checks), REPLAY_BLOCK):
        block = checks[start:start + REPLAY_BLOCK]
        fw, ft = bracket_fields([(der.parents[0], m, der.parents[1], mp)
                                 for _, der, parity in block
                                 for (m, mp), _ in combo_pieces(der.kind, parity)], n, params)
        row = 0
        for mode, der, parity in block:
            j, k = der.parents
            sgn = 1 if der.kind == "pair-sum" else -1
            canon, mc, s = sp.canonicalize((j[0] + sgn * k[0], j[1] + sgn * k[1]), parity)
            coef = s * der.prefactor
            if pair_combo(j, k, der.kind, parity) != {(canon, mc): coef}:
                mismatches.append((mode, parity))
            field_w = field_t = 0.0
            for _, fac in combo_pieces(der.kind, parity):
                field_w = field_w + fw[row] * float(fac)
                field_t = field_t + ft[row] * float(fac)
                row += 1
            want_t = sp.sigma_state(n, canon, mc).halves()[1] * (params.g * float(coef))
            err = max(np.abs(field_t - want_t).max(), np.abs(field_w).max())
            max_err = max(max_err, err / max(np.abs(want_t).max(), 1.0))
    return {"grid": n, "checked": len(checks), "max_rel_err": max_err,
            "symbolic_mismatches": mismatches}
