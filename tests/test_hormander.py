"""Bracket algebra, recovery identities, and the reachability closure."""

import dataclasses
import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boussinesq_lab import hormander as hb
from boussinesq_lab import spectral as sp
from boussinesq_lab.spectral import PhysicsParams


PARAMS = PhysicsParams(nu1=1.3, nu2=0.7, g=1.9)


def state_gap(a, b):
    return max(np.abs(a.w_hat - b.w_hat).max(), np.abs(a.theta_hat - b.theta_hat).max())


def state_scale(a):
    return max(np.abs(a.w_hat).max(), np.abs(a.theta_hat).max(), 1.0)


@pytest.fixture(scope="module")
def base_state():
    rng = np.random.default_rng(41)
    return sp.random_state(32, rng, amplitude=0.8)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficient_values():
    assert hb.coeff_a((0, 1), (1, 0)) == 1
    assert hb.coeff_b((0, 1), (1, 0)) == -1
    assert hb.coeff_a((1, 1), (1, 0)) == Fraction(3, 2)
    assert hb.coeff_b((1, 1), (1, 0)) == Fraction(-1, 2)
    assert hb.perp_dot((0, 1), (1, 0)) == -1


nonzero_modes = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda k: k != (0, 0))


@given(j=nonzero_modes, k=nonzero_modes)
def test_coefficient_symmetries(j, k):
    assert hb.coeff_a(j, k) == hb.coeff_a(k, j)
    assert hb.coeff_b(j, k) == -hb.coeff_b(k, j)
    assert hb.perp_dot(j, k) == -hb.perp_dot(k, j)


@given(level=st.integers(1, 9))
def test_induction_set_shape(level):
    modes = hb.induction_set(level)
    assert len(modes) == len(set(modes))
    for mode in modes:
        assert sp.is_canonical(mode)
        assert abs(mode[0]) + abs(mode[1]) <= level + 1
    for axis in [(0, level), (0, level + 1), (level, 0), (level + 1, 0)]:
        assert axis not in modes


def test_induction_small_levels():
    assert hb.induction_set(1) == [(1, -1), (1, 1)]
    assert set(hb.induction_set(2)) == {(0, 1), (1, 0), (1, 1), (1, -1),
                                        (1, 2), (1, -2), (2, 1), (2, -1)}


# ---------------------------------------------------------------------------
# bracket fields against independent evaluations


def test_symbolic_bracket_matches_operator_field():
    n = 32
    cases = [((0, 1), 0, (1, 0), 0), ((1, 1), 1, (1, 0), 0),
             ((1, -2), 0, (0, 1), 1), ((2, 1), 1, (1, -1), 1)]
    for j, m, k, mp in cases:
        sym = hb.combo_state(hb.bracket_z_sigma(j, m, k, mp), n, PARAMS.g)
        op = hb.bracket_z_sigma_field(j, m, k, mp, n, PARAMS)
        assert state_gap(sym, op) <= 1e-13 * state_scale(op)


def test_hand_bracket_value():
    # advection of cos x2 by the flow of sin x1 lands on (g/2)(sin(x1+x2) - sin(x1-x2))
    combo = hb.bracket_z_sigma((0, 1), 0, (1, 0), 0)
    assert combo == {((1, 1), 1): Fraction(1, 2), ((1, -1), 1): Fraction(-1, 2)}


def test_parallel_modes_bracket_to_nothing():
    assert hb.bracket_z_sigma((1, 1), 0, (1, 1), 1) == {}
    assert hb.bracket_z_sigma((0, 2), 1, (0, 1), 0) == {}


def test_vanishing_difference_coefficient():
    # b((1,1),(1,-1)) = 0, so only the sum mode survives
    combo = hb.bracket_z_sigma((1, 1), 0, (1, -1), 0)
    assert set(combo) == {((2, 0), 1)}


def test_y_z_fields_at_rest():
    n = 32
    zero = sp.state_zeros(n)
    for j, m in [((1, 1), 0), ((1, -2), 1), ((0, 1), 0)]:
        jsq = hb.norm_sq(j)
        sgn = 1.0 if m % 2 == 0 else -1.0
        want_y = (sp.sigma_state(n, j, m) * (PARAMS.nu2 * jsq)
                  + sp.psi_state(n, j, (m + 1) % 2) * (sgn * PARAMS.g * j[0]))
        got_y = hb.y_field(j, m, zero, PARAMS)
        assert state_gap(got_y, want_y) <= 1e-12 * state_scale(want_y)
        want_z = (sp.sigma_state(n, j, m) * (PARAMS.nu2**2 * jsq * jsq)
                  + sp.psi_state(n, j, (m + 1) % 2)
                  * (sgn * (PARAMS.nu1 + PARAMS.nu2) * PARAMS.g * j[0] * jsq))
        got_z = hb.z_field(j, m, zero, PARAMS)
        assert state_gap(got_z, want_z) <= 1e-12 * state_scale(want_z)


def test_y_field_matches_numerical_bracket(base_state):
    j, m = (1, 1), 0
    drift = lambda s: sp.drift_F(s, PARAMS)
    sig = lambda s: sp.sigma_state(base_state.n, j, m)
    num = hb.numerical_lie_bracket(drift, sig, base_state, PARAMS)
    got = hb.y_field(j, m, base_state, PARAMS)
    assert state_gap(num, got) <= 1e-9 * state_scale(got)


def test_z_field_matches_numerical_bracket(base_state):
    j, m = (1, 1), 0
    drift = lambda s: sp.drift_F(s, PARAMS)
    yfun = lambda s: hb.y_field(j, m, s, PARAMS)
    num = hb.numerical_lie_bracket(drift, yfun, base_state, PARAMS)
    got = hb.z_field(j, m, base_state, PARAMS)
    assert state_gap(num, got) <= 1e-9 * state_scale(got)


def test_z_sigma_bracket_matches_numerical(base_state):
    j, m, k, mp = (1, 1), 0, (1, 0), 1
    zfun = lambda s: hb.z_field(j, m, s, PARAMS)
    sig = lambda s: sp.sigma_state(base_state.n, k, mp)
    num = hb.numerical_lie_bracket(zfun, sig, base_state, PARAMS)
    got = hb.bracket_z_sigma_field(j, m, k, mp, base_state.n, PARAMS)
    assert state_gap(num, got) <= 1e-9 * state_scale(got)


def test_zy_bracket_matches_numerical(base_state):
    j, m, k, mp = (1, 1), 0, (1, 0), 1
    zfun = lambda s: hb.z_field(j, m, s, PARAMS)
    yfun = lambda s: hb.y_field(k, mp, s, PARAMS)
    num = hb.numerical_lie_bracket(zfun, yfun, base_state, PARAMS)
    got = hb.bracket_zy_field(j, m, k, mp, base_state, PARAMS)
    assert state_gap(num, got) <= 1e-9 * state_scale(got)


@pytest.mark.parametrize("j, m, k, mp", [((0, 1), 0, (1, 0), 0), ((1, 1), 1, (1, 0), 1),
                                         ((1, 2), 0, (2, 1), 1), ((0, 2), 1, (1, 1), 0)])
def test_closed_form_z_sigma_bracket_is_minus_grad_z(base_state, j, m, k, mp):
    # [Z, sigma_k](U) = -DZ(U) sigma_k exactly, at any U; the pairs of `bqlab brackets`
    sig = sp.sigma_state(base_state.n, k, mp)
    got = hb.bracket_z_sigma_field(j, m, k, mp, base_state.n, PARAMS)
    want = -hb.grad_z(j, m, base_state, sig, PARAMS)
    assert sp.weighted_norm(got - want, PARAMS) <= 1e-12 * sp.weighted_norm(want, PARAMS)


def test_numerical_bracket_of_field_with_itself(base_state):
    drift = lambda s: sp.drift_F(s, PARAMS)
    num = hb.numerical_lie_bracket(drift, drift, base_state, PARAMS)
    assert state_scale(num) - 1.0 <= 1e-6


# ---------------------------------------------------------------------------
# recovery of vorticity elements


def test_psi_recovery_off_axis(base_state):
    n = base_state.n
    for j, m in [((1, 1), 0), ((2, -1), 1), ((1, -3), 1)]:
        got, branch = hb.psi_recovery(j, m, base_state, PARAMS)
        assert branch == "buoyancy-solve"
        want = sp.psi_state(n, j, m)
        assert state_gap(got, want) <= 1e-11 * state_scale(want)


def test_psi_recovery_axis(base_state):
    n = base_state.n
    for j in [(0, 1), (0, 2)]:
        for m in (0, 1):
            got, branch = hb.psi_recovery(j, m, base_state, PARAMS)
            assert branch == "axis-bracket"
            want = sp.psi_state(n, j, m)
            assert np.abs(got.w_hat - want.w_hat).max() <= 1e-10 * state_scale(want)
            assert np.abs(got.theta_hat).max() == 0.0


def test_psi_recovery_axis_state_independent(base_state):
    # the state only enters the temperature slot, which the recovery discards
    n = base_state.n
    zero = sp.state_zeros(n)
    for m in (0, 1):
        at_state, _ = hb.psi_recovery((0, 2), m, base_state, PARAMS)
        at_rest, _ = hb.psi_recovery((0, 2), m, zero, PARAMS)
        assert np.abs(at_state.w_hat - at_rest.w_hat).max() <= 1e-12 * state_scale(at_rest)


# ---------------------------------------------------------------------------
# isolating combinations


def test_pair_combos_isolate_single_elements():
    for j, k in [((1, 1), (1, 0)), ((0, 1), (1, 0)), ((1, 2), (1, -1))]:
        pref = Fraction(hb.perp_dot(j, k))
        for parity in (0, 1):
            raw = (j[0] + k[0], j[1] + k[1])
            canon, mc, s = sp.canonicalize(raw, parity)
            got = hb.pair_combo(j, k, "pair-sum", parity)
            assert got == {(canon, mc): s * pref * hb.coeff_a(j, k)}
            rawd = (j[0] - k[0], j[1] - k[1])
            if rawd != (0, 0) and hb.coeff_b(j, k) != 0:
                canond, mcd, sd = sp.canonicalize(rawd, parity)
                got = hb.pair_combo(j, k, "pair-difference", parity)
                assert got == {(canond, mcd): sd * pref * hb.coeff_b(j, k)}


# ---------------------------------------------------------------------------
# reachability closure


def test_span_reaches_level_eight():
    res = hb.span_generation([(1, 0), (0, 1)], 8)
    assert res.success
    assert res.missing == [] and res.psi_missing == []
    for mode in hb.induction_set(8):
        assert mode in res.reached
    assert res.reached[(1, 0)].kind == "forced"
    assert res.psi_plan[(0, 1)] == "axis-bracket"
    assert res.psi_plan[(1, 1)] == "buoyancy-solve"


def test_span_replay_exact_and_on_grid():
    res = hb.span_generation([(1, 0), (0, 1)], 4)
    report = hb.verify_span(res, 48, PARAMS)
    assert report["checked"] >= 2 * (len(res.reached) - 2)
    assert report["max_rel_err"] <= 1e-12


def _replay_pieces(res):
    # the (j, m, k, mp) brackets of every check of a log, in replay order
    return [(der.parents[0], m, der.parents[1], mp)
            for _, der in sorted(res.reached.items()) if der.kind != "forced"
            for parity in (0, 1) for (m, mp), _ in hb.combo_pieces(der.kind, parity)]


def test_stacked_bracket_fields_are_minus_grad_z(base_state):
    # every bracket of a stacked replay block is -DZ(U) sigma_k, and equals
    # the same bracket evaluated alone bit for bit
    res = hb.span_generation([(1, 0), (0, 1)], 2)
    n = base_state.n
    pieces = _replay_pieces(res)
    fw, ft = hb.bracket_fields(pieces, n, PARAMS)
    assert fw.shape == ft.shape == (len(pieces), n, n // 2 + 1)
    for (j, m, k, mp), w, t in zip(pieces, fw, ft):
        got = sp.SpectralState.from_halves(w, t)
        want = -hb.grad_z(j, m, base_state, sp.sigma_state(n, k, mp), PARAMS)
        assert sp.weighted_norm(got - want, PARAMS) <= 1e-12 * sp.weighted_norm(want, PARAMS)
        alone = hb.bracket_z_sigma_field(j, m, k, mp, n, PARAMS)
        assert got.w_hat.tobytes() == alone.w_hat.tobytes()
        assert got.theta_hat.tobytes() == alone.theta_hat.tobytes()


def _corrupt(res, mode, prefactor):
    reached = dict(res.reached)
    reached[mode] = dataclasses.replace(reached[mode], prefactor=prefactor)
    return dataclasses.replace(res, reached=reached)


def test_span_replay_reports_the_first_corrupted_check():
    res = hb.span_generation([(1, 0), (0, 1)], 4)
    modes = [mode for mode, der in sorted(res.reached.items()) if der.kind != "forced"]
    bad = modes[5]                  # checks 10 and 11, in the second block
    der = res.reached[bad]
    wrong = der.prefactor + 1
    bad_res = _corrupt(res, bad, wrong)
    j, k = der.parents
    combo = hb.pair_combo(j, k, der.kind, 0)
    canon, mc, s = sp.canonicalize(next(iter(combo))[0], 0)
    want = {(canon, mc): s * wrong}
    msg = f"symbolic replay failed at {bad} parity 0: {combo} != {want}"
    with pytest.raises(AssertionError, match=re.escape(msg)):
        hb.verify_span(bad_res, 48, PARAMS)


def test_span_replay_keeps_a_grid_failure_before_a_later_symbolic_one(monkeypatch):
    # a grid failure at one check of a block is raised before a symbolic
    # failure later in the same block, as a replay check by check raises it
    res = hb.span_generation([(1, 0), (0, 1)], 4)
    modes = [mode for mode, der in sorted(res.reached.items()) if der.kind != "forced"]
    bad_res = _corrupt(res, modes[3], res.reached[modes[3]].prefactor + 1)
    real = hb.bracket_fields

    def shifted(pieces, n, params):
        fw, ft = real(pieces, n, params)
        ft[2] += 1.0                # the first piece of check 1: modes[0] parity 1
        return fw, ft

    monkeypatch.setattr(hb, "bracket_fields", shifted)
    msg = f"grid replay failed at {modes[0]} parity 1"
    with pytest.raises(AssertionError, match=re.escape(msg)):
        hb.verify_span(bad_res, 48, PARAMS)


def test_span_replay_transforms_once_per_block(monkeypatch):
    # the level-8 replay of `bqlab span` stacks its trig elements into one
    # physical_fields and its products into one transport per block of
    # REPLAY_BLOCK checks, where one nonlinear_B per product made 1,040 of each
    calls = Counter()
    for name in ("physical_fields", "transport"):
        def counted(*args, _orig=getattr(sp, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(sp, name, counted)
    res = hb.span_generation([(1, 0), (0, 1)], 8)
    report = hb.verify_span(res, 34, PhysicsParams())
    blocks = math.ceil(report["checked"] / hb.REPLAY_BLOCK)
    assert report["checked"] == 260
    assert calls == {"physical_fields": blocks, "transport": blocks}


def test_span_replay_rejects_narrow_grid():
    res = hb.span_generation([(1, 0), (0, 1)], 8)
    with pytest.raises(ValueError, match="dealias"):
        hb.verify_span(res, 32, PARAMS)


def test_span_log_is_deterministic():
    a = hb.span_generation([(1, 0), (0, 1)], 6)
    b = hb.span_generation([(0, 1), (1, 0)], 6)
    assert a.to_json() == b.to_json()
    assert a.log_lines() == b.log_lines()
    assert a.log_lines()[-1] == "PASS"


@pytest.mark.parametrize("level, digest", [
    (4, "96867f94e94fccaae4d24ea4b71ff85d10d481b48b04020d4bc57bb1e1480c90"),
    (8, "fc95a71f4c328f71344335c226b39d4ad89589cc2745c1508fce56db7a44ab46"),
])
def test_span_log_is_pinned(level, digest):
    # the closure that paired every two known modes in every round wrote
    # these logs; pairing only with the newest modes must not move them
    res = hb.span_generation([(1, 0), (0, 1)], level)
    assert hashlib.sha256(res.to_json().encode()).hexdigest() == digest


def test_even_sublattice_generators_fail():
    res = hb.span_generation([(2, 0), (0, 2)], 2)
    assert not res.success
    assert set(res.missing) == set(hb.induction_set(2))
    for mode in res.reached:
        assert mode[0] % 2 == 0 and mode[1] % 2 == 0
    assert res.log_lines()[-1] == "FAIL"


def test_span_rejects_noncanonical_generator():
    with pytest.raises(ValueError, match="canonical"):
        hb.span_generation([(-1, 0), (0, 1)], 1)


def test_span_json_roundtrip():
    import json

    res = hb.span_generation([(1, 0), (0, 1)], 2)
    payload = json.loads(res.to_json())
    assert payload["success"] is True
    assert payload["level"] == 2
    der = payload["derivations"]["1,1"]
    assert der["kind"] == "pair-sum"
    assert der["prefactor"] == [-1, 1]
