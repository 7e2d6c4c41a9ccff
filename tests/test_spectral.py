"""Operator identities on the retained spectral band."""

import ast
import math
import re
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from boussinesq_lab import spectral as sp
from boussinesq_lab.noise import NoiseModel
from boussinesq_lab.spectral import (
    PhysicsParams,
    SpectralState,
    apply_A,
    apply_G,
    biot_savart,
    drift_F,
    nonlinear_B,
    project_PN,
    project_QN,
    psi_state,
    random_state,
    sigma_state,
    state_dot,
    state_zeros,
    weighted_norm,
)
from boussinesq_lab.stepping import Stepper, StepScheme
from boussinesq_lab.variation import HNBasis, Linearizer

TWO_PI_SQ = 2.0 * np.pi**2


def wnorm1(u, p):
    return weighted_norm(u, p, 1.0)


# ---------------------------------------------------------------------------
# velocity reconstruction


def test_biot_savart_curl_and_divergence(rng):
    n = 64
    w = random_state(n, rng).w_hat
    u1, u2 = biot_savart(w)
    k1, k2 = sp.wavenumbers(n)
    curl = 1j * k1 * u2 - 1j * k2 * u1
    div = 1j * k1 * u1 + 1j * k2 * u2
    scale = np.max(np.abs(w))
    assert np.max(np.abs(curl - w)) <= 1e-12 * scale
    assert np.max(np.abs(div)) <= 1e-14 * scale


def test_biot_savart_rejects_mean():
    n = 16
    w = np.zeros((n, n), np.complex128)
    w[0, 0] = 3.0 * n * n
    with pytest.raises(ValueError):
        biot_savart(w)


def test_only_the_spectral_module_calls_an_fft():
    # the transform layout lives in one module, so changing the transform
    # touches that module alone
    fft = re.compile(r"\b(np|numpy|scipy)\.fft\b|\bfrom\s+(numpy|scipy)\s+import\s+.*\bfft\b")
    pkg = Path(sp.__file__).parent
    offenders = [f.name for f in sorted(pkg.glob("*.py"))
                 if f.name != "spectral.py" and fft.search(f.read_text())]
    assert offenders == []


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the real transforms the package makes, by name."""
    calls = Counter()
    for name in ("irfft2", "rfft2"):
        def counted(*args, _orig=getattr(scipy.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_a_step_makes_one_inverse_and_one_forward_transform_per_block(fft_calls, rng):
    # the six fields are one stacked inverse transform and the two products
    # one stacked forward transform, per block of `block_rows(n)` paths; the
    # tangent makes the same two, and the adjoint their two transposes
    for n, batch in ((16, ()), (48, (2,)), (32, (sp.block_rows(32),)), (32, (200,))):
        stepper = Stepper(n, PhysicsParams(), StepScheme.ETD_EULER, 5e-3)
        lin = Linearizer(stepper)
        u = random_state(n, rng)
        w = np.broadcast_to(sp.half(u.w_hat), batch + (n, n // 2 + 1))
        t = np.broadcast_to(sp.half(u.theta_hat), batch + (n, n // 2 + 1))
        prep = lin.prepare(u.halves())
        blocks = math.ceil(math.prod(batch) / sp.block_rows(n))
        for kernel in (stepper.advance, partial(lin.tangent, prep), partial(lin.adjoint, prep)):
            fft_calls.clear()
            kernel(w, t)
            assert fft_calls == {"irfft2": blocks, "rfft2": blocks}, kernel
    assert blocks == math.ceil(200 / sp.block_rows(32)) > 1


def _grid_dot(f, g):
    # the grid pairing (2 pi / n)^2 sum_x f g over the last two axes
    return (2.0 * np.pi / f.shape[-1]) ** 2 * (f * g).sum((-2, -1))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_physical_fields_transpose_is_its_transpose(batch, rng):
    # <physical_fields(w, t), f> on the grid equals <(w, t), transpose(f)>
    # in the half storage's pairing, per state of the batch
    n = 16
    w, t = sp.half(_symmetric_stack(n, rng, batch)), sp.half(_symmetric_stack(n, rng, batch))
    f = rng.standard_normal((6,) + batch + (n, n))
    tw, tt = sp.physical_fields_transpose(f)
    assert tw.shape == tt.shape == w.shape
    lhs = _grid_dot(sp.physical_fields(w, t), f).sum(0)
    rhs = sp.half_dot(w, tw) + sp.half_dot(t, tt)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_masked_transform_transpose_is_its_transpose(batch, rng):
    n = 16
    h = sp.half(_symmetric_stack(n, rng, (2,) + batch))
    f = rng.standard_normal((2,) + batch + (n, n))
    lhs = sp.half_dot(sp.masked_transform(f), h).sum(0)
    rhs = _grid_dot(f, sp.masked_transform_transpose(h)).sum(0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


def test_masked_transform_transpose_leaves_its_argument(rng):
    # the band cut is made on a copy: a caller's stack keeps its modes
    h = sp.half(_symmetric_stack(16, rng, (2,)))
    before = h.copy()
    sp.masked_transform_transpose(h)
    assert np.array_equal(h, before)


def _names_read(source: str) -> set:
    # every name, attribute and imported name a module's code reads
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_only_spectral_and_stepping_read_a_symbol_table():
    # the kernels' two transform stages and their transposes live in the
    # spectral module, so no other module rebuilds one from the symbols or
    # the raw transforms; the stepping module reads the symbols only for the
    # per-mode multipliers of the step
    tables, raw = {"symbols", "half_symbols", "_field_symbols"}, {"to_physical", "from_physical"}
    pkg = Path(sp.__file__).parent
    offenders = []
    for f in sorted(pkg.glob("*.py")):
        if f.name == "spectral.py":
            continue
        read = _names_read(f.read_text())
        offenders += sorted(f"{f.name}:{x}" for x in read & raw)
        if f.name != "stepping.py":
            offenders += sorted(f"{f.name}:{x}" for x in read & tables)
    assert offenders == []


def test_only_the_spectral_module_weights_a_pairing():
    # every coefficient-space pairing goes through the spectral module, so a
    # change of weight (say, for half-spectrum storage) touches that module alone
    weight = re.compile(r"\b(quad_weight|einsum)\b")
    pkg = Path(sp.__file__).parent
    offenders = [f.name for f in sorted(pkg.glob("*.py"))
                 if f.name != "spectral.py" and weight.search(f.read_text())]
    assert offenders == []


def test_only_the_noise_module_names_a_noise_stream():
    # the clock and Brownian streams are keyed in one place, so every path's
    # noise comes from the one keyed draw of the noise module
    role = re.compile(r"\b(ROLE_CLOCK|ROLE_BROWNIAN)\b")
    pkg = Path(sp.__file__).parent
    offenders = [f.name for f in sorted(pkg.glob("*.py"))
                 if f.name != "noise.py" and role.search(f.read_text())]
    assert offenders == []


def test_only_the_spectral_module_places_a_trig_element():
    # where a trig element's coefficients sit is the slot table's business, so
    # a change of storage (say, the half spectrum) touches that module alone
    place = re.compile(r"\btrig_hat\b|\bnp\.nonzero\b")
    pkg = Path(sp.__file__).parent
    offenders = [f.name for f in sorted(pkg.glob("*.py"))
                 if f.name != "spectral.py" and place.search(f.read_text())]
    assert offenders == []


# ---------------------------------------------------------------------------
# transform layer


TRANSFORM_SIZES = [8, 9, 16, 48]     # 9: no Nyquist column, the mirror differs


def _from_physical(f):
    # the full forward transform: every self-mirrored column symmetrized
    return sp._symmetrize(sp._forward(f))


def _symmetric_stack(n, rng, shape=(2, 3)):
    z = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return sp.hermitize(z)


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_transforms_match_the_complex_fft(n, rng):
    f_hat = _symmetric_stack(n, rng)
    ref = np.fft.ifft2(f_hat).real
    got = sp.to_physical(sp.half(f_hat))
    assert got.dtype == np.float64 and got.shape == f_hat.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    f = rng.standard_normal((2, 3, n, n))
    ref = np.fft.fft2(f)
    got = sp.full(_from_physical(f))
    assert got.shape == f.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_forward_transforms_are_exactly_conjugate_symmetric(n, rng):
    # hermitize is a no-op on what the step stores, bit for bit once the
    # sign of zero is normalized (+ 0.0): its complex scale maps -0j to +0j
    f = rng.standard_normal((2, 3, n, n))
    for x in (sp.full(sp.masked_transform(f)), sp.full(_from_physical(f))):
        assert (sp.hermitize(x) + 0.0).tobytes() == (x + 0.0).tobytes()
    masked = sp.full(sp.masked_transform(f))
    ref = np.where(sp.symbols(n).bmask, np.fft.fft2(f), 0.0)
    assert np.max(np.abs(masked - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_the_nyquist_column_lies_outside_the_band():
    # the one fact behind symmetrizing the column k2 = 0 alone after a cut
    for n in range(8, 65, 2):
        assert not sp.half_symbols(n).dealias[:, n // 2].any(), n


def test_the_band_cut_zeroes_exactly_the_complement_of_bmask():
    for n in range(3, 65):
        h = np.ones((2, n, n // 2 + 1), np.complex128)
        sp._cut_to_band(h)
        assert np.array_equal(h != 0, np.broadcast_to(sp.half_symbols(n).bmask, h.shape)), n


def _per_field_fields(w_hat, t_hat):
    # the six fields of `physical_fields` of a half stack pair, one inverse
    # transform each; the Biot-Savart symbols carry 1/|k|^2, as in its table
    n = w_hat.shape[-2]
    h = sp.half_symbols(n)
    wm, tm = np.where(h.dealias, w_hat, 0.0), np.where(h.dealias, t_hat, 0.0)
    halves = ((h.ik2 * h.inv_ksq) * wm, (h.neg_ik1 * h.inv_ksq) * wm,
              h.ik1 * wm, h.ik2 * wm, h.ik1 * tm, h.ik2 * tm)
    return [sp._inverse(x, n) for x in halves]


@pytest.mark.parametrize("n", [9, 16, 48])
@pytest.mark.parametrize("batch", [(), (3,), (200,)])
def test_stacked_transforms_equal_per_field_transforms(n, batch, rng):
    w, t = sp.half(_symmetric_stack(n, rng, batch)), sp.half(_symmetric_stack(n, rng, batch))
    fields = sp.physical_fields(w, t)
    assert fields.shape == (6,) + batch + (n, n)
    for got, want in zip(fields, _per_field_fields(w, t)):
        assert got.tobytes() == want.tobytes()
    products = rng.standard_normal((2,) + batch + (n, n))
    stacked = sp.masked_transform(products)
    for got, f in zip(stacked, products):
        assert got.tobytes() == sp.masked_transform(f).tobytes()


def _padded_product(a, b):
    # the product of two (n, n) coefficient arrays computed without aliasing,
    # on a grid of 2n points per axis, read back at the n-grid wavenumbers
    n, m = a.shape[-1], 2 * a.shape[-1]
    k = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    pad = np.zeros((2, m, m), np.complex128)
    pad[0][np.ix_(k, k)], pad[1][np.ix_(k, k)] = a, b
    fa, fb = np.fft.ifft2(pad * (m * m / (n * n))).real
    return np.fft.fft2(fa * fb)[np.ix_(k, k)] * (n * n / (m * m))


@pytest.mark.parametrize("n", [9, 16, 24, 32, 48])
def test_products_of_band_limited_fields_are_alias_free(n, rng):
    # on the 2/3 band 3 |k_i| < n no mode of a product aliases back into the
    # band; at n = 9, 24 and 48 the band |k_i| <= n // 3 let the edge alias
    band = sp.symbols(n).dealias
    a, b = (np.where(band, random_state(n, rng, kmax=n // 2).w_hat, 0.0) for _ in range(2))
    got = sp.full(sp.masked_transform(sp.to_physical(sp.half(a)) * sp.to_physical(sp.half(b))))
    want = np.where(sp.symbols(n).bmask, _padded_product(a, b), 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the band edge squared: cos(K x1)^2 = (1 + cos(2 K x1)) / 2 has no mode
    # inside the mean-free band
    x1, x2 = sp.grid_points(n)
    edge = int(np.abs(sp.wavenumbers(n)[0][band[:, 0]]).max())
    assert np.max(np.abs(sp.masked_transform(np.cos(edge * x1) ** 2 + 0.0 * x2))) <= 1e-12 * n * n


@pytest.mark.parametrize("n", [9, 16])
def test_nonlinear_b_equals_its_per_field_formula(n, rng):
    u, v = random_state(n, rng), random_state(n, rng)
    for a, b in ((u, u), (u, v)):
        u1, u2 = _per_field_fields(*a.halves())[:2]
        w1, w2, t1, t2 = _per_field_fields(*b.halves())[2:]
        want = (sp.full(sp.masked_transform(u1 * w1 + u2 * w2)),
                sp.full(sp.masked_transform(u1 * t1 + u2 * t2)))
        got = nonlinear_B(a) if b is a else nonlinear_B(a, b)
        assert got.w_hat.tobytes() == want[0].tobytes()
        assert got.theta_hat.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_full_of_half_is_the_identity_on_real_fields(n, rng):
    f = _symmetric_stack(n, rng)
    h = sp.half(f)
    assert h.shape == (2, 3, n, n // 2 + 1) and h.flags.c_contiguous
    assert np.array_equal(sp.full(h), f)
    assert sp.half(sp.full(h)).tobytes() == h.tobytes()


# ---------------------------------------------------------------------------
# norms and pairings


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_half_weighted_sums_match_the_full_spectrum(n, rng):
    # each column off k2 = 0 and off the Nyquist column stands for itself
    # and its mirror, so the half sums equal the sums over all n^2 entries
    params = PhysicsParams(nu1=2.0, nu2=3.0, g=2.0)       # zeta* = 1.5
    xw, xt = _symmetric_stack(n, rng), _symmetric_stack(n, rng)
    yw, yt = _symmetric_stack(n, rng, (4,)), _symmetric_stack(n, rng, (4,))
    q, kk = sp.quad_weight(n), sp.ksq(n)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    full_sq = lambda f: (np.abs(f) ** 2).sum(axis=(-2, -1))
    close(sp.weighted_energy(sp.half(xw), sp.half(xt), params),
          q * (1.5 * full_sq(xw) + full_sq(xt)))
    for s in (0, 1, 2.5):
        want = q * (kk ** s * np.abs(xw) ** 2 if s else np.abs(xw) ** 2).sum(axis=(-2, -1))
        close(sp.sobolev_sq(sp.half(xw), s), want)
    want = q * (1.5 * np.einsum("...ij,dij->...d", xw, np.conj(yw)).real
                + np.einsum("...ij,dij->...d", xt, np.conj(yt)).real)
    close(sp.pairings(*map(sp.half, (xw, xt, yw, yt)), params), want)
    close(sp.half_dot(sp.half(xw), sp.half(yw[0])),
          q * (xw * np.conj(yw[0])).real.sum(axis=(-2, -1)))


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_slot_gather_on_the_half_equals_the_full_dense_pairing(n, rng):
    # the gather reads one product per slot off k2 = 0, counted twice: the
    # same bits as the sum of the element's two products over the full array
    params = PhysicsParams(nu1=2.0, nu2=3.0, g=2.0)
    e = n // 2 - 1
    distinct = [(e, e), (e, -e), (e, 0), (0, e), (1, -e), (-e, 1)]
    elements = tuple((k, m, float(s)) for k, s in zip(distinct, rng.uniform(0.5, 2.0, 6))
                     for m in (0, 1))
    table = sp.trig_slots(n, elements)
    dense = np.stack([s * _trig_formula(n, k[0], k[1], m) for k, m, s in elements])
    xw, xt = _symmetric_stack(n, rng), _symmetric_stack(n, rng)
    cw = np.einsum("...ij,dij->...d", xw, np.conj(dense)).real
    ct = np.einsum("...ij,dij->...d", xt, np.conj(dense)).real
    want = sp.quad_weight(n) * (params.zeta_star * cw + ct)
    got = sp.slot_pairings(sp.half(xw), sp.half(xt), table, table, params)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="half stack"):
        table._sums(xw)


def test_parseval_against_physical_quadrature(rng):
    n = 48
    f = random_state(n, rng).w_hat
    g = random_state(n, rng).w_hat
    spec_dot = sp.l2_dot(f, g)
    quad = (2.0 * np.pi / n) ** 2 * np.sum(sp.to_physical(sp.half(f)) * sp.to_physical(sp.half(g)))
    assert abs(spec_dot - quad) <= 1e-10 * max(1.0, abs(spec_dot))


def test_weighted_norm_single_cosine():
    n = 32
    u = psi_state(n, (1, 0), 0)      # w = cos(x1), theta = 0
    p = PhysicsParams(1.0, 1.0, 1.0)
    assert abs(weighted_norm(u, p, 0.0) - np.sqrt(TWO_PI_SQ)) < 1e-12


def test_weighted_norm_rejects_negative_smoothness(small_state, params):
    with pytest.raises(ValueError):
        weighted_norm(small_state, params, -1.0)


def test_sobolev_sq_sums_several_indices_from_one_pass(rng):
    f = sp.half(_symmetric_stack(16, rng))
    sums = sp.sobolev_sq(f, (0, 1, 2.5))
    assert isinstance(sums, tuple) and len(sums) == 3
    for s, got in zip((0, 1, 2.5), sums):
        assert got.tobytes() == sp.sobolev_sq(f, s).tobytes()
    with pytest.raises(ValueError):
        sp.sobolev_sq(f, (1, -1))


def test_weighted_norm_weight_scaling():
    n = 32
    u = psi_state(n, (2, 1), 1)
    p = PhysicsParams(nu1=2.0, nu2=3.0, g=2.0)   # zeta* = 1.5
    expected = np.sqrt(1.5 * TWO_PI_SQ)
    assert abs(weighted_norm(u, p, 0.0) - expected) < 1e-12


def test_trig_basis_norms_and_orthogonality():
    n = 32
    a = sp.trig_hat(n, 1, 2, 0)
    b = sp.trig_hat(n, 1, 2, 1)
    c = sp.trig_hat(n, 2, -1, 0)
    assert abs(sp.l2_dot(a, a) - TWO_PI_SQ) < 1e-12
    assert abs(sp.l2_dot(b, b) - TWO_PI_SQ) < 1e-12
    assert abs(sp.l2_dot(a, b)) < 1e-12
    assert abs(sp.l2_dot(a, c)) < 1e-12


@given(k1=st.integers(-9, 9), k2=st.integers(-9, 9), m=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_mode_negation_sign_rule(k1, k2, m):
    if (k1, k2) == (0, 0):
        return
    n = 32
    plus = sp.trig_hat(n, k1, k2, m)
    minus = sp.trig_hat(n, -k1, -k2, m)
    sign = 1.0 if m == 0 else -1.0
    assert np.max(np.abs(minus - sign * plus)) < 1e-10 * n * n


@given(k1=st.integers(-9, 9), k2=st.integers(-9, 9), m=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_trig_hat_matches_grid_evaluation(k1, k2, m):
    n = 24
    x1, x2 = sp.grid_points(n)
    phase = k1 * x1 + k2 * x2
    field = np.cos(phase) if m == 0 else np.sin(phase)
    oracle = sp.full(_from_physical(field + 0.0 * x1 * x2))
    built = sp.trig_hat(n, k1, k2, m)
    assert np.max(np.abs(built - oracle)) < 1e-10 * n * n


def test_canonicalize():
    assert sp.canonicalize((-1, 2), 1) == ((1, -2), 1, -1)
    assert sp.canonicalize((-1, 2), 0) == ((1, -2), 0, 1)
    assert sp.canonicalize((0, 3), 1) == ((0, 3), 1, 1)
    with pytest.raises(ValueError):
        sp.canonicalize((0, 0), 0)


def _trig_formula(n, k1, k2, m):
    # the dense construction of a trig element: add the coefficient and its
    # conjugate at the slots k and -k of a zero array
    out = np.zeros((n, n), dtype=np.complex128)
    amp = 0.5 * n * n * (-1.0 if (k1 + k2) % 2 else 1.0)
    coef = amp if m == 0 else -1j * amp
    out[k1 % n, k2 % n] += coef
    out[(-k1) % n, (-k2) % n] += np.conj(coef)
    return out


def _edge_modes(n):
    e = n // 2 - 1
    return [(e, e), (e, -e), (-e, e), (-e, -e), (e, 0), (0, e), (1, -e), (0, 0)]


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_slot_scatter_matches_the_trig_formula(n, rng):
    modes = _edge_modes(n)
    for k in modes:
        for m in (0, 1):
            want = _trig_formula(n, k[0], k[1], m)
            assert sp.trig_hat(n, k[0], k[1], m).tobytes() == want.tobytes()
            got = sp.trig_slots(n, ((k, m, 1.0),)).scatter(np.ones(1))
            assert got.tobytes() == sp.half(want).tobytes()
    # a table of several scaled elements, no two of them equal up to sign:
    # one product per component
    e = n // 2 - 1
    distinct = [(e, e), (e, -e), (e, 0), (0, e), (1, -e), (-e, 1)]
    elements = tuple((k, m, float(s)) for k, s in zip(distinct, rng.uniform(0.5, 2.0, 6))
                     for m in (0, 1))
    table = sp.trig_slots(n, elements)
    c = rng.standard_normal((3, len(elements)))
    dense = np.stack([s * _trig_formula(n, k[0], k[1], m) for k, m, s in elements])
    for rows in (c, c[0]):
        # + 0.0 on both sides: the BLAS sum may leave -0.0 where no element
        # sits (it does at n = 9)
        want = np.tensordot(rows, dense, axes=1) + 0.0
        assert (table.scatter(rows) + 0.0).tobytes() == sp.half(want).tobytes()
    with pytest.raises(ValueError, match="resolvable band"):
        sp.trig_slots(n, (((n // 2, 0), 0, 1.0),))


@pytest.mark.parametrize("n", [16, 32, 48])
def test_slot_gather_matches_the_dense_pairing(n, rng):
    # every element has two nonzero components, so the gather adds the same
    # two products as the dense sum over all n^2 entries, bit for bit
    params = PhysicsParams(nu1=2.0, nu2=3.0, g=2.0)       # zeta* = 1.5
    basis = HNBasis(n, 4, params)
    # + 0.0: the other elements' slots hold 0 * v, -0.0 for negative v,
    # and the mirror's conjugate of a +0.0 imaginary part is -0.0
    eye = np.eye(basis.dim)
    dense_w = sp.full(basis.w_slots.scatter(eye)) + 0.0
    dense_t = sp.full(basis.t_slots.scatter(eye)) + 0.0
    # the basis states are the scaled elements in one slot and zeros in the other
    zero = np.zeros((n, n), np.complex128)
    for (kind, k, m), wh, th in zip(basis.labels, dense_w, dense_t):
        norm = 1.0 / np.sqrt((params.zeta_star if kind == "psi" else 1.0) * sp.TRIG_NORM_SQ)
        want = norm * _trig_formula(n, k[0], k[1], m)
        assert wh.tobytes() == (want if kind == "psi" else zero).tobytes()
        assert th.tobytes() == (zero if kind == "psi" else want).tobytes()
    model = NoiseModel(modes=((1, 0), (0, 1), (2, -1)), alphas=(0.5, 1.5, 1.0, 2.0, 0.25, 3.0))
    sig = np.stack([a * _trig_formula(n, k[0], k[1], m)
                    for (k, m), a in zip(model.directions(), model.alphas)])
    states = [random_state(n, rng) for _ in range(6)]
    xw = np.stack([u.w_hat for u in states]).reshape(2, 3, n, n)
    xt = np.stack([u.theta_hat for u in states]).reshape(2, 3, n, n)
    xw, xt, dense_w, dense_t, sig = map(sp.half, (xw, xt, dense_w, dense_t, sig))
    for w, t in ((xw, xt), (xw[1, 2], xt[1, 2])):          # a batch and one state
        got = basis.coords(w, t)
        assert got.shape == w.shape[:-2] + (basis.dim,)
        assert got.tobytes() == sp.pairings(w, t, dense_w, dense_t, params).tobytes()
        got = sp.slot_pairings(w, t, None, model.slots(n), params)
        want = sp.pairings(w, t, np.zeros_like(sig), sig, params)
        assert got.tobytes() == want.tobytes()


def test_mode_coeff_roundtrip():
    n = 32
    field = 2.5 * sp.trig_hat(n, 1, 2, 1) - 0.75 * sp.trig_hat(n, 3, 0, 0)
    field = sp.half(field)
    assert abs(sp.mode_coeff(field, (1, 2), 1) - 2.5) < 1e-12
    assert abs(sp.mode_coeff(field, (3, 0), 0) + 0.75) < 1e-12
    assert abs(sp.mode_coeff(field, (2, 2), 0)) < 1e-12


def test_mode_coeff_rejects_the_mean_mode():
    # cos(0) is no trig element: its two slots coincide, so a slot read would
    # return twice the L2 projection of the constant field
    with pytest.raises(ValueError, match="zero mode has no basis element"):
        sp.mode_coeff(_from_physical(np.ones((16, 16))), (0, 0), 0)


# ---------------------------------------------------------------------------
# quadratic term


def test_skew_symmetry_triples(params, rng):
    n = 64
    for _ in range(5):
        u = random_state(n, rng)
        v = random_state(n, rng)
        w = random_state(n, rng)
        lhs = state_dot(nonlinear_B(u, v), w, params)
        rhs = -state_dot(nonlinear_B(u, w), v, params)
        scale = wnorm1(u, params) * wnorm1(v, params) * wnorm1(w, params)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_energy_neutrality(params, rng):
    n = 64
    for _ in range(5):
        u = random_state(n, rng)
        v = random_state(n, rng)
        val = state_dot(nonlinear_B(u, v), v, params)
        scale = wnorm1(u, params) * wnorm1(v, params) ** 2
        assert abs(val) <= 1e-9 * scale


def test_nonlinear_b_bilinearity(rng):
    n = 32
    u, v, w = (random_state(n, rng) for _ in range(3))
    left = nonlinear_B(u, v + 2.0 * w)
    right = nonlinear_B(u, v) + 2.0 * nonlinear_B(u, w)
    assert np.max(np.abs(left.w_hat - right.w_hat)) < 1e-9 * n * n
    assert np.max(np.abs(left.theta_hat - right.theta_hat)) < 1e-9 * n * n


def test_nonlinear_b_zero_when_advecting_vorticity_vanishes(rng):
    n = 32
    carrier = SpectralState(np.zeros((n, n), np.complex128),
                            random_state(n, rng).theta_hat)
    target = random_state(n, rng)
    out = nonlinear_B(carrier, target)
    assert np.max(np.abs(out.w_hat)) == 0.0
    assert np.max(np.abs(out.theta_hat)) == 0.0


def test_nonlinear_b_resolution_mismatch(rng):
    with pytest.raises(ValueError):
        nonlinear_B(random_state(16, rng), random_state(32, rng))


# ---------------------------------------------------------------------------
# linear operators


def test_apply_a_single_mode():
    n = 32
    p = PhysicsParams(nu1=0.7, nu2=1.3, g=1.0)
    u = sigma_state(n, (2, 1), 0) + psi_state(n, (1, 1), 1)
    au = apply_A(u, p)
    aw, at = au.halves()
    assert abs(sp.mode_coeff(at, (2, 1), 0) - 1.3 * 5.0) < 1e-12
    assert abs(sp.mode_coeff(aw, (1, 1), 1) - 0.7 * 2.0) < 1e-12


def test_apply_g_parity_rule():
    # buoyancy sends the temperature element (k, m) to
    # (-1)^{m+1} g k1 times the vorticity element (k, m + 1)
    n = 32
    p = PhysicsParams(g=2.0)
    for k in [(1, 0), (2, -1), (0, 1)]:
        for m in (0, 1):
            gu = apply_G(sigma_state(n, k, m), p)
            assert np.max(np.abs(gu.theta_hat)) == 0.0
            expect = (-1.0) ** (m + 1) * p.g * k[0]
            got = sp.mode_coeff(sp.half(gu.w_hat), k, (m + 1) % 2)
            assert abs(got - expect) < 1e-12, (k, m)


def test_drift_on_single_temperature_mode():
    n = 32
    p = PhysicsParams(nu1=1.0, nu2=2.0, g=1.5)
    k = (1, 2)
    f = drift_F(sigma_state(n, k, 0), p)
    # -A sigma + G sigma, the quadratic term vanishes on a pure temperature state
    fw, ft = f.halves()
    assert abs(sp.mode_coeff(ft, k, 0) + 2.0 * 5.0) < 1e-12
    assert abs(sp.mode_coeff(fw, k, 1) - (-1.0) * 1.5 * 1.0) < 1e-12


# ---------------------------------------------------------------------------
# projections


def test_projection_keeps_boundary_mode():
    n = 32
    u = sigma_state(n, (3, 4), 0)          # |k| = 5 exactly
    kept = project_PN(u, 5)
    assert np.array_equal(kept.theta_hat, u.theta_hat)
    assert np.max(np.abs(project_QN(u, 5).theta_hat)) == 0.0
    dropped = project_PN(u, 4.9)
    assert np.max(np.abs(dropped.theta_hat)) == 0.0


def test_projection_algebra_exact(small_state):
    u = small_state
    pn = project_PN(u, 3)
    qn = project_QN(u, 3)
    assert np.array_equal(pn.w_hat + qn.w_hat, u.w_hat)
    assert np.array_equal(project_PN(pn, 3).w_hat, pn.w_hat)
    assert np.max(np.abs(project_PN(qn, 3).w_hat)) == 0.0
    assert np.max(np.abs(state_dot(pn, qn, PhysicsParams()))) < 1e-20


@given(level=st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_projection_idempotent_any_level(level):
    rng = np.random.default_rng(5 + level)
    u = random_state(32, rng)
    pn = project_PN(u, level)
    again = project_PN(pn, level)
    assert np.array_equal(pn.w_hat, again.w_hat)
    assert np.array_equal(pn.theta_hat, again.theta_hat)


def test_modes_in_ball_counts():
    # |k| <= 1: (0,1), (1,0); |k| <= 2 adds (1,±1), (0,2), (2,0)
    assert sp.modes_in_ball(1) == [(0, 1), (1, 0)]
    assert len(sp.modes_in_ball(2)) == 6
    for k in sp.modes_in_ball(8):
        assert sp.is_canonical(k)
        assert 0 < k[0] ** 2 + k[1] ** 2 <= 64


def test_state_arithmetic(small_state):
    u = small_state
    z = state_zeros(u.n)
    combo = 2.0 * u - u - u + z
    assert np.max(np.abs(combo.w_hat)) < 1e-12
    with pytest.raises(ValueError):
        SpectralState(u.w_hat, np.zeros((3, 4)))
