"""Spectral core for the vorticity-temperature pair on the 2D torus.

Fields live on a uniform n x n grid covering [-pi, pi)^2 and are stored as
unnormalized numpy fft2 coefficient arrays (complex, shape (n, n), wavenumber
layout of np.fft.fftfreq). The state is the pair U = (w, theta): w is the
scalar vorticity of the velocity field, theta the temperature. All operators
here are exact on the retained Fourier modes; quadratic terms are evaluated
pseudo-spectrally with the 2/3 dealiasing rule so that products of two
band-limited fields are alias-free on the retained band.

This is the one transform layer: no other module calls an FFT. The step
kernel, its tangent and adjoint, the second variation and `nonlinear_B` share
the per-n symbol table `symbols`, the six dealiased physical fields of a
stack `physical_fields`, and the masked forward transform `masked_transform`.
`physical_fields` builds its six half-spectrum fields into one (6, ..., n,
n//2+1) array and makes one inverse transform of it, and `transport` (the
advection of the step and of `nonlinear_B`) and the tangent's bilinear form
stack their two products into one `masked_transform`: one inverse and one
forward transform instead of six and two, which removes most of the
per-call cost of `scipy.fft` at small batches. Each output is bit-equal to
its per-field transform.
A large stack is not transformed whole, which is slower: its arrays
outgrow the cache and are fresh memory on every step. `blockwise` applies the step and the
tangent to blocks of `block_rows(n)` rows, the rows whose six half-spectrum
fields fill about 1 MiB (75 at n = 16, 20 at n = 32, 9 at n = 48); a batch
no larger than one block is one block. The adjoint keeps one transform per
field: stacking its six forward transforms measured slower.

Every field is real, so the transforms are the real transforms of
`scipy.fft` over the k2 >= 0 half spectrum, n // 2 + 1 columns, while the
full (..., n, n) arrays stay the one storage format at the module boundary:
  * `to_physical` and `physical_fields` read only the k2 >= 0 columns (their
    symbols on those columns are `_half_symbols`);
  * `from_physical` and `masked_transform` fill the k2 < 0 columns by the
    conjugate mirror f(-k) = conj f(k) and symmetrize the self-mirrored
    columns (k2 = 0, and k2 = n/2 for even n), so what they return is
    exactly conjugate-symmetric.
A stored state therefore stays exactly conjugate-symmetric: the step adds
such arrays and scales them by even real symbols and by i k1, which keeps
the symmetry as long as the Nyquist row k1 = n/2 is zero, as it is for every
band-limited state, kick and dealiased product. `hermitize` projects onto
that set and is needed only where coefficients are drawn at random
(`random_state`). On an array that is not conjugate-symmetric,
`to_physical` transforms the k2 >= 0 half, which is not the real part of
the complex inverse transform.
It also owns the state pairing: every coefficient-space inner product of the
package goes through `pairings` (stack against stack), `slot_pairings` (stack
against a slot table), `weighted_energy` (squared norms of a stack) or the
scalar helpers below, so the quadrature weight `quad_weight` is read nowhere
else.

Trig elements are placed by slot tables (`TrigSlots`). A slot is one real
component of a coefficient array, the real or imaginary part of one entry,
and has the weight `quad_weight` in a pairing like every entry of the full
storage; cos(k.x) and sin(k.x) fill two, at k and -k. The scatter writes one
product c_j v per slot into zeros. The gather `slot_pairings` equals
`pairings` against the dense stack bit for bit: at a slot the real part of
the dense product is x v (the element's other part is zero there), off the
slots it is +-0, and adding zero to a nonzero sum is exact, so the dense sum
rounds as the two slot products do in either order; the gather adds those
two onto zero and weights them as quad_weight * (zeta* cw + ct).

Conventions:
  * axis 0 of an array is x1, axis 1 is x2;
  * inner products and norms use the quadrature weight (2 pi)^2 / n^4 in
    coefficient space, which equals the continuum L2 pairing for trig
    polynomials;
  * the state inner product carries the weight zeta* = nu1 nu2 / g^2 on the
    vorticity slot, so the induced norm is the Lyapunov norm used by the
    energy estimates. With default parameters zeta* = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi
TRIG_NORM_SQ = 2.0 * np.pi**2     # squared L2 norm of every cos/sin trig element


# ---------------------------------------------------------------------------
# parameters and state containers


@dataclass(frozen=True)
class PhysicsParams:
    """Dissipation and buoyancy constants (nu1, nu2 > 0, g != 0)."""

    nu1: float = 1.0
    nu2: float = 1.0
    g: float = 1.0

    def __post_init__(self) -> None:
        if not (self.nu1 > 0.0 and self.nu2 > 0.0):
            raise ValueError("viscosities must be positive")
        if self.g == 0.0:
            raise ValueError("buoyancy constant must be nonzero")

    @property
    def zeta_star(self) -> float:
        return self.nu1 * self.nu2 / self.g**2

    @property
    def nu(self) -> float:
        return min(self.nu1, self.nu2)


@dataclass
class SpectralState:
    """Pair of coefficient arrays (w_hat, theta_hat), both (n, n) complex."""

    w_hat: np.ndarray
    theta_hat: np.ndarray

    def __post_init__(self) -> None:
        self.w_hat = np.asarray(self.w_hat, dtype=np.complex128)
        self.theta_hat = np.asarray(self.theta_hat, dtype=np.complex128)
        if self.w_hat.shape != self.theta_hat.shape:
            raise ValueError("component shapes differ")
        if self.w_hat.ndim != 2 or self.w_hat.shape[0] != self.w_hat.shape[1]:
            raise ValueError("expected square (n, n) coefficient arrays")

    @property
    def n(self) -> int:
        return self.w_hat.shape[0]

    def copy(self) -> "SpectralState":
        return SpectralState(self.w_hat.copy(), self.theta_hat.copy())

    def __add__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.w_hat + other.w_hat, self.theta_hat + other.theta_hat)

    def __sub__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.w_hat - other.w_hat, self.theta_hat - other.theta_hat)

    def __mul__(self, c: float) -> "SpectralState":
        return SpectralState(self.w_hat * c, self.theta_hat * c)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralState":
        return SpectralState(-self.w_hat, -self.theta_hat)


def state_zeros(n: int) -> SpectralState:
    return SpectralState(np.zeros((n, n), np.complex128), np.zeros((n, n), np.complex128))


# ---------------------------------------------------------------------------
# grid bookkeeping


@lru_cache(maxsize=None)
def wavenumbers(n: int):
    """Integer wavenumbers (k1, k2) broadcastable to (n, n)."""
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    return k[:, None], k[None, :]


@lru_cache(maxsize=None)
def ksq(n: int) -> np.ndarray:
    k1, k2 = wavenumbers(n)
    return (k1 * k1 + k2 * k2).astype(np.float64)


@dataclass(frozen=True)
class Symbols:
    """Per-mode multipliers of the dealiased pseudo-spectral pipeline. The
    Biot-Savart pair (i k2, -i k1) / |k|^2 is applied as i k2 * w * inv_ksq."""

    ik1: np.ndarray          # i k1, the symbol of d/dx1
    ik2: np.ndarray          # i k2, the symbol of d/dx2
    neg_ik1: np.ndarray      # -i k1
    inv_ksq: np.ndarray      # 1 / |k|^2, zero on the mean mode
    dealias: np.ndarray      # 2/3 rule: |k_i| <= n // 3 on both axes
    bmask: np.ndarray        # the 2/3 mask without the mean mode


@lru_cache(maxsize=None)
def symbols(n: int) -> Symbols:
    k1, k2 = wavenumbers(n)
    kk = ksq(n)
    inv = np.zeros((n, n))
    np.divide(1.0, kk, out=inv, where=kk > 0)
    dealias = (np.abs(k1) <= n // 3) & (np.abs(k2) <= n // 3)
    return Symbols(ik1=1j * k1, ik2=1j * k2, neg_ik1=-1j * k1, inv_ksq=inv,
                   dealias=dealias, bmask=dealias & (kk > 0))


@lru_cache(maxsize=None)
def _half_symbols(n: int) -> Symbols:
    """`symbols(n)` on the k2 >= 0 columns, the half spectrum of rfft2."""
    full = symbols(n)
    return Symbols(*(np.ascontiguousarray(getattr(full, f.name)[..., :n // 2 + 1])
                     for f in fields(Symbols)))


@lru_cache(maxsize=None)
def grid_points(n: int):
    x = -np.pi + TWO_PI * np.arange(n) / n
    return x[:, None], x[None, :]


def _inverse(half: np.ndarray, n: int) -> np.ndarray:
    return scipy.fft.irfft2(half, s=(n, n), axes=(-2, -1))


def _full(half: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, n) coefficients whose k2 >= 0 columns are half and whose
    k2 < 0 columns are its conjugate mirror f(-k) = conj f(k), indices mod n.
    The self-mirrored columns (k2 = 0 and, for even n only, the Nyquist
    column k2 = n/2) are symmetrized, so the result is exactly
    conjugate-symmetric."""
    h = half.shape[-1]
    out = np.empty(half.shape[:-1] + (n,), np.complex128)
    out[..., :h] = half
    # -k1 mod n keeps row 0 and reverses rows 1 .. n-1; column k2 < 0 reads
    # column -k2, so columns n - h .. 1 fill h .. n - 1
    np.conjugate(half[..., :1, n - h:0:-1], out=out[..., :1, h:])
    np.conjugate(half[..., :0:-1, n - h:0:-1], out=out[..., 1:, h:])
    selfs = slice(0, h, n // 2) if n % 2 == 0 else slice(0, 1)
    col = half[..., selfs]
    out[..., :1, selfs] = 0.5 * (col[..., :1, :] + np.conj(col[..., :1, :]))
    out[..., 1:, selfs] = 0.5 * (col[..., 1:, :] + np.conj(col[..., :0:-1, :]))
    return out


def to_physical(f_hat: np.ndarray) -> np.ndarray:
    """Real field of a conjugate-symmetric coefficient stack; only the k2 >= 0
    columns are read."""
    n = f_hat.shape[-1]
    return _inverse(f_hat[..., :n // 2 + 1], n)


def from_physical(f: np.ndarray) -> np.ndarray:
    """Coefficients of a real field stack, exactly conjugate-symmetric."""
    return _full(scipy.fft.rfft2(f, axes=(-2, -1)), f.shape[-1])


def masked_transform(f: np.ndarray) -> np.ndarray:
    """Coefficients of a physical product, cut to the dealiased mean-free band."""
    n = f.shape[-1]
    return _full(np.where(_half_symbols(n).bmask, scipy.fft.rfft2(f, axes=(-2, -1)), 0.0), n)


def hermitize(f_hat: np.ndarray) -> np.ndarray:
    """Project onto coefficient arrays of real fields (conjugate symmetry)."""
    mirror = np.conj(np.roll(f_hat[..., ::-1, ::-1], (1, 1), axis=(-2, -1)))
    return 0.5 * (f_hat + mirror)


# ---------------------------------------------------------------------------
# inner products and norms


def quad_weight(n: int) -> float:
    """Coefficient-space weight (2 pi)^2 / n^4 of the continuum L2 pairing."""
    return TWO_PI**2 / n**4


def l2_dot(f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """Continuum L2 pairing of the real fields behind two coefficient arrays."""
    return float(quad_weight(f_hat.shape[-1]) * np.sum(f_hat * np.conj(g_hat)).real)


def sobolev_sq(f_hat: np.ndarray, s):
    """Squared homogeneous-plus-mean Sobolev norm, sum |k|^{2s} |f_k|^2
    weights, of every array of a (..., n, n) stack, shape (...); for a
    sequence of indices s, a tuple of one such sum per index, all read from
    one |f_k|^2.

    s = 0 reduces to the plain L2 norm (the k = 0 factor 0^0 counts as 1).
    Negative s is rejected: the mean mode would divide by zero.
    """
    single = np.ndim(s) == 0
    indices = (s,) if single else tuple(s)
    if any(x < 0 for x in indices):
        raise ValueError("negative smoothness index not supported")
    n = f_hat.shape[-1]
    sq = np.abs(f_hat) ** 2
    sums = tuple(quad_weight(n) * np.sum(ksq(n) ** x * sq if x != 0 else sq, axis=(-2, -1))
                 for x in indices)
    return sums[0] if single else sums


def state_dot(a: SpectralState, b: SpectralState, params: PhysicsParams) -> float:
    """Weighted state inner product zeta* <w, w'> + <theta, theta'>."""
    return params.zeta_star * l2_dot(a.w_hat, b.w_hat) + l2_dot(a.theta_hat, b.theta_hat)


def weighted_norms(w_hat: np.ndarray, t_hat: np.ndarray, params: PhysicsParams,
                   s: float = 0.0) -> np.ndarray:
    """sqrt(zeta* |w|_{s}^2 + |theta|_{s}^2), the Lyapunov norm at smoothness
    s, of every state in a (..., n, n) stack."""
    return np.sqrt(params.zeta_star * sobolev_sq(w_hat, s) + sobolev_sq(t_hat, s))


def weighted_norm(state: SpectralState, params: PhysicsParams, s: float = 0.0) -> float:
    """`weighted_norms` of one state."""
    return float(weighted_norms(state.w_hat, state.theta_hat, params, s))


def pairings(xw: np.ndarray, xt: np.ndarray, yw: np.ndarray, yt: np.ndarray,
             params: PhysicsParams) -> np.ndarray:
    """Weighted inner products zeta* <x_w, y_w> + <x_t, y_t> of every state of
    a (..., n, n) stack x against every state of a (d, n, n) stack y, shape
    (..., d)."""
    cw = np.einsum("...ij,dij->...d", xw, np.conj(yw)).real
    ct = np.einsum("...ij,dij->...d", xt, np.conj(yt)).real
    return quad_weight(xw.shape[-1]) * (params.zeta_star * cw + ct)


def weighted_energy(w_hat: np.ndarray, t_hat: np.ndarray, params: PhysicsParams) -> np.ndarray:
    """zeta* |w|^2 + |theta|^2 of every state in a (..., n, n) stack."""
    flat = w_hat.shape[:-2] + (-1,)
    return quad_weight(w_hat.shape[-1]) * (
        params.zeta_star * (np.abs(w_hat.reshape(flat)) ** 2).sum(-1)
        + (np.abs(t_hat.reshape(flat)) ** 2).sum(-1))


# ---------------------------------------------------------------------------
# linear operators


def apply_A(state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Dissipation pair (-nu1 Lap w, -nu2 Lap theta) as a positive operator."""
    k2 = ksq(state.n)
    return SpectralState(params.nu1 * k2 * state.w_hat, params.nu2 * k2 * state.theta_hat)


def apply_G(state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Buoyancy coupling: (g d(theta)/dx1, 0)."""
    return SpectralState(params.g * symbols(state.n).ik1 * state.theta_hat,
                         np.zeros_like(state.theta_hat))


def require_mean_free(w_hat: np.ndarray) -> None:
    """Raise ValueError unless |w_00| <= 1e-10 max(1, max_k |w_k|) over the stack."""
    scale = np.max(np.abs(w_hat)) if w_hat.size else 0.0
    if np.max(np.abs(w_hat[..., 0, 0])) > 1e-10 * max(1.0, scale):
        raise ValueError("vorticity must have zero mean")


def biot_savart(w_hat: np.ndarray):
    """Velocity coefficients from vorticity: divergence-free, curl recovers w.

    u1 = +i k2 w / |k|^2, u2 = -i k1 w / |k|^2; the k = 0 mode must vanish.
    Raises ValueError on a field with a nonzero mean mode.
    """
    require_mean_free(w_hat)
    s = symbols(w_hat.shape[-1])
    return s.ik2 * w_hat * s.inv_ksq, s.neg_ik1 * w_hat * s.inv_ksq


# ---------------------------------------------------------------------------
# quadratic term


def _band(f_hat: np.ndarray, h: Symbols) -> np.ndarray:
    # the k2 >= 0 columns of a coefficient stack, cut to the 2/3 band
    return np.where(h.dealias, f_hat[..., :h.dealias.shape[-1]], 0.0)


def physical_fields(w_hat: np.ndarray, t_hat: np.ndarray) -> np.ndarray:
    """The six dealiased physical fields (u1, u2, dw/dx1, dw/dx2, dtheta/dx1,
    dtheta/dx2) of a (..., n, n) stack, u the velocity of w (mean unchecked),
    as one (6, ..., n, n) array from one inverse transform. Only the k2 >= 0
    columns are read."""
    n = w_hat.shape[-1]
    h = _half_symbols(n)
    wm, tm = _band(w_hat, h), _band(t_hat, h)
    half = np.empty((6,) + wm.shape, np.complex128)
    for out, ik, f in zip(half, (h.ik2, h.neg_ik1, h.ik1, h.ik2, h.ik1, h.ik2),
                          (wm, wm, wm, wm, tm, tm)):
        np.multiply(ik, f, out=out)
    half[:2] *= h.inv_ksq       # the Biot-Savart pair (i k2, -i k1) / |k|^2
    return _inverse(half, n)


def transport(vel: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(u . grad w, u . grad theta) cut to the dealiased mean-free band, as one
    (2, ..., n, n) stack from one forward transform, of the velocity
    vel = (u1, u2) and the gradients grad = (dw/dx1, dw/dx2, dtheta/dx1,
    dtheta/dx2), rows 0-1 and 2-5 of `physical_fields`."""
    return masked_transform(vel[0] * grad[0::2] + vel[1] * grad[1::2])


def block_rows(n: int) -> int:
    """Rows of a block whose six half-spectrum fields fill about 1 MiB."""
    return max(1, 2**20 // (96 * n * (n // 2 + 1)))


def blockwise(step, w: np.ndarray, t: np.ndarray):
    """The image (w', t') of a (..., n, n) pair under a rowwise map, made
    block by block: step(w, t, out_w, out_t) writes the image of a block of
    at most `block_rows(n)` rows, (rows, n, n) each, into out_w and out_t."""
    n = w.shape[-1]
    w3, t3 = w.reshape((-1, n, n)), t.reshape((-1, n, n))
    out_w, out_t = np.empty(w3.shape, np.complex128), np.empty(t3.shape, np.complex128)
    r = block_rows(n)
    for i in range(0, len(w3), r):
        step(w3[i:i + r], t3[i:i + r], out_w[i:i + r], out_t[i:i + r])
    return out_w.reshape(w.shape), out_t.reshape(t.shape)


def nonlinear_B(u: SpectralState, v: SpectralState | None = None) -> SpectralState:
    """Advection pair B(u, v) = (K(w_u) . grad w_v, K(w_u) . grad theta_v).

    The advecting velocity comes from the first argument's vorticity through
    the Biot-Savart kernel K; one argument means B(u, u). Both components of
    the second argument are transported by the same velocity.
    """
    if v is not None and u.n != v.n:
        raise ValueError("resolution mismatch")
    require_mean_free(_band(u.w_hat, _half_symbols(u.n)))
    if v is None:
        f = physical_fields(u.w_hat, u.theta_hat)
        vel, grad = f[:2], f[2:]
    else:
        f = physical_fields(np.stack((u.w_hat, v.w_hat)), np.stack((u.theta_hat, v.theta_hat)))
        vel, grad = f[:2, 0], f[2:, 1]
    return SpectralState(*transport(vel, grad))


def drift_F(state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Full drift -A U - B(U, U) + G U."""
    return apply_G(state, params) - apply_A(state, params) - nonlinear_B(state)


# ---------------------------------------------------------------------------
# spectral projections


def _pn_mask(n: int, level: float) -> np.ndarray:
    # Euclidean ball, boundary included, mean mode excluded
    kk = ksq(n)
    return (kk > 0) & (kk <= level**2 + 1e-9)


def project_PN(state: SpectralState, level: float) -> SpectralState:
    """Restrict to modes 0 < |k| <= level (Euclidean norm, inclusive)."""
    m = _pn_mask(state.n, level)
    return SpectralState(np.where(m, state.w_hat, 0.0), np.where(m, state.theta_hat, 0.0))


def project_QN(state: SpectralState, level: float) -> SpectralState:
    """Complement projection: identity minus the ball restriction."""
    m = _pn_mask(state.n, level)
    return SpectralState(np.where(m, 0.0, state.w_hat), np.where(m, 0.0, state.theta_hat))


# ---------------------------------------------------------------------------
# trigonometric basis states

# Mode conventions: the canonical half-lattice contains k with k1 > 0, or
# k1 = 0 and k2 > 0. Parity m = 0 is cosine, m = 1 is sine. Temperature-slot
# elements are sigma_k^m, vorticity-slot elements are psi_k^m; each has
# squared L2 norm TRIG_NORM_SQ = 2 pi^2 (unnormalized trig).


def is_canonical(k: tuple[int, int]) -> bool:
    return k[0] > 0 or (k[0] == 0 and k[1] > 0)


def canonicalize(k: tuple[int, int], m: int):
    """Map (mode, parity) to its canonical representative and coefficient sign.

    cos is even and sin is odd under k -> -k, so negating a mode keeps the
    cosine element and flips the sine element.
    """
    if k == (0, 0):
        raise ValueError("zero mode has no basis element")
    if is_canonical(k):
        return k, m, 1
    return (-k[0], -k[1]), m, (1 if m == 0 else -1)


class TrigSlots:
    """Slots of (mode, parity, scale) trig elements; element j is scale_j trig_j.
    Raises ValueError for a mode outside |k_i| <= n // 2 - 1 and for two
    elements on one slot."""

    def __init__(self, n: int, elements):
        comps: dict = {}        # (element, slot): value; k = 0 sums its two slots
        for j, ((k1, k2), m, scale) in enumerate(elements):
            if max(abs(k1), abs(k2)) > n // 2 - 1:
                raise ValueError("mode outside resolvable band")
            amp = 0.5 * n * n * (-1.0 if (k1 + k2) % 2 else 1.0)
            part = 0 if m == 0 else 1   # cos: real amp at k and -k; sin: imaginary -amp, amp
            for r, c, v in ((k1 % n, k2 % n, -amp if part else amp),
                            (-k1 % n, -k2 % n, amp)):
                key = (j, 2 * (r * n + c) + part)
                comps[key] = comps.get(key, 0.0) + scale * v
        kept = [(j, i, v) for (j, i), v in comps.items() if v != 0.0]
        rows, idx, vals = zip(*kept) if kept else ((), (), ())
        if len(set(idx)) != len(idx):
            raise ValueError("trig elements share a coefficient component")
        self.n, self.dim = n, len(elements)
        self.rows, self.idx = np.array(rows, np.intp), np.array(idx, np.intp)
        self.vals = np.array(vals, np.float64)

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j e_j of rows c (..., d) as (..., n, n): c_j v per slot, into zeros."""
        out = np.zeros(c.shape[:-1] + (2 * self.n * self.n,))
        out[..., self.idx] = c[..., self.rows] * self.vals
        return out.view(np.complex128).reshape(c.shape[:-1] + (self.n, self.n))

    def _sums(self, x: np.ndarray) -> np.ndarray:
        """Re sum x conj(e_j) of a stack x, (..., d): its x v added onto zero."""
        flat = np.ascontiguousarray(x, np.complex128).view(np.float64)
        flat = flat.reshape(x.shape[:-2] + (2 * self.n * self.n,))
        out = np.zeros(x.shape[:-2] + (self.dim,))
        np.add.at(out, (..., self.rows), flat[..., self.idx] * self.vals)
        return out


@lru_cache(maxsize=None)
def trig_slots(n: int, elements: tuple) -> TrigSlots:
    """The cached `TrigSlots` of a tuple of ((k1, k2), m, scale) elements."""
    return TrigSlots(n, elements)


def slot_pairings(xw: np.ndarray, xt: np.ndarray, yw: TrigSlots | None,
                  yt: TrigSlots, params: PhysicsParams) -> np.ndarray:
    """`pairings` of a stack x against the states y_j = (yw_j, yt_j) of two
    slot tables (yw None: zero vorticity), shape (..., d)."""
    cw = 0.0 if yw is None else yw._sums(xw)
    return quad_weight(xt.shape[-1]) * (params.zeta_star * cw + yt._sums(xt))


def trig_hat(n: int, k1: int, k2: int, m: int) -> np.ndarray:
    """Coefficients of cos(k.x) (m = 0) or sin(k.x) (m = 1) on the n-grid."""
    return trig_slots(n, (((k1, k2), m, 1.0),)).scatter(np.ones(1))


def sigma_state(n: int, k: tuple[int, int], m: int) -> SpectralState:
    """Temperature-slot basis element (0, trig)."""
    return SpectralState(np.zeros((n, n), np.complex128), trig_hat(n, k[0], k[1], m))


def psi_state(n: int, k: tuple[int, int], m: int) -> SpectralState:
    """Vorticity-slot basis element (trig, 0)."""
    return SpectralState(trig_hat(n, k[0], k[1], m), np.zeros((n, n), np.complex128))


def mode_coeff(f_hat: np.ndarray, k: tuple[int, int], m: int) -> np.ndarray:
    """Coefficient of the (k, m) trig element in every real field of a
    (..., n, n) stack (L2 projection), read from the element's slots.
    Raises ValueError for k = (0, 0), which has no basis element."""
    if tuple(k) == (0, 0):
        raise ValueError("zero mode has no basis element")
    n = f_hat.shape[-1]
    sums = trig_slots(n, ((tuple(k), m, 1.0),))._sums(f_hat)[..., 0]
    return quad_weight(n) * sums / TRIG_NORM_SQ


def modes_in_ball(level: float) -> list[tuple[int, int]]:
    """Canonical modes with 0 < |k| <= level, in a fixed deterministic order."""
    lim = int(np.floor(level + 1e-9))
    out = []
    for k1 in range(0, lim + 1):
        for k2 in range(-lim, lim + 1):
            k = (k1, k2)
            if k == (0, 0) or not is_canonical(k):
                continue
            if k1 * k1 + k2 * k2 <= level**2 + 1e-9:
                out.append(k)
    out.sort(key=lambda k: (k[0] * k[0] + k[1] * k[1], k))
    return out


def random_state(n: int, rng: np.random.Generator, amplitude: float = 1.0,
                 decay: float = 2.0, kmax: int | None = None) -> SpectralState:
    """Random smooth mean-free state with spectrum damped like |k|^-decay."""
    if kmax is None:
        kmax = n // 3
    k1, k2 = wavenumbers(n)
    band = (ksq(n) > 0) & (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    kk = np.where(band, ksq(n), 1.0)
    damp = np.where(band, kk ** (-decay / 2.0), 0.0)
    damp *= amplitude * n**2 / np.sqrt(max(1, int(band.sum())))

    def component() -> np.ndarray:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return hermitize(z * damp)

    return SpectralState(component(), component())
