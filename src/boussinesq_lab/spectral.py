"""Spectral core for the vorticity-temperature pair on the 2D torus.

Fields live on a uniform n x n grid covering [-pi, pi)^2. The state is the
pair U = (w, theta): w is the scalar vorticity of the velocity field, theta
the temperature. All operators here are exact on the retained Fourier modes.
Quadratic terms are evaluated pseudo-spectrally with the 2/3 dealiasing
rule: the retained band is 3 |k_i| < n on both axes, so a product of two
band-limited fields has its modes at |k_i| <= 2 kmax < n - kmax, and none
aliases back into the band (Orszag, J. Atmos. Sci. 28, 1971). Products are
alias-free on the retained band, and the band cut drops the rest.

Storage. Every field is real, so its unnormalized fft2 coefficients are
conjugate-symmetric, f(-k) = conj f(k), and the k2 >= 0 columns hold them
all. The full layout, (..., n, n) complex arrays in the wavenumber order of
np.fft.fftfreq, is the public boundary: `SpectralState`, the operators on
states (`nonlinear_B`, `drift_F`, `apply_A`, `apply_G`, `biot_savart`, the
projections, `state_dot`, `l2_dot`, `weighted_norm`), the trig states, and
every array a caller receives. The half storage, (..., n, n//2+1) arrays of
the k2 >= 0 columns, is what every loop runs on: the transforms, the blocks
of `blockwise`, the norms and pairings of raw arrays and the slot tables,
with the symbols `half_symbols`. A state changes layout once where it
enters or leaves a loop: `half` takes the k2 >= 0 columns, and `full`, the
only writer of k2 < 0 columns, adds their conjugate mirror. The column
k2 = 0 and, for even n, the Nyquist column k2 = n/2 hold their own mirror;
the forward transforms make them exactly symmetric in place, as `full`
writes them, so `half(full(h))` is h. The step adds half stacks and scales
them by even real symbols and by i k1, which keeps those columns symmetric
as long as the Nyquist row k1 = n/2 is zero, as it is for every
band-limited state, kick and dealiased product. `hermitize` projects a full
array onto the conjugate-symmetric ones and is needed only where
coefficients are drawn at random (`random_state`).

Transforms. This is the one transform layer: no other module calls an FFT,
and its transforms are the real ones of `scipy.fft`. Every kernel is built
from two stages, which no other module rebuilds: outside this module only
`stepping` reads a symbol table, for the per-mode multipliers of the step,
and none calls a raw transform. Every per-mode constant of a stage is
folded into a cached table once, and every stage writes into one buffer.
`physical_fields` builds the six dealiased physical fields of a stack into
one (6, ..., n, n//2+1) array by two products with one cached symbol stack
that is zero outside the 2/3 band and whose velocity rows carry the
Biot-Savart factor 1/|k|^2 (`_field_symbols`), and makes one inverse
transform of it; `masked_transform` makes one forward transform of a stack
of physical products and cuts it to the dealiased mean-free band in place.
The step (`transport`, also behind `nonlinear_B`) and the tangent and
second variation (their bilinear form) run the two in that order. The
adjoint runs their transposes in reverse order, each written beside its
stage: `masked_transform_transpose`, the band cut of a copy and one
inverse transform of the stack, and `physical_fields_transpose`, one forward
transform of six fields read back through the same symbols, conjugated.
They are transposes between the pairing of the half storage (`half_dot`)
and the grid pairing (2 pi / n)^2 sum_x f g, in which the unnormalized
forward transform and the normalized inverse are each other's transpose.
So a block of the step, the tangent or the adjoint makes one stacked
inverse and one stacked forward transform. A stage that ends at the band
symmetrizes the column k2 = 0 alone: the band 3 |k_i| < n never reaches
the Nyquist column k2 = n/2, since 3 n/2 >= n, so the cut leaves that
column exactly zero. Each output of the two forward stages is bit-equal
to its per-field transform. A large stack is not transformed whole, which
is slower: its arrays outgrow the cache.
`blockwise` applies the step, the tangent and the adjoint to blocks of
`block_rows(n)` rows, the rows whose six half fields fill about 1 MiB (75 at
n = 16, 20 at n = 32, 9 at n = 48). The blocks never share a row, so they run
concurrently: the calling thread takes one share and a pool, made on the
first call with more than one block and sized by the CPUs the process may
run on (its affinity), the others. Each block makes the same arithmetic
wherever it runs, so results do not depend on the CPU count.

Memory. The block temporaries are about 1 MiB each, right at glibc's
dynamic mmap and trim thresholds, so by default the memory a step frees
goes back to the kernel and the next step faults it in again as fresh
zeroed pages. On glibc only, the import fixes an allocator policy once
(`_keep_freed_memory`): temporaries up to 32 MiB come from the heap, and
the heap goes back to the kernel only past 1 GiB free at its top, so freed
memory stays in the process for reuse. It changes no arithmetic, and every
output is bit-identical to a run without it. Elsewhere nothing is set.

Pairings. Every coefficient-space inner product of the package goes through
`pairings` (stack against stack), `slot_pairings` (stack against a slot
table), `weighted_energy` (squared norms of a stack) or the scalar helpers
below, so the quadrature weight `quad_weight` is read nowhere else. A sum
over the half storage counts each column as often as the full spectrum
holds it (`_column_weights`): once for the self-mirrored columns, twice for
the others.

Trig elements are placed by slot tables (`TrigSlots`). A slot is one real
component of a coefficient array, the real or imaginary part of one entry;
cos(k.x) and sin(k.x) fill two, at k and -k, and the half storage keeps
those with k2 >= 0: both on k2 = 0, one elsewhere. The scatter writes one
product c_j v per kept slot into zeros, the k2 >= 0 half of the full
scatter bit for bit. The gather `slot_pairings` equals the pairing against
the dense full stack bit for bit: at a slot the real part of the dense
product is x v (the element's other part is zero there), off the slots it
is +-0, and adding zero to a nonzero sum is exact, so the dense sum rounds
as the two slot products do in either order. Off k2 = 0 those products are
equal, and the gather adds x (2 v) = 2 (x v) onto zero, the same bits; on
k2 = 0 it adds both. It weights the sums as quad_weight * (zeta* cw + ct).

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

import contextvars
import ctypes
import os
import platform
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

    def halves(self):
        """The (w, theta) pair in half storage, `half` of each component."""
        return half(self.w_hat), half(self.theta_hat)

    @classmethod
    def from_halves(cls, w: np.ndarray, t: np.ndarray) -> "SpectralState":
        """The state of a (w, theta) pair in half storage, `full` of each."""
        return cls(full(w), full(t))

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
    Biot-Savart pair (i k2, -i k1) / |k|^2 is applied as i k2 * w * inv_ksq
    by `biot_savart`; the kernels read it folded (`_field_symbols`)."""

    ik1: np.ndarray          # i k1, the symbol of d/dx1
    ik2: np.ndarray          # i k2, the symbol of d/dx2
    neg_ik1: np.ndarray      # -i k1
    ksq: np.ndarray          # |k|^2
    inv_ksq: np.ndarray      # 1 / |k|^2, zero on the mean mode
    dealias: np.ndarray      # 2/3 rule: 3 |k_i| < n on both axes
    bmask: np.ndarray        # the 2/3 mask without the mean mode


def _band_edge(n: int) -> int:
    """The largest wavenumber of the 2/3 band, the largest k with 3 k < n."""
    return (n - 1) // 3


@lru_cache(maxsize=None)
def symbols(n: int) -> Symbols:
    k1, k2 = wavenumbers(n)
    kk = ksq(n)
    inv = np.zeros((n, n))
    np.divide(1.0, kk, out=inv, where=kk > 0)
    dealias = (np.abs(k1) <= _band_edge(n)) & (np.abs(k2) <= _band_edge(n))
    return Symbols(ik1=1j * k1, ik2=1j * k2, neg_ik1=-1j * k1, ksq=kk, inv_ksq=inv,
                   dealias=dealias, bmask=dealias & (kk > 0))


@lru_cache(maxsize=None)
def half_symbols(n: int) -> Symbols:
    """`symbols(n)` on the k2 >= 0 columns, the half storage."""
    sym = symbols(n)
    return Symbols(*(np.ascontiguousarray(getattr(sym, f.name)[..., :n // 2 + 1])
                     for f in fields(Symbols)))


@lru_cache(maxsize=None)
def _field_symbols(n: int):
    """The symbols of `physical_fields` on the half storage, zero outside the
    2/3 band: (i k2 / |k|^2, -i k1 / |k|^2, i k1, i k2) for w, the
    Biot-Savart pair first, and (i k1, i k2) for theta; then the conjugates
    of both, which `physical_fields_transpose` reads."""
    h = half_symbols(n)
    band = np.stack([np.where(h.dealias, ik, 0.0)
                     for ik in (h.ik2 * h.inv_ksq, h.neg_ik1 * h.inv_ksq, h.ik1, h.ik2)])
    conj = np.conj(band)
    return band, band[2:], conj, conj[2:]


def _cut_to_band(h: np.ndarray) -> np.ndarray:
    """Zero a half stack outside the dealiased mean-free band in place, the
    `bmask` cut as three slice writes: the rows 3 |k1| >= n, the columns
    3 k2 >= n and the mean mode; returns h."""
    kmax = _band_edge(h.shape[-2])
    h[..., kmax + 1:h.shape[-2] - kmax, :] = 0.0
    h[..., kmax + 1:] = 0.0
    h[..., 0, 0] = 0.0
    return h


@lru_cache(maxsize=None)
def _column_weights(n: int) -> np.ndarray:
    """Multiplicity of each half-storage column in the full spectrum: 1 for
    k2 = 0 and, for even n, the Nyquist column k2 = n/2; 2 for the others."""
    wt = np.full(n // 2 + 1, 2.0)
    wt[_self_mirrored(n)] = 1.0
    return wt


@lru_cache(maxsize=None)
def grid_points(n: int):
    x = -np.pi + TWO_PI * np.arange(n) / n
    return x[:, None], x[None, :]


def _inverse(h: np.ndarray, n: int) -> np.ndarray:
    return scipy.fft.irfft2(h, s=(n, n), axes=(-2, -1))


def _forward(f: np.ndarray) -> np.ndarray:
    return scipy.fft.rfft2(f, axes=(-2, -1))


def half(f: np.ndarray) -> np.ndarray:
    """The half storage (..., n, n//2+1) of a (..., n, n) coefficient stack:
    its k2 >= 0 columns, as a new contiguous array."""
    return np.ascontiguousarray(f[..., :f.shape[-1] // 2 + 1])


def _self_mirrored(n: int) -> slice:
    # the columns that hold their own mirror: k2 = 0, and k2 = n/2 for even n
    return slice(0, n // 2 + 1, n // 2) if n % 2 == 0 else slice(0, 1)


def full(h: np.ndarray) -> np.ndarray:
    """The (..., n, n) coefficients of a half stack (..., n, n//2+1): its
    k2 >= 0 columns are h, its k2 < 0 columns the conjugate mirror
    f(-k) = conj f(k), indices mod n. The self-mirrored columns are
    symmetrized, so the result is exactly conjugate-symmetric. This is the
    only writer of k2 < 0 columns."""
    n, c = h.shape[-2], h.shape[-1]
    out = np.empty(h.shape[:-1] + (n,), np.complex128)
    out[..., :c] = h
    # -k1 mod n keeps row 0 and reverses rows 1 .. n-1; column k2 < 0 reads
    # column -k2, so columns n - c .. 1 fill c .. n - 1
    np.conjugate(h[..., :1, n - c:0:-1], out=out[..., :1, c:])
    np.conjugate(h[..., :0:-1, n - c:0:-1], out=out[..., 1:, c:])
    _symmetrize(out[..., :c])
    return out


def _symmetrize(h: np.ndarray, columns: slice | None = None) -> np.ndarray:
    """Make the self-mirrored columns of a half stack (or those of them that
    columns selects) exactly conjugate-symmetric in place, as `full` writes
    them; returns h."""
    col = h[..., _self_mirrored(h.shape[-2]) if columns is None else columns]
    # row k1 becomes 0.5 (f(k1) + conj f(-k1)): -k1 mod n keeps row 0 and
    # reverses rows 1 .. n-1
    mean = np.empty(col.shape, np.complex128)
    np.conjugate(col[..., :1, :], out=mean[..., :1, :])
    np.conjugate(col[..., :0:-1, :], out=mean[..., 1:, :])
    mean += col
    mean *= 0.5
    col[...] = mean
    return h


def to_physical(f_hat: np.ndarray) -> np.ndarray:
    """Real field of a half stack."""
    return _inverse(f_hat, f_hat.shape[-2])


_ZERO_COLUMN = slice(0, 1)     # the one self-mirrored column inside the band


def masked_transform(f: np.ndarray) -> np.ndarray:
    """Half-storage coefficients of a physical product, cut to the dealiased
    mean-free band in place."""
    return _symmetrize(_cut_to_band(_forward(f)), _ZERO_COLUMN)


def masked_transform_transpose(h: np.ndarray) -> np.ndarray:
    """The transpose of `masked_transform`: the physical fields of a half
    stack cut to the dealiased mean-free band; h is left as it was."""
    return to_physical(_cut_to_band(h.copy()))


def hermitize(f_hat: np.ndarray) -> np.ndarray:
    """Project onto coefficient arrays of real fields (conjugate symmetry)."""
    mirror = np.conj(np.roll(f_hat[..., ::-1, ::-1], (1, 1), axis=(-2, -1)))
    return 0.5 * (f_hat + mirror)


# ---------------------------------------------------------------------------
# inner products and norms


def quad_weight(n: int) -> float:
    """Coefficient-space weight (2 pi)^2 / n^4 of the continuum L2 pairing."""
    return TWO_PI**2 / n**4


def _column_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last two axes of a real half stack, each column counted
    as often as it appears in the full spectrum (`_column_weights`)."""
    return (x.sum(-2) * _column_weights(x.shape[-2])).sum(-1)


def half_dot(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Continuum L2 pairing of the real fields behind two half stacks,
    shape (...)."""
    return quad_weight(f.shape[-2]) * _column_sum((f * np.conj(g)).real)


def l2_dot(f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """Continuum L2 pairing of the real fields behind two (n, n) coefficient
    arrays, read from their half storage."""
    return float(half_dot(half(f_hat), half(g_hat)))


def sobolev_sq(f_hat: np.ndarray, s):
    """Squared homogeneous-plus-mean Sobolev norm, sum |k|^{2s} |f_k|^2
    weights, of every field of a half stack, shape (...); for a sequence of
    indices s, a tuple of one such sum per index, all read from one |f_k|^2.

    s = 0 reduces to the plain L2 norm (the k = 0 factor 0^0 counts as 1).
    Negative s is rejected: the mean mode would divide by zero.
    """
    single = np.ndim(s) == 0
    indices = (s,) if single else tuple(s)
    if any(x < 0 for x in indices):
        raise ValueError("negative smoothness index not supported")
    n = f_hat.shape[-2]
    kk = half_symbols(n).ksq
    sq = np.abs(f_hat) ** 2
    sums = tuple(quad_weight(n) * _column_sum(kk ** x * sq if x != 0 else sq) for x in indices)
    return sums[0] if single else sums


def state_dot(a: SpectralState, b: SpectralState, params: PhysicsParams) -> float:
    """Weighted state inner product zeta* <w, w'> + <theta, theta'>."""
    return params.zeta_star * l2_dot(a.w_hat, b.w_hat) + l2_dot(a.theta_hat, b.theta_hat)


def weighted_norms(w_hat: np.ndarray, t_hat: np.ndarray, params: PhysicsParams,
                   s: float = 0.0) -> np.ndarray:
    """sqrt(zeta* |w|_{s}^2 + |theta|_{s}^2), the Lyapunov norm at smoothness
    s, of every state in a half stack."""
    return np.sqrt(params.zeta_star * sobolev_sq(w_hat, s) + sobolev_sq(t_hat, s))


def weighted_norm(state: SpectralState, params: PhysicsParams, s: float = 0.0) -> float:
    """`weighted_norms` of one state."""
    return float(weighted_norms(*state.halves(), params, s))


def pairings(xw: np.ndarray, xt: np.ndarray, yw: np.ndarray, yt: np.ndarray,
             params: PhysicsParams) -> np.ndarray:
    """Weighted inner products zeta* <x_w, y_w> + <x_t, y_t> of every state of
    a half stack x (..., n, n//2+1) against every state of a half stack y
    (d, n, n//2+1), shape (..., d)."""
    wt = _column_weights(xw.shape[-2])
    cw = np.einsum("...ij,dij->...d", xw, np.conj(yw) * wt).real
    ct = np.einsum("...ij,dij->...d", xt, np.conj(yt) * wt).real
    return quad_weight(xw.shape[-2]) * (params.zeta_star * cw + ct)


def weighted_energy(w_hat: np.ndarray, t_hat: np.ndarray, params: PhysicsParams) -> np.ndarray:
    """zeta* |w|^2 + |theta|^2 of every state in a half stack."""
    return quad_weight(w_hat.shape[-2]) * (params.zeta_star * _column_sum(np.abs(w_hat) ** 2)
                                           + _column_sum(np.abs(t_hat) ** 2))


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


def physical_fields(w_hat: np.ndarray, t_hat: np.ndarray) -> np.ndarray:
    """The six dealiased physical fields (u1, u2, dw/dx1, dw/dx2, dtheta/dx1,
    dtheta/dx2) of a half stack pair, u the velocity of w (mean unchecked), as
    one (6, ..., n, n) array from one inverse transform."""
    n = w_hat.shape[-2]
    sym_w, sym_t = _field_symbols(n)[:2]
    lead = (1,) * (w_hat.ndim - 2)          # the symbols broadcast over the batch
    out = np.empty((6,) + w_hat.shape, np.complex128)
    np.multiply(sym_w.reshape((4,) + lead + sym_w.shape[1:]), w_hat, out=out[:4])
    np.multiply(sym_t.reshape((2,) + lead + sym_t.shape[1:]), t_hat, out=out[4:])
    return _inverse(out, n)


def physical_fields_transpose(f: np.ndarray):
    """The transpose of `physical_fields`: the (w, theta) half stack pair of
    six physical fields f (6, ..., n, n), from one forward transform read
    back through the same symbols, each conjugated. The symbols vanish
    outside the band, so only the column k2 = 0 needs symmetrizing."""
    n = f.shape[-1]
    conj_w, conj_t = _field_symbols(n)[2:]
    lead = (1,) * (f.ndim - 3)
    c = _forward(f)
    c[:4] *= conj_w.reshape((4,) + lead + conj_w.shape[1:])
    c[4:] *= conj_t.reshape((2,) + lead + conj_t.shape[1:])
    out = np.empty((2,) + c.shape[1:], np.complex128)
    np.sum(c[:4], axis=0, out=out[0])
    np.sum(c[4:], axis=0, out=out[1])
    _symmetrize(out, _ZERO_COLUMN)
    return out[0], out[1]


def transport(vel: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(u . grad w, u . grad theta) cut to the dealiased mean-free band, as one
    (2, ..., n, n) stack from one forward transform, of the velocity
    vel = (u1, u2) and the gradients grad = (dw/dx1, dw/dx2, dtheta/dx1,
    dtheta/dx2), rows 0-1 and 2-5 of `physical_fields`. The products
    accumulate in one buffer."""
    prod = np.multiply(vel[0], grad[0::2])
    prod += vel[1] * grad[1::2]
    return masked_transform(prod)


def block_rows(n: int) -> int:
    """Rows of a block whose six half-spectrum fields fill about 1 MiB."""
    return max(1, 2**20 // (96 * n * (n // 2 + 1)))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _keep_freed_memory() -> None:
    """On glibc, serve every block temporary from the heap and keep what
    it frees: mmap threshold 32 MiB (its 64-bit maximum), trim threshold
    1 GiB. Both are set together: setting either one alone turns glibc's
    dynamic thresholds off and leaves the other at its 128 KiB default.
    Elsewhere, or when mallopt cannot be loaded, it does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 * 2**20)         # M_MMAP_THRESHOLD
    mallopt(-1, 2**30)              # M_TRIM_THRESHOLD


_keep_freed_memory()
_CPUS = _cpu_count()
_pool_thread = threading.local()            # .busy is set in the pool's threads


def _mark_pool_thread() -> None:
    _pool_thread.busy = True


# an executor starts no thread before its first submit, so import starts none
_pool = ThreadPoolExecutor(max(1, _CPUS - 1), thread_name_prefix="blockwise",
                           initializer=_mark_pool_thread)


def blockwise(step, w: np.ndarray, t: np.ndarray):
    """The image (w', t') of a half stack pair under a rowwise map, made
    block by block: step(w, t, out_w, out_t) writes the image of a block of
    at most `block_rows(n)` rows, (rows, n, n//2+1) each, into out_w and
    out_t.

    The blocks never share a row, so they run concurrently: dealt into one
    group per CPU (at most one per block), the calling thread runs group 0
    and the block pool the others, each under a copy of the caller's
    context, which holds its `np.errstate`. It returns once every group is
    done, raising the first group's error if any raised. One block, one CPU
    or a call from a pool thread runs the blocks in turn on the calling
    thread. The partition and each row's arithmetic are the same either
    way, so the result is too, bit for bit."""
    n = w.shape[-2]
    w3, t3 = w.reshape((-1,) + w.shape[-2:]), t.reshape((-1,) + t.shape[-2:])
    out_w, out_t = np.empty(w3.shape, np.complex128), np.empty(t3.shape, np.complex128)
    r = block_rows(n)
    starts = range(0, len(w3), r)

    def run(group):
        for i in group:
            step(w3[i:i + r], t3[i:i + r], out_w[i:i + r], out_t[i:i + r])

    k = min(_CPUS, len(starts))
    if k <= 1 or getattr(_pool_thread, "busy", False):
        run(starts)
    else:
        futures = [_pool.submit(contextvars.copy_context().run, run, starts[g::k])
                   for g in range(1, k)]
        try:
            run(starts[::k])
        finally:
            wait(futures)
        for f in futures:
            f.result()
    return out_w.reshape(w.shape), out_t.reshape(t.shape)


def nonlinear_B(u: SpectralState, v: SpectralState | None = None) -> SpectralState:
    """Advection pair B(u, v) = (K(w_u) . grad w_v, K(w_u) . grad theta_v).

    The advecting velocity comes from the first argument's vorticity through
    the Biot-Savart kernel K; one argument means B(u, u). Both components of
    the second argument are transported by the same velocity.
    """
    if v is not None and u.n != v.n:
        raise ValueError("resolution mismatch")
    uw, ut = u.halves()
    require_mean_free(np.where(half_symbols(u.n).dealias, uw, 0.0))
    if v is None:
        f = physical_fields(uw, ut)
        vel, grad = f[:2], f[2:]
    else:
        vw, vt = v.halves()
        f = physical_fields(np.stack((uw, vw)), np.stack((ut, vt)))
        vel, grad = f[:2, 0], f[2:, 1]
    return SpectralState.from_halves(*transport(vel, grad))


def drift_F(state: SpectralState, params: PhysicsParams) -> SpectralState:
    """Full drift -A U - B(U, U) + G U."""
    return apply_G(state, params) - apply_A(state, params) - nonlinear_B(state)


# ---------------------------------------------------------------------------
# spectral projections


def in_ball(kk, level: float):
    """|k| <= level from |k|^2 = kk, boundary included to roundoff."""
    return kk <= level**2 + 1e-9


def pn_mask(n: int, level: float) -> np.ndarray:
    # Euclidean ball, boundary included, mean mode excluded
    kk = ksq(n)
    return (kk > 0) & in_ball(kk, level)


def project_PN(state: SpectralState, level: float) -> SpectralState:
    """Restrict to modes 0 < |k| <= level (Euclidean norm, inclusive)."""
    m = pn_mask(state.n, level)
    return SpectralState(np.where(m, state.w_hat, 0.0), np.where(m, state.theta_hat, 0.0))


def project_QN(state: SpectralState, level: float) -> SpectralState:
    """Complement projection: identity minus the ball restriction."""
    m = pn_mask(state.n, level)
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
        c_half = n // 2 + 1
        comps: dict = {}        # (element, slot): value; k = 0 sums its two slots
        for j, ((k1, k2), m, scale) in enumerate(elements):
            if max(abs(k1), abs(k2)) > n // 2 - 1:
                raise ValueError("mode outside resolvable band")
            amp = 0.5 * n * n * (-1.0 if (k1 + k2) % 2 else 1.0)
            part = 0 if m == 0 else 1   # cos: real amp at k and -k; sin: imaginary -amp, amp
            for r, c, v in ((k1 % n, k2 % n, -amp if part else amp),
                            (-k1 % n, -k2 % n, amp)):
                if c < c_half:          # the half storage keeps k2 >= 0
                    key = (j, 2 * (r * c_half + c) + part)
                    comps[key] = comps.get(key, 0.0) + scale * v
        kept = [(j, i, v) for (j, i), v in comps.items() if v != 0.0]
        rows, idx, vals = zip(*kept) if kept else ((), (), ())
        if len(set(idx)) != len(idx):
            raise ValueError("trig elements share a coefficient component")
        self.n, self.dim = n, len(elements)
        self.rows, self.idx = np.array(rows, np.intp), np.array(idx, np.intp)
        self.vals = np.array(vals, np.float64)
        # a slot off column 0 stands for itself and its mirror (|k2| < n/2)
        self._gather_vals = _column_weights(n)[self.idx // 2 % c_half] * self.vals

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j e_j of rows c (..., d) as a half stack (..., n, n//2+1):
        c_j v per slot, into zeros."""
        shape = (self.n, self.n // 2 + 1)
        out = np.zeros(c.shape[:-1] + (2 * shape[0] * shape[1],))
        out[..., self.idx] = c[..., self.rows] * self.vals
        return out.view(np.complex128).reshape(c.shape[:-1] + shape)

    def _sums(self, x: np.ndarray) -> np.ndarray:
        """Re sum x conj(e_j) over the full spectrum of a half stack x,
        (..., d): its x v added onto zero, twice for a slot off column 0 (as
        x (2 v), the same bits). Raises ValueError on any other layout."""
        if x.shape[-2:] != (self.n, self.n // 2 + 1):
            raise ValueError(f"expected a half stack (..., {self.n}, {self.n // 2 + 1}), "
                             f"got shape {x.shape}")
        flat = np.ascontiguousarray(x, np.complex128).view(np.float64)
        flat = flat.reshape(x.shape[:-2] + (2 * x.shape[-2] * x.shape[-1],))
        out = np.zeros(x.shape[:-2] + (self.dim,))
        np.add.at(out, (..., self.rows), flat[..., self.idx] * self._gather_vals)
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
    return quad_weight(xt.shape[-2]) * (params.zeta_star * cw + yt._sums(xt))


def trig_hat(n: int, k1: int, k2: int, m: int) -> np.ndarray:
    """Coefficients (n, n) of cos(k.x) (m = 0) or sin(k.x) (m = 1) on the n-grid."""
    # + 0.0: the mirror's conjugate of a +0.0 imaginary part is -0.0
    return full(trig_slots(n, (((k1, k2), m, 1.0),)).scatter(np.ones(1))) + 0.0


def sigma_state(n: int, k: tuple[int, int], m: int) -> SpectralState:
    """Temperature-slot basis element (0, trig)."""
    return SpectralState(np.zeros((n, n), np.complex128), trig_hat(n, k[0], k[1], m))


def psi_state(n: int, k: tuple[int, int], m: int) -> SpectralState:
    """Vorticity-slot basis element (trig, 0)."""
    return SpectralState(trig_hat(n, k[0], k[1], m), np.zeros((n, n), np.complex128))


def mode_coeff(f_hat: np.ndarray, k: tuple[int, int], m: int) -> np.ndarray:
    """Coefficient of the (k, m) trig element in every real field of a half
    stack (L2 projection), read from the element's slots.
    Raises ValueError for k = (0, 0), which has no basis element."""
    if tuple(k) == (0, 0):
        raise ValueError("zero mode has no basis element")
    n = f_hat.shape[-2]
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
            if in_ball(k1 * k1 + k2 * k2, level):
                out.append(k)
    out.sort(key=lambda k: (k[0] * k[0] + k[1] * k[1], k))
    return out


def random_state(n: int, rng: np.random.Generator, amplitude: float = 1.0,
                 decay: float = 2.0, kmax: int | None = None) -> SpectralState:
    """Random smooth mean-free state with spectrum damped like |k|^-decay;
    kmax defaults to the edge of the 2/3 band, the largest k with 3 k < n."""
    if kmax is None:
        kmax = _band_edge(n)
    k1, k2 = wavenumbers(n)
    band = (ksq(n) > 0) & (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    kk = np.where(band, ksq(n), 1.0)
    damp = np.where(band, kk ** (-decay / 2.0), 0.0)
    damp *= amplitude * n**2 / np.sqrt(max(1, int(band.sum())))

    def component() -> np.ndarray:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return hermitize(z * damp)

    return SpectralState(component(), component())
