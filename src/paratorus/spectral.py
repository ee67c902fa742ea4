"""Truncated Fourier calculus for real fields on the torus T^n, n <= 3.

Fields are stored by their retained Fourier coefficients u_hat(k), |k_i| <= K,
with the normalized convention u(x) = sum_k u_hat(k) exp(i k.x), so that
u_hat(0) is the mean value. Nonlinear operations go through a padded
collocation grid of points_per_dim = 4K points per axis, which makes products
of two retained fields alias-free on the retained band.

A product whose spectrum is known to be narrower may use a smaller grid: a
product supported in |k_i| <= s is exact on the retained band on any grid of
N > s + K points per axis, since no alias of it lands on a retained mode. The
para-product levels run on such a second grid (DyadicCutoff.para_points), so
analyze() reads the point count N from the samples' trailing shape and takes
any 2K < N <= 4K.

The fields are real, so their coefficients are Hermitian, u_hat(-k) =
conj(u_hat(k)), and the transforms are real, with norm="forward": samples()
makes irfftn's passes from the modes with k_last >= 0; analyze() makes rfftn's
one axis at a time, keeping only the retained bins after each, and fills the
rest by conjugation. Point evaluation factors e^{i k.x} = prod_a e^{i k_a x_a}
and takes each factor from powers of e^{i x_a}.

A field may carry leading component axes: its coefficients have shape
(*component_shape, *mode_shape), and every transform, derivative and norm
acts on all components at once. Vector and matrix fields are such fields
with one and two component axes, built by SpectralField.stack or constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError, SerializationError

_SUPPORTED_DIMS = (1, 2, 3)

# |coefficients| below this are dropped when serializing fields to JSON
SERIALIZATION_THRESHOLD = 1e-16
# stored conjugate pairs disagreeing by more than this are rejected on load
HERMITIAN_REJECT_TOL = 1e-10


@dataclass(frozen=True)
class TorusGrid:
    """Mode/collocation bookkeeping shared by all fields of one resolution.

    dim: torus dimension n (1, 2 or 3 supported)
    max_mode: K; retained modes are |k_i| <= K, on N = 4K collocation points per dimension
    """

    dim: int
    max_mode: int

    def __post_init__(self):
        if self.dim not in _SUPPORTED_DIMS:
            raise ValueError(f"dim must be one of {_SUPPORTED_DIMS}, got {self.dim}")
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")

    @property
    def points_per_dim(self) -> int:
        return 4 * self.max_mode

    @property
    def mode_shape(self) -> tuple:
        return (2 * self.max_mode + 1,) * self.dim

    @property
    def point_shape(self) -> tuple:
        return (self.points_per_dim,) * self.dim

    @cached_property
    def axes(self) -> tuple:
        """The trailing (mode or point) axes of a field's arrays."""
        return tuple(range(-self.dim, 0))

    @cached_property
    def mode_axis(self) -> np.ndarray:
        return np.arange(-self.max_mode, self.max_mode + 1)

    @cached_property
    def mode_mesh(self) -> tuple:
        """Tuple of dim arrays of shape mode_shape carrying k_i per mode."""
        return tuple(np.meshgrid(*([self.mode_axis] * self.dim), indexing="ij"))

    @cached_property
    def mode_norm(self) -> np.ndarray:
        return np.sqrt(sum(k.astype(float) ** 2 for k in self.mode_mesh))

    @cached_property
    def mode_list(self) -> np.ndarray:
        """All retained modes as an (n_modes, dim) integer array."""
        return np.stack([k.ravel() for k in self.mode_mesh], axis=-1)

    @cached_property
    def gradient_symbol(self) -> np.ndarray:
        """i k_a per mode, shape (dim, *mode_shape)."""
        return np.stack([1j * k for k in self.mode_mesh])

    @cached_property
    def mean_index(self) -> tuple:
        """Index of the k = 0 coefficient of every component."""
        return (Ellipsis,) + (self.max_mode,) * self.dim

    @cached_property
    def point_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.points_per_dim) / self.points_per_dim

    @cached_property
    def point_mesh(self) -> tuple:
        return tuple(np.meshgrid(*([self.point_axis] * self.dim), indexing="ij"))

    @cached_property
    def _reverse_index(self) -> tuple:
        """k -> -k on the trailing mode axes."""
        return (Ellipsis,) + (slice(None, None, -1),) * self.dim

    def require_same(self, other: "TorusGrid") -> None:
        if self != other:
            raise GridMismatchError(f"grid mismatch: {self} vs {other}")


@dataclass
class SpectralField:
    """A real field on T^n held as truncated Fourier coefficients.

    coeffs has shape (*shape, *grid.mode_shape); `shape` is the component
    shape, () for a scalar field. The coefficients are Hermitian,
    coeffs(-k) = conj(coeffs(k)): analyze() builds them so, and samples()
    reads only their k_last >= 0 half.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    # numpy defers to the reflected operators below instead of broadcasting
    __array_ufunc__ = None

    def __post_init__(self):
        if self.coeffs.shape[self.coeffs.ndim - self.grid.dim :] != self.grid.mode_shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not end in {self.grid.mode_shape}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    # --- constructors -------------------------------------------------

    @staticmethod
    def constant(grid: TorusGrid, value) -> "SpectralField":
        """The constant field `value`; an array value gives one component per entry."""
        value = np.asarray(value)
        f = SpectralField(grid, np.zeros(value.shape + grid.mode_shape, dtype=np.complex128))
        f.coeffs[grid.mean_index] = value
        return f

    @staticmethod
    def stack(items) -> "SpectralField":
        """One field from a sequence of fields, or of nested sequences of them, on one grid: each
        level of nesting is a leading component axis, so rows of fields make a (p, q) field.
        ValueError for an empty sequence, GridMismatchError for fields on two grids."""
        parts = [x if isinstance(x, SpectralField) else SpectralField.stack(x) for x in items]
        if not parts:
            raise ValueError("cannot stack an empty sequence of fields")
        for p in parts[1:]:
            parts[0].grid.require_same(p.grid)
        return SpectralField(parts[0].grid, np.stack([p.coeffs for p in parts]))

    @staticmethod
    def from_modes(grid: TorusGrid, modes: dict) -> "SpectralField":
        """Build a field from {k: coefficient}; the conjugate modes are mirrored."""
        f = SpectralField.constant(grid, 0.0)
        K = grid.max_mode
        for k, val in modes.items():
            kv = (k,) if np.isscalar(k) else tuple(k)
            if len(kv) != grid.dim:
                raise ValueError(f"mode {kv} has wrong dimension")
            if any(abs(c) > K for c in kv):
                raise ValueError(f"mode {kv} beyond cutoff K={K}")
            idx = tuple(c + K for c in kv)
            ridx = tuple(-c + K for c in kv)
            f.coeffs[idx] += val
            if ridx != idx:
                f.coeffs[ridx] += np.conj(val)
        return f

    # --- components -----------------------------------------------------

    @property
    def shape(self) -> tuple:
        """Component shape: () for a scalar, (m,) for a vector, (p, q) for a matrix."""
        return self.coeffs.shape[: self.coeffs.ndim - self.grid.dim]

    def __getitem__(self, idx) -> "SpectralField":
        """Component(s) idx as a view: writing to its coeffs writes to this field."""
        return SpectralField(self.grid, self.coeffs[idx])

    def __iter__(self):
        return (self[i] for i in range(self.shape[0]))

    # --- basics -------------------------------------------------------

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def mean(self):
        """Mean value: a float for a scalar field, an array of the component shape otherwise."""
        m = np.real(self.coeffs[self.grid.mean_index])
        return float(m) if m.ndim == 0 else m

    def is_constant(self) -> bool:
        c = self.coeffs.copy()
        c[self.grid.mean_index] = 0.0
        return not np.any(c)

    def samples(self) -> np.ndarray:
        """Real samples on the padded N^n collocation grid, one transform for all components."""
        return _synthesize_half(self.grid, self.coeffs[..., self.grid.max_mode :])

    # --- linear calculus ----------------------------------------------

    def derivative(self, axis: int = 0) -> "SpectralField":
        if axis >= self.grid.dim:
            raise ValueError(f"axis {axis} >= dim {self.grid.dim}")
        return SpectralField(self.grid, self.coeffs * self.grid.gradient_symbol[axis])

    def jacobian(self) -> "SpectralField":
        """Gradient as one appended component axis: entry (..., a) = d/d(theta_a)."""
        g = self.grid
        return SpectralField(g, np.expand_dims(self.coeffs, -g.dim - 1) * g.gradient_symbol)

    def translate(self, shift) -> "SpectralField":
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
        if shift.shape != (self.grid.dim,):
            raise ValueError(f"shift must have {self.grid.dim} components")
        return SpectralField(self.grid, self.coeffs * _shift_symbol(self.grid, tuple(shift.tolist())))

    def omega_derivative(self, omega) -> "SpectralField":
        """Directional derivative (omega . d/dx)."""
        omega = np.asarray(omega, dtype=float)
        kw = sum(k * w for k, w in zip(self.grid.mode_mesh, omega))
        return SpectralField(self.grid, self.coeffs * (1j * kw))

    def laplace_inverse(self) -> "SpectralField":
        """Mean-free solution of Laplace(u) = f; the mean of f is discarded."""
        k2 = self.grid.mode_norm**2
        out = np.zeros_like(self.coeffs)
        nz = k2 > 0
        out[..., nz] = -self.coeffs[..., nz] / k2[nz]
        return SpectralField(self.grid, out)

    # --- norms (over all components) ------------------------------------

    def sobolev_norm(self, s: float) -> float:
        w = (1.0 + self.grid.mode_norm**2) ** s
        return float(np.sqrt(np.sum(w * np.abs(self.coeffs) ** 2)))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples())))

    # --- algebra ----------------------------------------------------------

    def product(self, other: "SpectralField") -> "SpectralField":
        """Dealiased pointwise product (padded collocation, re-truncated)."""
        self.grid.require_same(other.grid)
        # constant factors act exactly on coefficients
        if self.is_constant():
            return SpectralField(other.grid, other.coeffs * self.mean())
        if other.is_constant():
            return SpectralField(self.grid, self.coeffs * other.mean())
        return analyze(self.grid, self.samples() * other.samples())

    def matmul(self, other: "SpectralField") -> "SpectralField":
        return analyze(self.grid, np.einsum("pq...,qr...->pr...", self.samples(), other.samples()))

    def __add__(self, other):
        """Sum of fields; a number (or an array of the component shape) shifts the means."""
        if isinstance(other, SpectralField):
            self.grid.require_same(other.grid)
            return SpectralField(self.grid, self.coeffs + other.coeffs)
        out = self.copy()
        out.coeffs[self.grid.mean_index] += other
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SpectralField):
            self.grid.require_same(other.grid)
            return SpectralField(self.grid, self.coeffs - other.coeffs)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return SpectralField(self.grid, self.coeffs * other)
        return self.product(other)

    __rmul__ = __mul__


# the former constructor names, kept only for the benchmark
VectorField = SpectralField.stack
MatrixField = SpectralField


@lru_cache(maxsize=16)  # a solve translates by one shift
def _shift_symbol(grid: TorusGrid, shift: tuple) -> np.ndarray:
    """e^{i k.shift} per retained mode (read-only), the symbol of translation by shift."""
    phase = sum(k * s for k, s in zip(grid.mode_mesh, shift))
    symbol = np.exp(1j * phase)
    symbol.flags.writeable = False
    return symbol


@lru_cache(maxsize=64)  # two grids per resolution in use
def _half_index(grid: TorusGrid, points: int) -> tuple:
    """Index of the retained k_last >= 0 modes on the real-FFT grid of `points` per axis.

    Arrays with component axes prefix it with one slice per axis, not with
    an Ellipsis, which would slow every scalar transform.
    """
    bins = grid.mode_axis % points
    return np.ix_(*[bins] * (grid.dim - 1)) + (slice(grid.max_mode + 1),)


def _synthesize_half(grid: TorusGrid, half: np.ndarray, points: int | None = None) -> np.ndarray:
    """Real samples on `points` (default grid.points_per_dim) per axis from the k_last >= 0 half
    (*lead, *mode_shape[:-1], B), B <= K + 1 columns k_last < B and zeros above, by irfftn's
    passes without its argument handling: ifft over each leading axis in turn, then irfft."""
    shape = grid.point_shape if points is None else (points,) * grid.dim
    if grid.dim > 1:
        lead = half.shape[: half.ndim - grid.dim]
        buf = np.zeros(lead + shape[:-1] + half.shape[-1:], dtype=complex)
        buf[(slice(None),) * len(lead) + _half_index(grid, shape[0])] = half
        half = buf
    for ax in grid.axes[:-1]:
        half = np.fft.ifft(half, axis=ax, norm="forward")
    return np.fft.irfft(half, shape[-1], axis=-1, norm="forward")


def _analyze_half(grid: TorusGrid, samples: np.ndarray) -> np.ndarray:
    """The k_last >= 0 half (*lead, *mode_shape[:-1], K + 1) of analyze(grid, samples), its plane
    k_last = 0 made Hermitian by conjugation: k_{n-1} < 0, then k_{n-2} < 0 on k_{n-1} = 0, ..."""
    K, N = grid.max_mode, samples.shape[-1]
    c = np.fft.rfft(samples, axis=-1, norm="forward")[..., : K + 1]
    for ax in grid.axes[-2::-1]:
        c = np.fft.fft(c, axis=ax, norm="forward").take(grid.mode_axis % N, axis=ax)
    for ax in range(1, grid.dim):
        plane = (Ellipsis, slice(None, K)) + (K,) * (ax - 1) + (0,)
        c[plane] = np.conj(np.flip(c, grid.axes[:-1])[plane])
    return c


def _hermitian_extend(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Full coefficients from their k_last >= 0 half, k_last < 0 by conjugation, in a fresh
    C-order array: every later reduction then sums in the same order as for a scalar field."""
    K = grid.max_mode
    coeffs = np.empty(half.shape[:-1] + (2 * K + 1,), dtype=complex)
    coeffs[..., K:] = half
    coeffs[..., :K] = np.conj(coeffs[grid._reverse_index][..., :K])
    return coeffs


def analyze(grid: TorusGrid, samples: np.ndarray, return_tail: bool = False):
    """Forward transform of real collocation samples, truncated to |k_i| <= K.

    samples has shape (*component_shape, N, ..., N), one N per axis, with
    2K < N <= grid.points_per_dim; all components go through one transform.
    The passes of rfftn run one axis at a time, last axis first as rfftn does,
    and keep only the retained bins (K + 1 on the last axis, 2K + 1 on the
    others) before the next pass: every kept fiber goes through the same 1-D
    transform as in rfftn, so the half spectrum (_analyze_half) is rfftn's to
    the bit; _hermitian_extend adds k_last < 0. With return_tail=True also
    reports the discarded high-mode energy fraction per component (a float for
    a scalar field), the truncation monitor used by the solvers' diagnostics.
    """
    samples = np.asarray(samples, dtype=float)
    K, lead = grid.max_mode, samples.shape[: max(0, samples.ndim - grid.dim)]
    N = samples.shape[-1] if samples.ndim else 0
    if samples.shape[len(lead) :] != (N,) * grid.dim or not 2 * K < N <= grid.points_per_dim:
        raise ValueError(f"expected samples ending in {grid.dim} axes of N points, "
                         f"{2 * K} < N <= {grid.points_per_dim}, got {samples.shape}")
    coeffs = _hermitian_extend(grid, _analyze_half(grid, samples))
    out = SpectralField(grid, coeffs)
    if not return_tail:
        return out
    total = np.mean(samples**2, axis=grid.axes)  # Parseval
    kept = np.sum(np.abs(coeffs) ** 2, axis=grid.axes)
    tail = np.maximum(0.0, np.divide(total - kept, total, out=np.zeros_like(total), where=total > 0))
    return out, (float(tail) if tail.ndim == 0 else tail)


_EVAL_ENTRIES = 262_144  # complex entries (4 MiB) in any one temporary of _eval_at


def _power_steps(k: np.ndarray) -> int:
    """B = ceil(sqrt(max|k| + 1)), the baby-step count of _phase_table for the integers k."""
    return math.isqrt(int(np.max(np.abs(k), initial=0))) + 1


def _phase_table(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^{i k x} for integers k of shape (m,) at points x of shape (p,), as an (m, p) table.

    It is built from powers of e^{ix}: |k| = q B + r with B = _power_steps(k), and
    e^{i|k|x} = e^{irx} e^{iqBx} takes a baby step (r < B) from running products of e^{ix}
    and a giant step (q < B) from running products of e^{iBx}; a negative k is the
    conjugate. An entry is at most 2B products away from e^{ix}, while exp(1j * k * x)
    rounds the phase k x itself: against long-double cos/sin over k <= 512 at points in
    [0, 2pi) the table errs by 4.7e-14 and the exponentials by 2.3e-13. Besides the table
    it holds only the B + 1 baby and the q_max + 1 <= B giant steps.
    """
    a = np.abs(k)
    B = _power_steps(k)
    steps = np.empty((B + 1,) + x.shape, dtype=complex)  # e^{irx}, r = 0..B
    steps[0] = 1.0
    np.cos(x, out=steps[1].real)
    np.sin(x, out=steps[1].imag)
    for r in range(2, B + 1):
        np.multiply(steps[r - 1], steps[1], out=steps[r])
    giant = np.empty((int(a.max(initial=0)) // B + 1,) + x.shape, dtype=complex)  # e^{iqBx}
    giant[0] = 1.0
    for q in range(1, len(giant)):
        np.multiply(giant[q - 1], steps[B], out=giant[q])
    table = np.empty((len(k),) + x.shape, dtype=complex)
    for row, r, q in zip(table, (a % B).tolist(), (a // B).tolist()):
        np.multiply(steps[r], giant[q], out=row)
    table.imag[k < 0] *= -1.0
    return table


def _eval_at(f: SpectralField, pts: np.ndarray) -> np.ndarray:
    """Evaluate Re sum_k u_hat(k) e^{i k.x} at points of shape (dim, ...) by sum factorization.

    For any coefficients this is the sum over k_last >= 0 of c_k + conj(c_{-k}), the
    plane k_last = 0 kept whole. Only the component rows with a nonzero or NaN folded
    coefficient are contracted; the others are exact zeros. Each axis gets one table
    e^{i k_a x_a} over the occupied k_a of those rows, built from powers of e^{i x_a}
    (_phase_table), and is skipped if only k_a = 0 is occupied; the last is contracted by
    one matrix product, the others elementwise, over chunks of targets that keep every
    temporary, the baby and giant steps included, within 262,144 complex entries.
    Returns shape (*f.shape, ...).
    """
    g, K = f.grid, f.grid.max_mode
    flat = pts.reshape(g.dim, -1)
    c = f.coeffs.reshape((-1,) + g.mode_shape)
    half = c[..., K:].copy()
    half[..., 1:] += np.conj(c[g._reverse_index][..., K + 1 :])
    live = np.flatnonzero(np.any(half != 0, axis=g.axes))
    out = np.zeros((len(half), flat.shape[1]))
    if not len(live):
        return out.reshape(f.shape + pts.shape[1:])
    half = half[live]
    occupied = np.any(half != 0, axis=0)
    index = [np.flatnonzero(np.any(occupied, axis=g.axes[:a] + g.axes[a + 1 :])) for a in range(g.dim)]
    ks = [i - K for i in index[:-1]] + index[-1:]
    kept = [(a, k) for a, k in enumerate(ks) if np.any(k)] or [(0, np.zeros(1, dtype=int))]
    # a constant keeps one table of ones; skipped axes have length 1 and fold into rows
    rows = half[(slice(None),) + np.ix_(*index)].reshape(-1, kept[-1][1].size)
    widest = max(len(rows), *(max(k.size, _power_steps(k) + 1) for _, k in kept))
    chunk = max(1, _EVAL_ENTRIES // widest)
    for start in range(0, flat.shape[1], chunk):
        sl = slice(start, start + chunk)
        tables = [_phase_table(k, flat[a, sl]) for a, k in kept]
        acc = rows @ tables[-1]
        for table in tables[-2::-1]:
            acc = np.einsum("rsp,sp->rp", acc.reshape((-1,) + table.shape), table)
        out[live, sl] = acc.real
    return out.reshape(f.shape + pts.shape[1:])


def synthesize(f: SpectralField, points) -> np.ndarray:
    """Evaluate f at a list of points in [0, 2pi)^n (shape (m, dim) or (dim,)).

    Returns shape (*f.shape, m), or (*f.shape) for a single point (a float
    for a scalar field).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if f.grid.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
        single = False
    pts = np.atleast_2d(pts)
    if pts.shape[1] != f.grid.dim:
        raise ValueError(f"points must have {f.grid.dim} columns")
    vals = _eval_at(f, pts.T)
    if not single:
        return vals
    vals = vals[..., 0]
    return float(vals) if vals.ndim == 0 else vals


def compress(f: SpectralField) -> SpectralField:
    """Zero the coefficients below 1e-15 times the largest of the same component; NaN and inf stay."""
    out = f.copy()
    cmax = np.max(np.abs(out.coeffs), axis=f.grid.axes, keepdims=True)
    out.coeffs[np.abs(out.coeffs) < 1e-15 * cmax] = 0.0
    return out


def real_terms(f: SpectralField) -> tuple:
    """(modes, table) with f(x) = table @ [cos(x.k) | sin(x.k) | 1] per component.

    The compressed c_k + conj(c_{-k}) (2 c_k if Hermitian; a NaN at -k shows) over the half-space
    after k = 0 in mode_list order, whose reverse is -k, on the m modes that some component uses:
    modes (dim, m) as floats, table (*f.shape, 2m + 1) = [Re c | -Im c | Re c_0]."""
    c = compress(f).coeffs.reshape(f.shape + (len(f.grid.mode_list),))  # also with no components
    mid = c.shape[-1] // 2
    half = c[..., mid + 1 :] + np.conj(c[..., mid - 1 :: -1])
    used = np.flatnonzero(np.any(half.reshape(-1, half.shape[-1]) != 0, axis=0))
    half = half[..., used]
    table = np.concatenate([half.real, -half.imag, c[..., mid : mid + 1].real], axis=-1)
    return f.grid.mode_list[mid + 1 :][used].T.astype(float), table


def warp_samples(f: SpectralField, warped_points: np.ndarray) -> np.ndarray:
    """Samples of f at warped collocation points (shape (dim, *point_shape))."""
    return _eval_at(f, warped_points)


def compose_warped(f: SpectralField, w: SpectralField, return_tail: bool = False):
    """f(x + w(x)) sampled at warped collocation points, then re-analyzed.

    With return_tail=True also reports the discarded tail-energy fraction of
    the composition (the truncation monitor).
    """
    g = f.grid
    if w.shape != (g.dim,):
        raise ValueError(f"warp needs {g.dim} components, got shape {w.shape}")
    g.require_same(w.grid)
    wpts = np.stack(g.point_mesh) + w.samples()
    return analyze(g, warp_samples(f, wpts), return_tail=return_tail)


# --- serialization -------------------------------------------------------


def field_to_json(f: SpectralField) -> dict:
    """JSON document for a scalar field (else ValueError); stores the modes with |u_hat(k)| > 1e-16."""
    if f.shape:
        raise ValueError(f"field_to_json takes a scalar field, got component shape {f.shape}")
    g = f.grid
    entries = []
    cvec = f.coeffs.ravel()
    for k, c in zip(g.mode_list, cvec):
        if abs(c) > SERIALIZATION_THRESHOLD:
            entries.append({"k": [int(x) for x in k], "re": float(c.real), "im": float(c.imag)})
    return {"dim": g.dim, "K": g.max_mode, "coeffs": entries}


def _json_number(value, what: str, integral: bool = False):
    """value as a float, or as an int if integral (8.0 included), if it is a JSON number: a bool
    or a string is not one (TypeError), and a fraction is not integral (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if integral and not float(value).is_integer():
        raise ValueError(f"non-integral {what} {value!r}")
    return int(value) if integral else float(value)


def field_from_json(doc: dict) -> SpectralField:
    """Rebuild a field, restoring Hermitian symmetry; reject violations > 1e-10.

    dim, K, each k and each re and im must be JSON numbers, integral for dim, K and k;
    non-finite coefficients (JSON NaN / Infinity) are rejected.
    """
    try:
        dim, K = (_json_number(doc[key], key, integral=True) for key in ("dim", "K"))
        entries = doc["coeffs"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed field document: {exc}") from exc
    grid = TorusGrid(dim, K)
    coeffs = np.zeros(grid.mode_shape, dtype=np.complex128)
    given = np.zeros(grid.mode_shape, dtype=bool)
    for e in entries:
        try:
            k = tuple(_json_number(x, "mode index", integral=True) for x in e["k"])
            val = complex(_json_number(e["re"], "re"), _json_number(e["im"], "im"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(f"malformed mode entry {e!r}: {exc}") from exc
        if len(k) != dim or any(abs(c) > K for c in k):
            raise SerializationError(f"mode {k} outside the cutoff")
        if not cmath.isfinite(val):
            raise SerializationError(f"mode {k} has a non-finite coefficient {val}")
        idx = tuple(c + K for c in k)
        coeffs[idx], given[idx] = val, True
    mirror = np.conj(coeffs[grid._reverse_index])
    paired = given & given[grid._reverse_index]
    defect = np.where(paired, np.abs(coeffs - mirror), 0.0)
    bad = np.argwhere(defect > HERMITIAN_REJECT_TOL * np.maximum(1.0, np.abs(coeffs)))
    if len(bad):
        raise SerializationError(f"Hermitian violation at k={tuple(int(i) - K for i in bad[0])}: "
                                 f"|u(k) - conj(u(-k))| = {defect[tuple(bad[0])]:.3e}")
    # a stored pair is averaged, a lone mode mirrored
    coeffs = np.where(paired, 0.5 * (coeffs + mirror), np.where(given, coeffs, mirror))
    return SpectralField(grid, coeffs)
