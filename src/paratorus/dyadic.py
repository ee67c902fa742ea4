"""Dyadic frequency decomposition: blocks, partial sums and the Zygmund norm.

The multipliers come from a C-infinity radial profile built on exp(-1/x), then
receive a per-mode renormalization so the discrete partition of unity is exact
at every retained mode. Block 0 is the mean; block j >= 1 lives on the annulus
2^{j-1} <= |k| <= 2^{j+1}, up to j_max = top_level(dim, K), the highest block
nonzero at some retained mode. DyadicCutoff.block_samples stacks the samples of
all blocks along a leading level axis, one transform for every level, on the
4K collocation grid or on the smaller para-product grid of para_points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, TorusGrid, _synthesize_half


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/x)-glued between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def lowpass_profile(xi: np.ndarray) -> np.ndarray:
    """psi0: equal to 1 for |xi| <= 1/2, supported in |xi| <= 1."""
    return _smooth_step(2.0 - 2.0 * np.abs(np.asarray(xi, dtype=float)))


def annulus_profile(xi: np.ndarray) -> np.ndarray:
    """phi(xi) = psi0(xi/2) - psi0(xi), supported in 1/2 <= |xi| <= 2."""
    xi = np.asarray(xi, dtype=float)
    return lowpass_profile(xi / 2.0) - lowpass_profile(xi)


def top_level(dim: int, max_mode: int) -> int:
    """j_max, the highest block nonzero at some retained mode: the largest j >= 1 with
    phi(sqrt(dim) K / 2^j) > 0 (phi grows with |k| on its inner half), else 1 (the |k| = 1 shell).
    phi rounds to 0 just above 1/2, where 4^(j-1) < dim K^2 keeps an empty level (1-D K = 65)."""
    corner = math.sqrt(dim * max_mode**2)  # grid.mode_norm at (K, ..., K), to the bit
    scales = 2.0 ** np.arange(1, int(2.0 * corner).bit_length() + 1)  # phi = 0 past the last
    live = np.flatnonzero(annulus_profile(corner / scales) > 0.0)
    return int(live[-1]) + 1 if live.size else 1


def level_bound(max_mode: int) -> int:
    """ceil(log2 K) + 1 >= top_level(dim, K) in dims 1-3, the level count the memory guards keep."""
    return int(math.ceil(math.log2(max_mode))) + 1 if max_mode > 1 else 1


def para_points(max_mode: int, j_max: int) -> int:
    """N_pp, the smallest 5-smooth integer above 2K + 2^(j_max - 2). The para-product level j,
    S_{j-3} a . Delta_j u, has its spectrum in |k_i| <= K + 2^{j-2} per axis (S_{j-3} a lives in
    |k| <= 2^{j-2}, Delta_j u in the retained band), widest at j = j_max. On N > K + (K +
    2^{j_max - 2}) points per axis no alias of it lands on a retained mode, so analyzing its
    samples there gives the retained coefficients exactly (make_cutoff: j_max = top_level)."""
    n = 2 * max_mode + (1 << j_max) // 4
    odd = [3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length())]
    return min(m << (n // m).bit_length() for m in odd)  # m times the least 2^a with m 2^a > n


@dataclass
class DyadicCutoff:
    """Sampled dyadic multipliers for one grid.

    block_mult[j] multiplies block j on the retained modes (j = 0: the mean);
    lowpass_mult[l] realizes S_l = sum_{j<=l} blocks, and after renormalization
    the stack sums to exactly one at every retained mode. block_samples samples
    the blocks from the k_last >= 0 half of a field; blocks keeps coefficients.
    lowpass_band[l] counts the columns k_last = 0, 1, .. on which S_l is nonzero
    (about 2^(l+1) of the K + 1), the band a low-pass is synthesized from. para_points (see
    para_points()) is the grid on which every para-product level is exact on the retained band,
    1200 points instead of 2048 at K = 512; a sup norm of samples or a nonlinear function of
    them needs the full 4K grid.
    """

    grid: TorusGrid
    j_max: int
    block_mult: np.ndarray  # shape (j_max+1, *mode_shape)
    lowpass_mult: np.ndarray  # shape (j_max+1, *mode_shape)
    lowpass_band: tuple  # j_max+1 column counts
    para_points: int

    def block(self, u: SpectralField, j: int) -> SpectralField:
        """Dyadic block Delta_j u; blocks above j_max are identically zero."""
        if j < 0:
            raise ValueError("block index must be >= 0")
        self.grid.require_same(u.grid)
        if j > self.j_max:
            return SpectralField(self.grid, np.zeros_like(u.coeffs))
        return SpectralField(self.grid, u.coeffs * self.block_mult[j])

    def partial_sum(self, u: SpectralField, j: int) -> SpectralField:
        """S_j u for j >= 0; for j < 0 the convention S_j = Delta_0 (the mean)."""
        self.grid.require_same(u.grid)
        if j < 0:
            return SpectralField(self.grid, u.coeffs * self.block_mult[0])
        j = min(j, self.j_max)
        return SpectralField(self.grid, u.coeffs * self.lowpass_mult[j])

    def blocks(self, u: SpectralField) -> SpectralField:
        """All of Delta_0 u .. Delta_{j_max} u as one field with a leading level axis."""
        self.grid.require_same(u.grid)
        levels = self.block_mult.shape[:1] + (1,) * len(u.shape) + self.grid.mode_shape
        return SpectralField(self.grid, self.block_mult.reshape(levels) * u.coeffs)

    def block_samples(self, u: SpectralField, first: int = 0, points: int | None = None) -> np.ndarray:
        """blocks(u)[first:].samples(), synthesized from the k_last >= 0 half of u alone, on
        `points` per axis (default the 4K collocation grid)."""
        self.grid.require_same(u.grid)
        K = self.grid.max_mode
        mult = self.block_mult[first:, ..., K:]
        mult = mult.reshape(mult.shape[:1] + (1,) * len(u.shape) + mult.shape[1:])
        return _synthesize_half(self.grid, mult * u.coeffs[..., K:], points)


def make_cutoff(grid: TorusGrid) -> DyadicCutoff:
    """Sample the dyadic profile on the retained modes and renormalize.

    The raw telescoping profile cannot sum to one at every integer mode (the
    |k| = 1 shell is missed by blocks supported in [1/2, 2]), so each mode's
    phi stack is divided by its sum; |k| = 1 modes are assigned wholesale to
    block 1, which is inside that block's allowed annulus [1, 4]. A final
    largest-entry adjustment makes the partition exact in floating point.
    """
    jmax = top_level(grid.dim, grid.max_mode)
    norm = grid.mode_norm
    mults = np.zeros((jmax + 1,) + grid.mode_shape)
    scales = 2.0 ** np.arange(1, jmax + 1).reshape((jmax,) + (1,) * grid.dim)
    mults[1:] = annulus_profile(norm / scales)
    mults[grid.mean_index] = [1.0] + [0.0] * jmax  # Delta_0 = mean, alone at k = 0
    stack_sum = mults[1:].sum(axis=0)
    nonzero = norm > 0.5
    lonely = nonzero & (stack_sum <= 0.1)  # exactly the |k| = 1 shell
    safe = nonzero & ~lonely
    mults[1:, safe] /= stack_sum[safe]
    mults[1:, lonely] = 0.0
    mults[1, lonely] = 1.0
    # exact-sum fixup: push the float residual into the largest block
    arg = np.argmax(mults, axis=0)[None]
    resid = 1.0 - mults.sum(axis=0)
    np.put_along_axis(mults, arg, np.take_along_axis(mults, arg, axis=0) + resid, axis=0)
    lowpass = np.cumsum(mults, axis=0)
    columns = np.any(lowpass[..., grid.max_mode :] != 0.0, axis=tuple(range(1, grid.dim)))
    band = tuple(int(np.flatnonzero(c)[-1]) + 1 for c in columns)
    return DyadicCutoff(grid=grid, j_max=jmax, block_mult=mults, lowpass_mult=lowpass,
                        lowpass_band=band, para_points=para_points(grid.max_mode, jmax))


def zygmund_norm(u: SpectralField, r: float, cut: DyadicCutoff) -> float:
    """|u|_{C^r_*} = sup_j 2^{jr} |Delta_j u|_{L^inf} over the retained blocks."""
    sups = np.max(np.abs(cut.block_samples(u)).reshape(cut.j_max + 1, -1), axis=1)
    return float(np.max(2.0 ** (np.arange(cut.j_max + 1) * r) * sups))


def partition_residual(cut: DyadicCutoff) -> float:
    """Max over retained modes of |sum_j multipliers - 1| (should be ~1e-16)."""
    total = cut.block_mult.sum(axis=0)
    return float(np.max(np.abs(total - 1.0)))
