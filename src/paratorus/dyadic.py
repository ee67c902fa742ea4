"""Dyadic frequency decomposition: blocks, partial sums and the Zygmund norm.

The multipliers come from a C-infinity radial profile built on exp(-1/x), then
receive a per-mode renormalization so the discrete partition of unity is exact
at every retained mode. Block 0 is the mean; block j >= 1 lives on the annulus
2^{j-1} <= |k| <= 2^{j+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, TorusGrid


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


def max_block_index(max_mode: int) -> int:
    """Highest block that can be nonzero at cutoff K: ceil(log2 K) + 1."""
    return int(math.ceil(math.log2(max_mode))) + 1 if max_mode > 1 else 1


@dataclass
class DyadicCutoff:
    """Sampled dyadic multipliers for one grid.

    block_mult[j] is the multiplier of block j on the retained modes
    (j = 0 is the mean projector); lowpass_mult[l] realizes the partial sum
    S_l = sum_{j<=l} blocks. After renormalization the stack sums to exactly
    one at every retained mode.
    """

    grid: TorusGrid
    j_max: int
    block_mult: np.ndarray  # shape (j_max+1, *mode_shape)
    lowpass_mult: np.ndarray  # shape (j_max+1, *mode_shape)

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

    def block_samples(self, u: SpectralField, j: int) -> np.ndarray:
        return self.block(u, j).samples()


def make_cutoff(grid: TorusGrid) -> DyadicCutoff:
    """Sample the dyadic profile on the retained modes and renormalize.

    The raw telescoping profile cannot sum to one at every integer mode (the
    |k| = 1 shell is missed by blocks supported in [1/2, 2]), so each mode's
    phi stack is divided by its sum; |k| = 1 modes are assigned wholesale to
    block 1, which is inside that block's allowed annulus [1, 4]. A final
    largest-entry adjustment makes the partition exact in floating point.
    """
    K = grid.max_mode
    jmax = max_block_index(K)
    norm = grid.mode_norm
    mults = np.zeros((jmax + 1,) + grid.mode_shape)
    center = (K,) * grid.dim
    mults[0][center] = 1.0  # Delta_0 = mean
    for j in range(1, jmax + 1):
        mults[j] = annulus_profile(norm / (2.0**j))
        mults[j][center] = 0.0
    stack_sum = mults[1:].sum(axis=0)
    nonzero = norm > 0.5
    lonely = nonzero & (stack_sum <= 0.1)  # exactly the |k| = 1 shell
    safe = nonzero & ~lonely
    for j in range(1, jmax + 1):
        mults[j][safe] /= stack_sum[safe]
        mults[j][lonely] = 0.0
    mults[1][lonely] = 1.0
    # exact-sum fixup: push the float residual into the largest block
    total = mults.sum(axis=0)
    resid = 1.0 - total
    arg = np.argmax(mults, axis=0)
    for j in range(jmax + 1):
        sel = arg == j
        mults[j][sel] += resid[sel]
    lowpass = np.cumsum(mults, axis=0)
    return DyadicCutoff(grid=grid, j_max=jmax, block_mult=mults, lowpass_mult=lowpass)


def zygmund_norm(u: SpectralField, r: float, cut: DyadicCutoff) -> float:
    """|u|_{C^r_*} = sup_j 2^{jr} |Delta_j u|_{L^inf} over the retained blocks."""
    cut.grid.require_same(u.grid)
    best = 0.0
    for j in range(cut.j_max + 1):
        b = cut.block(u, j)
        if not np.any(b.coeffs):
            continue
        best = max(best, (2.0 ** (j * r)) * b.sup_norm())
    return best


def partition_residual(cut: DyadicCutoff) -> float:
    """Max over retained modes of |sum_j multipliers - 1| (should be ~1e-16)."""
    total = cut.block_mult.sum(axis=0)
    return float(np.max(np.abs(total - 1.0)))
