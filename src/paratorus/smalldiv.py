"""Diophantine certification and the two small-divisor inverse operators.

Certification is always by exhaustive scan over the retained modes, so every
smallness threshold downstream is a checkable number rather than an
assumption. Mean tolerances follow a zero-or-error policy: means below 1e-12
are silently projected out (and logged), anything larger is an error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonzeroMeanError, ResonantModeError
from .spectral import SpectralField

log = logging.getLogger(__name__)

MEAN_TOLERANCE = 1e-12
_RESONANCE_EPS = 1e-14


def certify_diophantine(omega, sigma: float, K: int) -> float:
    """Smallest gamma with |k.omega| >= 1/(gamma |k|^sigma) for all 0 < |k_i| <= K.

    Scans the full retained mode box; raises ResonantModeError if some k.omega
    vanishes to machine precision.
    """
    omega = np.asarray(omega, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    n = omega.size
    axes = [np.arange(-K, K + 1)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=-1)
    nz = np.any(modes != 0, axis=1)
    modes = modes[nz]
    dots = np.abs(modes.astype(float) @ omega)
    norms = np.sqrt(np.sum(modes.astype(float) ** 2, axis=1))
    resonant = dots < _RESONANCE_EPS
    if np.any(resonant):
        # report the shortest witness, lexicographically largest on ties
        cand = np.where(resonant)[0]
        order = np.lexsort(
            tuple(-modes[cand, d] for d in reversed(range(n))) + (norms[cand],)
        )
        bad = modes[cand[order[0]]]
        raise ResonantModeError(tuple(int(b) for b in bad), float(np.min(dots)))
    gammas = 1.0 / (dots * norms**sigma)
    return float(np.max(gammas))


def certify_rotation_angle(alpha: float, sigma: float, K: int) -> float:
    """Smallest gamma with |q alpha/pi - p| >= 1/(gamma q^sigma) for 1 <= q <= K."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q = np.arange(1, K + 1, dtype=float)
    t = q * alpha / math.pi
    dist = np.abs(t - np.round(t))
    if np.any(dist < _RESONANCE_EPS):
        qbad = int(q[int(np.argmin(dist))])
        raise ResonantModeError((qbad,), float(np.min(dist)))
    return float(np.max(1.0 / (dist * q**sigma)))


@dataclass(frozen=True)
class FrequencyVector:
    """A frequency vector with a gamma certified on the retained modes."""

    omega: tuple
    sigma: float
    gamma: float
    certified_modes: int

    @classmethod
    def certify(cls, omega, sigma: float, K: int) -> "FrequencyVector":
        gamma = certify_diophantine(omega, sigma, K)
        return cls(tuple(float(w) for w in omega), sigma, gamma, K)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.omega, dtype=float)


@dataclass(frozen=True)
class RotationAngle:
    """A rotation angle alpha in (0, 2pi) with certified Diophantine data."""

    alpha: float
    sigma: float
    gamma: float
    certified_modes: int

    @classmethod
    def certify(cls, alpha: float, sigma: float, K: int) -> "RotationAngle":
        if not 0.0 < alpha < 2.0 * math.pi:
            raise ValueError("alpha must lie in (0, 2*pi)")
        gamma = certify_rotation_angle(alpha, sigma, K)
        return cls(float(alpha), sigma, gamma, K)


def remove_mean(f: SpectralField) -> SpectralField:
    out = f.copy()
    out.coeffs[f.grid.mean_index] = 0.0
    return out


def _check_mean(f: SpectralField, opname: str) -> SpectralField:
    """Project out the mean of every component; means above 1e-12 * max(1, |f_c|) are errors."""
    m = np.abs(np.real(f.coeffs[f.grid.mean_index]))
    thr = MEAN_TOLERANCE * np.maximum(1.0, np.sqrt(np.sum(np.abs(f.coeffs) ** 2, axis=f.grid.axes)))
    if np.any(m > thr):
        raise NonzeroMeanError(
            f"{opname}: input mean {np.max(m):.3e} exceeds tolerance {np.min(thr):.3e}"
        )
    if np.any(m > 0.0):
        log.debug("%s: zeroing roundoff mean %.3e", opname, np.max(m))
    return remove_mean(f)


def _alpha_value(alpha) -> float:
    return alpha.alpha if isinstance(alpha, RotationAngle) else float(alpha)


def delta_alpha(u: SpectralField, alpha) -> SpectralField:
    """Forward difference operator u(x + alpha) - u(x) on the circle."""
    if u.grid.dim != 1:
        raise ValueError("delta_alpha acts on circle fields (dim 1)")
    return u.translate([_alpha_value(alpha)]) - u


def delta_alpha_inverse(f: SpectralField, alpha) -> SpectralField:
    """Modewise division by e^{ik alpha} - 1 on mean-zero circle fields."""
    if f.grid.dim != 1:
        raise ValueError("delta_alpha_inverse acts on circle fields (dim 1)")
    f = _check_mean(f, "delta_alpha_inverse")
    a = _alpha_value(alpha)
    k = f.grid.mode_axis
    div = np.exp(1j * k * a) - 1.0
    small = np.abs(div) < _RESONANCE_EPS
    small[f.grid.max_mode] = False
    if np.any(small):
        i = np.argmax(small)
        raise ResonantModeError((int(k[i]),), float(abs(div[i])))
    out = np.zeros_like(f.coeffs)
    nz = k != 0
    out[nz] = f.coeffs[nz] / div[nz]
    return SpectralField(f.grid, out)


def omega_directional_inverse(f: SpectralField, omega: FrequencyVector) -> SpectralField:
    """(omega . d/dx)^{-1} by modewise division, on every component at once."""
    f = _check_mean(f, "omega_directional_inverse")
    kw = sum(k * w for k, w in zip(f.grid.mode_mesh, omega.array))
    small = np.abs(kw) < _RESONANCE_EPS
    small[f.grid.mean_index] = False
    if np.any(small):
        idx = np.unravel_index(int(np.argmax(small)), small.shape)
        kbad = tuple(int(f.grid.mode_axis[i]) for i in idx)
        raise ResonantModeError(kbad, float(abs(kw[idx])))
    out = np.zeros_like(f.coeffs)
    nz = kw != 0
    out[..., nz] = f.coeffs[..., nz] / (1j * kw[nz])
    return SpectralField(f.grid, out)


def _tail_sum(power: float, start: int, dim: int) -> float:
    """Upper bound of sum over |k|_2 > start of |k|^{-power} on the Z^dim lattice."""
    if power <= dim:
        return math.inf
    # |k|_2 >= |k|_inf and {|k|_2 > m} contained in {|k|_inf > m/sqrt(dim)};
    # sum 2000 sup-norm shells explicitly, close with an integral bound
    m0 = max(1, int(math.floor(start / math.sqrt(dim))))
    m = np.arange(m0 + 1, m0 + 2001, dtype=float)
    shells = (2 * m + 1) ** dim - (2 * m - 1) ** dim
    total = float(np.sum(shells * m ** (-power)))
    M = float(m[-1])
    total += 2 * dim * 3 ** (dim - 1) * M ** (dim - power) / (power - dim)
    return total


def fundamental_solution_partial(
    omega: FrequencyVector, tau: float, K: int, theta
) -> tuple:
    """Partial sum of the directional-derivative fundamental solution at theta.

    Sums e^{ik.theta} / (i (k.omega) |k|^tau) over 0 < |k|_2 <= K and returns
    (value, tail_bound) where the tail bound is gamma * sum_{|k|>K} |k|^{sigma-tau},
    valid under the certified Diophantine property; requires tau > sigma + 1.
    """
    if tau <= omega.sigma + 1.0:
        raise ValueError(f"tau must exceed sigma + 1 = {omega.sigma + 1.0}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = omega.array.size
    axes = [np.arange(-K, K + 1)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=-1).astype(float)
    norms = np.sqrt(np.sum(modes**2, axis=1))
    keep = (norms > 0) & (norms <= K)
    modes, norms = modes[keep], norms[keep]
    dots = modes @ omega.array
    if np.any(np.abs(dots) < _RESONANCE_EPS):
        bad = modes[int(np.argmin(np.abs(dots)))]
        raise ResonantModeError(tuple(int(b) for b in bad), float(np.min(np.abs(dots))))
    phases = modes @ theta
    value = float(np.sum(np.sin(phases) / (dots * norms**tau)))
    tail = omega.gamma * _tail_sum(tau - omega.sigma, K, n)
    return value, tail
