"""Diophantine certification and the two small-divisor inverse operators.

Both inverses run one modewise division (_divide) over every component axis.
Certification is always by exhaustive scan over the retained modes, so every
smallness threshold downstream is a checkable number rather than an
assumption. Mean tolerances follow a zero-or-error policy: means below 1e-12
are silently projected out (and logged), anything larger is an error.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonzeroMeanError, ResonantModeError
from .spectral import SpectralField, _shift_symbol

log = logging.getLogger(__name__)

MEAN_TOLERANCE = 1e-12
_RESONANCE_EPS = 1e-14


def _check_modes(K) -> None:
    """The mode count of a scan must be an integer >= 1 (a bool is not one)."""
    if isinstance(K, bool) or not isinstance(K, numbers.Integral) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")


def certify_diophantine(omega, sigma: float, K: int) -> float:
    """Smallest gamma with |k.omega| >= 1/(gamma |k|^sigma) for all 0 < |k_i| <= K.

    Scans the full retained mode box; raises ResonantModeError if some k.omega
    vanishes to machine precision, ValueError unless sigma > 0 and sigma and
    omega are finite and K is an integer >= 1.
    """
    _check_modes(K)
    omega = np.asarray(omega, dtype=float)
    if not (math.isfinite(sigma) and sigma > 0 and np.all(np.isfinite(omega))):
        raise ValueError(f"need a finite sigma > 0 and a finite omega, got {sigma}, {omega}")
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


def scan_bytes(n: int, K: int) -> int:
    """Peak bytes of certify_diophantine's scan of the (2K + 1)^n modes of an n-vector, at most
    24 n + 40 a mode (tracemalloc: 58, 66, 89, 113, 137 and 161 for n = 1..6); with n = 1 it also
    bounds certify_rotation_angle's scan of q <= K (40 bytes a q)."""
    return (2 * K + 1) ** n * (24 * n + 40)


def certify_rotation_angle(alpha: float, sigma: float, K: int) -> float:
    """Smallest gamma with |q alpha/pi - p| >= 1/(gamma q^sigma) for 1 <= q <= K."""
    _check_modes(K)
    if not (math.isfinite(sigma) and sigma > 0 and math.isfinite(alpha)):
        raise ValueError(f"need a finite sigma > 0 and a finite alpha, got {sigma}, {alpha}")
    q = np.arange(1, K + 1, dtype=float)
    t = q * alpha / math.pi
    dist = np.abs(t - np.round(t))
    if np.any(dist < _RESONANCE_EPS):
        qbad = int(q[int(np.argmin(dist))])
        raise ResonantModeError((qbad,), float(np.min(dist)))
    return float(np.max(1.0 / (dist * q**sigma)))


@dataclass(frozen=True)
class FrequencyVector:
    """A frequency vector with a gamma certified on the retained modes; np.asarray reads omega."""

    omega: tuple
    sigma: float
    gamma: float
    certified_modes: int

    @classmethod
    def certify(cls, omega, sigma: float, K: int) -> "FrequencyVector":
        gamma = certify_diophantine(omega, sigma, K)
        return cls(tuple(float(w) for w in omega), sigma, gamma, K)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.omega, dtype=float if dtype is None else dtype)


@dataclass(frozen=True)
class RotationAngle:
    """A rotation angle alpha in (0, 2pi) with certified Diophantine data; float() reads alpha."""

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

    def __float__(self) -> float:
        return self.alpha


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


def delta_alpha(u: SpectralField, alpha) -> SpectralField:
    """Forward difference operator u(x + alpha) - u(x) on the circle."""
    if u.grid.dim != 1:
        raise ValueError("delta_alpha acts on circle fields (dim 1)")
    return u.translate([float(alpha)]) - u


def _divide(f: SpectralField, divisor: np.ndarray, opname: str) -> SpectralField:
    """f_k / divisor_k at every k != 0 of every component, after projecting out the mean.

    Raises ResonantModeError at the first retained k != 0, in C order, with
    |divisor_k| below 1e-14.
    """
    f = _check_mean(f, opname)
    nz = f.grid.mode_norm > 0
    small = nz & (np.abs(divisor) < _RESONANCE_EPS)
    if np.any(small):
        idx = np.unravel_index(int(np.argmax(small)), small.shape)
        kbad = tuple(int(f.grid.mode_axis[i]) for i in idx)
        raise ResonantModeError(kbad, float(abs(divisor[idx])))
    out = np.zeros_like(f.coeffs)
    out[..., nz] = f.coeffs[..., nz] / divisor[nz]
    return SpectralField(f.grid, out)


def delta_alpha_inverse(f: SpectralField, alpha) -> SpectralField:
    """Modewise division by e^{ik alpha} - 1 on mean-zero circle fields, on every component."""
    if f.grid.dim != 1:
        raise ValueError("delta_alpha_inverse acts on circle fields (dim 1)")
    div = _shift_symbol(f.grid, (float(alpha),)) - 1.0
    return _divide(f, div, "delta_alpha_inverse")


def omega_directional_inverse(f: SpectralField, omega) -> SpectralField:
    """(omega . d/dx)^{-1} by modewise division by i k.omega (a FrequencyVector or floats)."""
    kw = sum(k * w for k, w in zip(f.grid.mode_mesh, np.asarray(omega, dtype=float)))
    return _divide(f, 1j * kw, "omega_directional_inverse")
