"""Deterministic operator-estimate probes behind the validate-ops harness.

Each probe returns plain records (dicts of floats) so the CLI can serialize
them to CSV bit-identically, including the bound its pass/fail verdict is
measured against; tolerances for the slope fits follow the +-0.5 convention,
the finest a desk-scale dyadic range can resolve.
"""

from __future__ import annotations

import numpy as np

from .dyadic import make_cutoff, partition_residual, zygmund_norm
from .paraprod import cm_remainder, para_product, pl_remainder
from .spectral import SpectralField, TorusGrid, analyze

SLOPE_TOL = 0.5
PARTITION_TOL = 1e-14  # partition-of-unity residual
IDENTITY_TOL = 1e-13  # relative defect of T_c u = c u, T_a c = mean(a) c and the CM constant case
DRIFT_TOL = float(np.log(1.2))  # |log| change of the T_a norm constant from K to 2K


def slope_fit(js, logs) -> float:
    return float(np.polyfit(np.asarray(js, float), np.asarray(logs, float), 1)[0])


def _decay_fit(ratio, j_lo: int, j_hi: int, r: float) -> dict:
    """Rows {j, ratio(j)} for j_lo <= j <= j_hi, skipping a None ratio, and the log2 slope of
    the positive ratios, which passes at slope <= -r + SLOPE_TOL."""
    rows = [{"j": j, "ratio": q} for j in range(j_lo, j_hi + 1) if (q := ratio(j)) is not None]
    fit = [(row["j"], np.log2(row["ratio"])) for row in rows if row["ratio"] > 0]
    slope = slope_fit([j for j, _ in fit], [lg for _, lg in fit])
    return {"rows": rows, "slope": slope, "slope_bound": -r + SLOPE_TOL,
            "passed": slope <= -r + SLOPE_TOL}


def seeded_field(grid: TorusGrid, rng, band=None, amp=1.0) -> SpectralField:
    band = band or grid.max_mode
    shape = grid.mode_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keep = grid.mode_norm <= band
    prof = np.where(keep, (1.0 + grid.mode_norm) ** -1.0, 0.0)
    f = SpectralField(grid, amp * raw * prof)
    rev = tuple(slice(None, None, -1) for _ in range(grid.dim))
    f.coeffs = 0.5 * (f.coeffs + np.conj(f.coeffs[rev]))
    return f


def lacunary_field(grid: TorusGrid, r: float, rng) -> SpectralField:
    """Lacunary cosine series with Zygmund regularity r and unit-size blocks."""
    f = SpectralField.zero(grid)
    j = 0
    while 2**j <= grid.max_mode // 2:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        f = f + SpectralField.from_modes(
            grid, {2**j: 0.5 * 2.0 ** (-j * r) * np.exp(1j * phase)}
        )
        j += 1
    return f


def partition_probe(K: int, dim: int = 1) -> dict:
    grid = TorusGrid(dim, K)
    cut = make_cutoff(grid)
    resid = partition_residual(cut)
    # block support exactness: no weight of block j >= 1 outside its annulus
    j = np.arange(1, cut.j_max + 1).reshape((-1,) + (1,) * dim)
    outside = (grid.mode_norm < 2.0 ** (j - 1)) | (grid.mode_norm > 2.0 ** (j + 1))
    worst = float(np.max(np.abs(cut.block_mult[1:][outside]), initial=0.0))
    return {
        "partition_residual": resid,
        "support_leak": worst,
        "bound": PARTITION_TOL,
        "passed": resid < PARTITION_TOL and worst == 0.0,
    }


def paraproduct_identity_probe(K: int, seed: int, trials: int = 100) -> dict:
    grid = TorusGrid(1, K)
    cut = make_cutoff(grid)
    rng = np.random.default_rng(seed)
    worst_const_symbol = 0.0
    worst_const_operand = 0.0
    for _ in range(trials):
        u = seeded_field(grid, rng)
        a = seeded_field(grid, rng) + 1.0
        c = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(-2.0, 2.0))
        d1 = para_product(SpectralField.constant(grid, c), u, cut) - c * u
        worst_const_symbol = max(worst_const_symbol, d1.l2_norm() / max(1e-30, abs(c) * u.l2_norm()))
        out = para_product(a, SpectralField.constant(grid, lam), cut)
        d2 = out - SpectralField.constant(grid, a.mean() * lam)
        worst_const_operand = max(worst_const_operand, d2.l2_norm() / max(1e-30, abs(lam)))
    return {
        "const_symbol_defect": worst_const_symbol,
        "const_operand_defect": worst_const_operand,
        "bound": IDENTITY_TOL,
        "passed": worst_const_symbol < IDENTITY_TOL and worst_const_operand < IDENTITY_TOL,
    }


def cm_smoothing_probe(K: int, r: float, seed: int, j_lo: int = 3, j_hi: int = 7) -> dict:
    grid = TorusGrid(1, K)
    cut = make_cutoff(grid)
    rng = np.random.default_rng(seed)
    a = lacunary_field(grid, r, rng)
    b = lacunary_field(grid, r, rng)
    w = seeded_field(grid, rng)

    def ratio(j):
        u = cut.block(w, j)
        nrm = u.l2_norm()
        return cm_remainder(a, b, u, cut).l2_norm() / nrm if nrm else None

    fit = _decay_fit(ratio, j_lo, j_hi, r)
    # constant-factor degeneracy must vanish to roundoff
    c = SpectralField.constant(grid, 1.3)
    u = cut.block(w, (j_lo + j_hi) // 2)
    const_defect = cm_remainder(c, b, u, cut).l2_norm() / max(1e-30, u.l2_norm() * b.sup_norm())
    return {**fit, "const_defect": const_defect,
            "passed": fit["passed"] and const_defect < IDENTITY_TOL}


def pl_smoothing_probe(K: int, r: float, seed: int, j_lo: int = 3, j_hi: int = 7) -> dict:
    """Para-linearization remainder decay for F(z) = z^2 on unit-Zygmund blocks."""
    grid = TorusGrid(1, K)
    cut = make_cutoff(grid)
    rng = np.random.default_rng(seed)
    w = seeded_field(grid, rng)

    def ratio(j):
        u = cut.block(w, j)
        nrm = zygmund_norm(u, r, cut)
        if nrm == 0.0:
            return None
        u = u * (1.0 / nrm)
        F_of_u = analyze(grid, u.samples() ** 2)
        rem = pl_remainder(F_of_u, SpectralField.zero(grid), 2.0 * u, u, cut)
        return rem.sobolev_norm(2.0) / u.sobolev_norm(2.0)

    return _decay_fit(ratio, j_lo, j_hi, r)


def boundedness_probe(K: int, s: float = 2.0) -> float:
    """Deterministic estimate of the discrete T_a operator-norm constant."""
    grid = TorusGrid(1, K)
    cut = make_cutoff(grid)
    a = SpectralField.from_modes(grid, {1: 0.25, 2: 0.1, 3: 0.05j}) + 1.0
    flat = SpectralField(grid, ((1.0 + grid.mode_norm**2) ** (-s / 2)).astype(complex))
    top = cut.block(SpectralField(grid, np.ones(grid.mode_shape, complex)), cut.j_max)
    best = 0.0
    for u in (flat, top):
        best = max(
            best,
            para_product(a, u, cut).sobolev_norm(s) / (a.sup_norm() * u.sobolev_norm(s)),
        )
    return best


def boundedness_stability_probe(K: int) -> dict:
    c1 = boundedness_probe(K)
    c2 = boundedness_probe(2 * K)
    drift = abs(float(np.log(c2 / c1)))
    return {
        "constant_K": c1,
        "constant_2K": c2,
        "drift": drift,
        "bound": DRIFT_TOL,
        "passed": drift < DRIFT_TOL,
    }
