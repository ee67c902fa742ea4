"""Diophantine certification and small-divisor inverse operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratorus import (
    FrequencyVector,
    NonzeroMeanError,
    ResonantModeError,
    RotationAngle,
    SpectralField,
    TorusGrid,
    VectorField,
    certify_diophantine,
    certify_rotation_angle,
    delta_alpha,
    delta_alpha_inverse,
    omega_directional_inverse,
    remove_mean,
)

import paratorus.spectral as spectral
from test_spectral import random_field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mean_zero_random(grid, rng, band=None):
    return remove_mean(random_field(grid, rng, band=band))


# --- certification -----------------------------------------------------------


def test_resonant_vector_rejected():
    with pytest.raises(ResonantModeError) as err:
        certify_diophantine([1.0, 0.0], sigma=1.0, K=8)
    assert 0 in err.value.mode  # k = (0, +-1) witnesses the resonance


def test_golden_pair_certifies_and_is_constant_type():
    g16 = certify_diophantine([1.0, GOLDEN], sigma=1.0, K=16)
    g64 = certify_diophantine([1.0, GOLDEN], sigma=1.0, K=64)
    assert np.isfinite(g64) and g64 > 0
    assert g64 >= g16  # monotone nondecreasing in K
    assert g64 <= 4.0 * g16  # constant type: no blow-up under refinement


def test_certify_exhaustive_scan_oracle():
    # independent brute-force scan over the same mode box
    omega = np.array([1.0, GOLDEN])
    sigma, K = 1.0, 12
    worst = 0.0
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if k1 == 0 and k2 == 0:
                continue
            d = abs(k1 * omega[0] + k2 * omega[1])
            worst = max(worst, 1.0 / (d * math.hypot(k1, k2) ** sigma))
    assert abs(certify_diophantine(omega, sigma, K) - worst) < 1e-12 * worst


def test_certify_scaling_homogeneity():
    omega = np.array([1.0, GOLDEN])
    base = certify_diophantine(omega, 1.0, 16)
    scaled = certify_diophantine(3.0 * omega, 1.0, 16)
    assert abs(scaled - base / 3.0) < 1e-12 * base


def test_rotation_angle_certification_and_rational_rejection():
    alpha = math.pi * (math.sqrt(5.0) - 1.0)
    ra = RotationAngle.certify(alpha, sigma=1.0, K=256)
    assert np.isfinite(ra.gamma) and ra.gamma > 0
    with pytest.raises(ResonantModeError) as err:
        certify_rotation_angle(2.0 * math.pi * 3.0 / 7.0, sigma=1.0, K=32)
    assert err.value.mode == (7,)


@pytest.mark.parametrize(
    "omega, sigma",
    [([math.nan, 1.0], 1.0), ([math.inf, 1.0], 1.0), ([1.0, GOLDEN], math.nan), ([1.0, GOLDEN], math.inf)],
)
def test_certify_diophantine_rejects_non_finite_input(omega, sigma):
    with pytest.raises(ValueError, match="finite"):
        certify_diophantine(omega, sigma, 4)
    with pytest.raises(ValueError, match="finite"):
        FrequencyVector.certify(omega, sigma, 4)


@pytest.mark.parametrize("alpha, sigma", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)])
def test_certify_rotation_angle_rejects_non_finite_input(alpha, sigma):
    with pytest.raises(ValueError, match="finite"):
        certify_rotation_angle(alpha, sigma, 4)


@pytest.mark.parametrize("K", [0, -3, 2.5, True])
def test_certification_rejects_a_mode_count_that_is_not_an_integer_of_at_least_one(K):
    # unchecked, 2.5 scans the non-integer "modes" arange(-2.5, 3.5), True scans K = 1 and
    # K <= 0 leaves no mode to scan
    for certify in (lambda: certify_diophantine([1.0, GOLDEN], 1.0, K),
                    lambda: certify_rotation_angle(2.0, 1.0, K),
                    lambda: FrequencyVector.certify([1.0, GOLDEN], 1.0, K),
                    lambda: RotationAngle.certify(2.0, 1.0, K)):
        with pytest.raises(ValueError, match=rf"K must be an integer >= 1, got {K!r}"):
            certify()


# --- delta_alpha and its inverse ----------------------------------------------


def circle_setup(K=64):
    g = TorusGrid.create(1, K)
    alpha = RotationAngle.certify(math.pi * (math.sqrt(5.0) - 1.0), 1.0, K)
    return g, alpha


def test_delta_alpha_basics():
    g, alpha = circle_setup()
    c = SpectralField.constant(g, 3.0)
    assert delta_alpha(c, alpha).l2_norm() == 0.0
    u = SpectralField.from_modes(g, {2: 1.0 + 0.5j})
    got = delta_alpha(u, alpha)
    factor = np.exp(2j * alpha.alpha) - 1.0
    assert abs(got.coeffs[g.max_mode + 2] - factor * (1.0 + 0.5j)) < 1e-13


def test_delta_alpha_inverse_single_mode_formula():
    g, alpha = circle_setup()
    f = SpectralField.from_modes(g, {1: 1.0})
    v = delta_alpha_inverse(f, alpha)
    expect = 1.0 / (np.exp(1j * alpha.alpha) - 1.0)
    assert abs(v.coeffs[g.max_mode + 1] - expect) < 1e-13


def test_delta_alpha_inverse_rejects_nonzero_mean():
    g, alpha = circle_setup()
    f = SpectralField.from_modes(g, {1: 1.0}) + 0.5
    with pytest.raises(NonzeroMeanError):
        delta_alpha_inverse(f, alpha)


@pytest.mark.parametrize("case", ["angle", "vector"])
def test_small_divisor_error_reports_the_divisor_of_its_mode(case):
    # several retained modes are near-resonant with different divisors; the
    # error names the first and must report that mode's own |divisor|
    if case == "angle":
        g, a = TorusGrid.create(1, 8), 2.0 * math.pi / 3.0  # k = -6, -3, 3, 6
        f = SpectralField.from_modes(g, {1: 1.0})
        with pytest.raises(ResonantModeError) as err:
            delta_alpha_inverse(f, a)
        expect = abs(np.exp(1j * err.value.mode[0] * a) - 1.0)
    else:
        g = TorusGrid.create(2, 8)
        omega = FrequencyVector((1.0, 1.0 + 1e-15), 1.0, 1.0, 8)
        f = SpectralField.from_modes(g, {(1, 0): 1.0})
        with pytest.raises(ResonantModeError) as err:
            omega_directional_inverse(f, omega)
        expect = abs(np.dot(err.value.mode, np.asarray(omega, dtype=float)))
        assert err.value.mode == (-8, 8)
    assert err.value.value > 0.0
    assert err.value.value == pytest.approx(expect, rel=1e-6, abs=0.0)


def test_delta_alpha_round_trip():
    g, alpha = circle_setup()
    rng = np.random.default_rng(2)
    f = mean_zero_random(g, rng, band=g.max_mode)
    v = delta_alpha_inverse(f, alpha)
    back = delta_alpha(v, alpha)
    assert (back - f).l2_norm() < 1e-11 * f.l2_norm()
    assert abs(v.mean()) < 1e-14


def test_delta_alpha_inverse_norm_bound():
    g, alpha = circle_setup(K=128)
    rng = np.random.default_rng(3)
    s, sigma = 2.0, alpha.sigma
    for _ in range(100):
        f = mean_zero_random(g, rng, band=g.max_mode)
        v = delta_alpha_inverse(f, alpha)
        assert v.sobolev_norm(s) <= 2.0 * alpha.gamma * f.sobolev_norm(s + sigma)


def test_inverses_commute_with_translate():
    g, alpha = circle_setup()
    rng = np.random.default_rng(4)
    f = mean_zero_random(g, rng)
    shift = [0.9]
    lhs = delta_alpha_inverse(f, alpha).translate(shift)
    rhs = delta_alpha_inverse(f.translate(shift), alpha)
    assert (lhs - rhs).l2_norm() < 1e-13


def test_translation_symbol_is_computed_once_per_shift_and_read_only():
    # translate, delta_alpha and delta_alpha_inverse read one cached e^{ik alpha}
    g, alpha = circle_setup()
    f = mean_zero_random(g, np.random.default_rng(5))
    spectral._shift_symbol.cache_clear()
    moved, diff, inv = f.translate([alpha.alpha]), delta_alpha(f, alpha), delta_alpha_inverse(f, alpha)
    info = spectral._shift_symbol.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    symbol = spectral._shift_symbol(g, (alpha.alpha,))
    assert not symbol.flags.writeable
    assert np.array_equal(symbol, np.exp(1j * g.mode_axis * alpha.alpha))
    assert np.array_equal(moved.coeffs, f.coeffs * symbol)
    assert np.array_equal(diff.coeffs, (f.coeffs * symbol) - f.coeffs)
    nz = g.mode_axis != 0
    assert np.array_equal(inv.coeffs[nz], f.coeffs[nz] / (symbol[nz] - 1.0))


# --- directional inverse -------------------------------------------------------


def torus_setup(K=16):
    g = TorusGrid.create(2, K)
    omega = FrequencyVector.certify([1.0, GOLDEN], 1.0, K)
    return g, omega


def test_omega_inverse_cosine_formula():
    g, omega = torus_setup()
    f = SpectralField.from_modes(g, {(1, 1): 0.5})  # cos(k.theta), k = (1,1)
    v = omega_directional_inverse(f, omega)
    kw = omega.omega[0] + omega.omega[1]
    # expected sin(k.theta)/(k.omega)
    expect = SpectralField.from_modes(g, {(1, 1): -0.5j / kw})
    assert np.max(np.abs(v.coeffs - expect.coeffs)) < 1e-14


def test_omega_inverse_mean_policy():
    g, omega = torus_setup()
    f = SpectralField.from_modes(g, {(1, 0): 0.5}) + 0.3
    with pytest.raises(NonzeroMeanError):
        omega_directional_inverse(f, omega)
    # roundoff-scale mean is silently projected out
    tiny = SpectralField.from_modes(g, {(1, 0): 0.5}) + 1e-14
    v = omega_directional_inverse(tiny, omega)
    assert abs(v.mean()) == 0.0


def test_omega_inverse_round_trip_and_norm_bound():
    g, omega = torus_setup()
    rng = np.random.default_rng(5)
    s = 1.5
    for _ in range(100):
        f = mean_zero_random(g, rng, band=g.max_mode)
        v = omega_directional_inverse(f, omega)
        back = v.omega_derivative(np.asarray(omega, dtype=float))
        assert (back - f).l2_norm() < 1e-11 * f.l2_norm()
        assert v.sobolev_norm(s) <= omega.gamma * f.sobolev_norm(s + omega.sigma)


def test_omega_inverse_componentwise_on_vectors():
    g, omega = torus_setup()
    rng = np.random.default_rng(6)
    v = VectorField([mean_zero_random(g, rng), mean_zero_random(g, rng)])
    out = omega_directional_inverse(v, omega)
    for i in range(2):
        single = omega_directional_inverse(v[i], omega)
        assert (out[i] - single).l2_norm() == 0.0


def test_delta_alpha_inverse_componentwise_on_vectors():
    g, alpha = circle_setup()
    rng = np.random.default_rng(9)
    v = VectorField([mean_zero_random(g, rng) for _ in range(3)])
    out = delta_alpha_inverse(v, alpha)
    for i in range(3):
        assert np.array_equal(out[i].coeffs, delta_alpha_inverse(v[i], alpha).coeffs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
def test_both_inverses_are_the_literal_modewise_division(dim, shape, seed):
    # the quotient f_k / divisor_k mode by mode, on numpy scalars, bit for bit
    rng = np.random.default_rng(seed)
    g = TorusGrid.create(dim, 4)
    c = rng.standard_normal(shape + g.mode_shape) + 1j * rng.standard_normal(shape + g.mode_shape)
    f = SpectralField(g, 0.5 * (c + np.conj(c[g._reverse_index])))
    f.coeffs[g.mean_index] = 0.0
    omega = FrequencyVector(tuple(rng.uniform(0.5, 1.5, dim)), 1.0, 1.0, 4)
    alpha = rng.uniform(0.5, 6.0)
    divisors = [lambda k: 1j * sum(ki * wi for ki, wi in zip(k, np.asarray(omega, dtype=float)))]
    inverses = [omega_directional_inverse(f, omega)]
    if dim == 1:
        divisors.append(lambda k: np.exp(1j * k[0] * alpha) - 1.0)
        inverses.append(delta_alpha_inverse(f, alpha))
    for divisor, got in zip(divisors, inverses):
        want = np.zeros_like(f.coeffs)
        for idx in np.ndindex(g.mode_shape):
            k = g.mode_axis[list(idx)]
            if np.any(k):
                want[(Ellipsis,) + idx] = f.coeffs[(Ellipsis,) + idx] / divisor(k)
        assert np.array_equal(got.coeffs, want)


# --- remove_mean ---------------------------------------------------------------


def test_remove_mean():
    g, _ = circle_setup()
    c = SpectralField.constant(g, 5.0)
    assert remove_mean(c).l2_norm() == 0.0
    rng = np.random.default_rng(7)
    f = mean_zero_random(g, rng)
    assert (remove_mean(f) - f).l2_norm() == 0.0
    assert remove_mean(f + 2.0).mean() == 0.0


def test_omega_inverse_commutes_with_translate():
    g, omega = torus_setup()
    rng = np.random.default_rng(8)
    f = mean_zero_random(g, rng)
    shift = [0.4, 1.3]
    lhs = omega_directional_inverse(f, omega).translate(shift)
    rhs = omega_directional_inverse(f.translate(shift), omega)
    assert (lhs - rhs).l2_norm() < 1e-13
