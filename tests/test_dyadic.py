"""Dyadic blocks: partition exactness, support, telescoping, Zygmund norm."""

import numpy as np

from paratorus import SpectralField, TorusGrid, make_cutoff, partition_residual, zygmund_norm
from paratorus.dyadic import level_bound, para_points, top_level

from test_spectral import random_field


def test_partition_exact_after_renormalization():
    for dim, K in ((1, 64), (2, 16)):
        g = TorusGrid(dim, K)
        cut = make_cutoff(g)
        assert partition_residual(cut) < 1e-14


def test_k_zero_is_pure_mean():
    g = TorusGrid(1, 16)
    cut = make_cutoff(g)
    center = (g.max_mode,) * g.dim
    assert cut.block_mult[0][center] == 1.0
    for j in range(1, cut.j_max + 1):
        assert cut.block_mult[j][center] == 0.0


def test_block_support_within_dyadic_annulus():
    g = TorusGrid(2, 16)
    cut = make_cutoff(g)
    norm = g.mode_norm
    for j in range(1, cut.j_max + 1):
        outside = (norm < 2.0 ** (j - 1)) | (norm > 2.0 ** (j + 1))
        assert np.all(cut.block_mult[j][outside] == 0.0)


def test_power_of_two_modes_live_in_their_own_block():
    g = TorusGrid(1, 64)
    cut = make_cutoff(g)
    for j in (2, 3, 4, 5):
        k = 2**j
        idx = k + g.max_mode
        weights = [cut.block_mult[l][idx] for l in range(cut.j_max + 1)]
        assert abs(weights[j] - 1.0) < 1e-14
        assert sum(abs(w) for l, w in enumerate(weights) if l != j) < 1e-14


def test_constant_blocks():
    g = TorusGrid(1, 16)
    cut = make_cutoff(g)
    c = SpectralField.constant(g, 2.5)
    assert abs(cut.block(c, 0).mean() - 2.5) < 1e-15
    for j in range(1, cut.j_max + 1):
        assert cut.block(c, j).l2_norm() == 0.0


def test_single_high_mode_block_locations():
    g = TorusGrid(1, 64)
    cut = make_cutoff(g)
    u = SpectralField.from_modes(g, {32: 1.0})  # |k| = 2^5
    live = [j for j in range(cut.j_max + 1) if cut.block(u, j).l2_norm() > 0]
    assert set(live) <= {4, 5, 6}


def test_blocks_sum_to_identity_on_random_fields():
    rng = np.random.default_rng(61)
    for dim, K in ((1, 32), (2, 8)):
        g = TorusGrid(dim, K)
        cut = make_cutoff(g)
        u = random_field(g, rng, band=K)
        total = sum((cut.block(u, j) for j in range(1, cut.j_max + 1)), cut.block(u, 0))
        assert np.max(np.abs(total.coeffs - u.coeffs)) < 1e-13


def test_partial_sum_conventions():
    rng = np.random.default_rng(67)
    g = TorusGrid(1, 32)
    cut = make_cutoff(g)
    u = random_field(g, rng, band=32)
    # very large j returns u exactly
    top = cut.partial_sum(u, cut.j_max + 3)
    assert np.max(np.abs(top.coeffs - u.coeffs)) < 1e-14
    # negative j is the mean block
    neg = cut.partial_sum(u, -3)
    assert abs(neg.mean() - u.mean()) < 1e-14
    assert (neg - neg.mean()).l2_norm() < 1e-14


def test_partial_sum_telescopes():
    rng = np.random.default_rng(71)
    g = TorusGrid(1, 32)
    cut = make_cutoff(g)
    u = random_field(g, rng, band=32)
    for j in range(1, cut.j_max + 1):
        diff = cut.partial_sum(u, j) - cut.partial_sum(u, j - 1)
        blk = cut.block(u, j)
        assert np.max(np.abs(diff.coeffs - blk.coeffs)) < 1e-13


def test_block_spectra_disjoint_when_two_apart():
    g = TorusGrid(1, 64)
    cut = make_cutoff(g)
    for j in range(cut.j_max + 1):
        for l in range(j + 2, cut.j_max + 1):
            overlap = np.abs(cut.block_mult[j]) * np.abs(cut.block_mult[l])
            assert np.max(overlap) == 0.0


def test_bernstein_bound_on_blocks():
    rng = np.random.default_rng(73)
    g = TorusGrid(1, 64)
    cut = make_cutoff(g)
    u = random_field(g, rng, band=64)
    for j in range(1, cut.j_max + 1):
        b = cut.block(u, j)
        if b.l2_norm() == 0.0:
            continue
        assert b.derivative(0).l2_norm() <= 2.0 ** (j + 1) * b.l2_norm() * (1 + 1e-12)


def test_zygmund_norm_examples():
    g = TorusGrid(1, 32)
    cut = make_cutoff(g)
    c = SpectralField.constant(g, -1.5)
    for r in (0.5, 1.0, 2.0):
        assert abs(zygmund_norm(c, r, cut) - 1.5) < 1e-14
    u = SpectralField.from_modes(g, {16: 0.5})  # single block at j = 4
    b = cut.block(u, 4)
    assert abs(zygmund_norm(u, 2.0, cut) - 2.0 ** 8 * b.sup_norm()) < 1e-10


def test_zygmund_sobolev_embedding_constant_stable():
    # |u|_{C^{s - n/2}_*} <= C ||u||_{H^s}; the fitted C stays put as K doubles
    rng = np.random.default_rng(79)
    s = 2.5
    maxima = []
    for K in (16, 32):
        g = TorusGrid(1, K)
        cut = make_cutoff(g)
        ratios = []
        for _ in range(20):
            u = random_field(g, rng, band=K)
            ratios.append(zygmund_norm(u, s - 0.5, cut) / u.sobolev_norm(s))
        maxima.append(max(ratios))
    assert maxima[1] <= 2.0 * maxima[0] + 1e-12


def test_paraproduct_summand_support_statement():
    # each S_{j-3} a . Delta_j u (j >= 1) has modes only in [0.25 2^j, 2.25 2^j]
    rng = np.random.default_rng(83)
    g = TorusGrid(1, 64)
    cut = make_cutoff(g)
    a = random_field(g, rng, band=64)
    u = random_field(g, rng, band=64)
    norm = g.mode_norm
    for j in range(1, cut.j_max + 1):
        summand = cut.partial_sum(a, j - 3).product(cut.block(u, j))
        outside = (norm < 0.25 * 2.0**j - 1e-9) | (norm > 2.25 * 2.0**j + 1e-9)
        assert np.max(np.abs(summand.coeffs[outside]), initial=0.0) < 1e-14


def test_top_level_is_the_highest_nonzero_block():
    # the sweep holds the grids where the integer form 4^(j-1) < dim K^2 keeps an empty top
    # level, because phi rounds to 0 just above its inner edge: 1-D K = 65, 129, 2-D K = 23, 91
    # level_bound, the former max_block_index, stays the memory guards' count and a bound
    assert (level_bound(16), level_bound(64), level_bound(256)) == (5, 7, 9)
    grids = [(dim, K) for dim in (1, 2) for K in range(2, 130)] + [(3, K) for K in range(2, 19)]
    for dim, K in grids:
        cut = make_cutoff(TorusGrid(dim, K))
        live = np.flatnonzero(np.any(cut.block_mult.reshape(cut.j_max + 1, -1) != 0.0, axis=1))
        assert cut.j_max == top_level(dim, K) == live[-1] <= level_bound(K), (dim, K)
        assert partition_residual(cut) <= 1e-15, (dim, K)
        assert cut.para_points == para_points(K, cut.j_max) > 2 * K + 2 ** (cut.j_max - 2), (dim, K)
        # each low-pass is zero past its band of k_last columns, and nonzero on its last one
        for low, band in zip(cut.lowpass_mult, cut.lowpass_band):
            assert not np.any(low[..., K + band :]) and np.any(low[..., K + band - 1]), (dim, K)
