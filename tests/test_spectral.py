"""Fourier-calculus layer: transforms, exact linear ops, dealiased products."""

import json
import tracemalloc

import numpy as np
import pytest

from paratorus import (
    GridMismatchError,
    SerializationError,
    SpectralField,
    TorusGrid,
    analyze,
    compose_warped,
    field_from_json,
    field_to_json,
    synthesize,
)
from paratorus.dyadic import para_points, top_level
import paratorus.spectral as spectral
from paratorus.spectral import _synthesize_half, warp_samples


def grid1d(K=16):
    return TorusGrid(1, K)


def random_field(grid, rng, band=None, amp=1.0):
    """Random real field band-limited to |k_i| <= band (default K//2)."""
    band = band or grid.max_mode // 2
    f = SpectralField.constant(grid, 0.0)
    K = grid.max_mode
    n_modes = 12
    for _ in range(n_modes):
        k = tuple(int(rng.integers(-band, band + 1)) for _ in range(grid.dim))
        val = amp * (rng.standard_normal() + 1j * rng.standard_normal()) / n_modes
        idx = tuple(c + K for c in k)
        ridx = tuple(-c + K for c in k)
        f.coeffs[idx] += val
        f.coeffs[ridx] += np.conj(val)
    return f


def hermitian_defect(f):
    """max_k |f_k - conj(f_{-k})|: zero exactly when every component is a real field."""
    rev = f.coeffs[f.grid._reverse_index]
    return float(np.max(np.abs(f.coeffs - np.conj(rev)), initial=0.0))


def direct_eval(f, pts):
    """Re sum_k u_hat(k) e^{i k.x} by direct summation: one exponential per mode and point.

    A mode is skipped when every component's coefficient is exactly zero
    there (a NaN coefficient is kept); the reference for the point evaluators.
    """
    g = f.grid
    flat = pts.reshape(g.dim, -1)
    npts = flat.shape[1]
    cmat = f.coeffs.reshape((-1, g.mode_list.shape[0]))
    mask = np.any(cmat != 0, axis=0)
    modes = g.mode_list[mask].astype(float)
    cmat = cmat[:, mask]
    out = np.zeros((cmat.shape[0], npts), dtype=np.complex128)
    chunk = max(1, int(4_000_000 // max(npts, 1)))
    for start in range(0, modes.shape[0], chunk):
        sl = slice(start, start + chunk)
        waves = 1j * (modes[sl] @ flat)
        out += cmat[:, sl] @ np.exp(waves, out=waves)  # in place: one chunk-sized buffer
    return out.real.reshape(f.shape + pts.shape[1:]).copy()


# --- grid validation -------------------------------------------------------


def test_grid_rejects_bad_dim():
    with pytest.raises(ValueError):
        TorusGrid(4, 8)
    with pytest.raises(ValueError):
        TorusGrid(0, 8)


# --- analyze ----------------------------------------------------------------


def test_analyze_cosine_single_mode():
    g = TorusGrid(1, 2)
    x = g.point_axis
    f = analyze(g, np.cos(x))
    assert abs(f.coeffs[g.max_mode + 1] - 0.5) < 1e-14
    assert abs(f.coeffs[g.max_mode - 1] - 0.5) < 1e-14
    rest = f.coeffs.copy()
    rest[g.max_mode + 1] = rest[g.max_mode - 1] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_analyze_constant():
    g = grid1d()
    f = analyze(g, np.full(g.point_shape, 2.75))
    assert abs(f.mean() - 2.75) < 1e-14


def test_analyze_cos_squared_against_dft_oracle():
    g = TorusGrid(1, 4)
    x = g.point_axis
    samples = np.cos(x) ** 2
    f = analyze(g, samples)
    # independent oracle: plain DFT sum per retained mode
    N = g.points_per_dim
    for k in range(-g.max_mode, g.max_mode + 1):
        oracle = np.sum(samples * np.exp(-1j * k * x)) / N
        assert abs(f.coeffs[k + g.max_mode] - oracle) < 1e-13
    # trig identity: cos^2 = 1/2 + cos(2x)/2
    assert abs(f.mean() - 0.5) < 1e-14
    assert abs(f.coeffs[g.max_mode + 2] - 0.25) < 1e-14


def test_analyze_shape_mismatch():
    g = grid1d()
    with pytest.raises(ValueError):
        analyze(g, np.zeros(g.points_per_dim + 1))


def rfftn_analyze(grid, samples, points):
    """analyze() as it was before its pruned passes: one rfftn of every bin, the retained
    k_last >= 0 modes picked out, the rest filled by conjugation."""
    K = grid.max_mode
    c = np.fft.rfftn(samples, axes=grid.axes, norm="forward")
    bins = grid.mode_axis % points
    index = np.ix_(*[bins] * (grid.dim - 1)) + (slice(K + 1),)
    coeffs = np.empty(samples.shape[: samples.ndim - grid.dim] + grid.mode_shape, dtype=complex)
    coeffs[..., K:] = c[(slice(None),) * (c.ndim - grid.dim) + index]
    for ax in range(grid.dim):
        half = (Ellipsis, slice(None, K)) + (K,) * ax
        coeffs[half] = np.conj(coeffs[grid._reverse_index][half])
    return coeffs


@pytest.mark.parametrize("dim, K", [(1, 8), (1, 512), (2, 12), (2, 32), (3, 8)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("para", [False, True], ids=["4K", "N_pp"])
def test_pruned_analyze_equals_rfftn_bit_for_bit(dim, K, shape, para):
    # on the 4K collocation grid and on the para-product grid
    g = TorusGrid(dim, K)
    points = para_points(K, top_level(dim, K)) if para else g.points_per_dim
    samples = np.random.default_rng(dim * K).standard_normal(shape + (points,) * dim)
    assert np.array_equal(analyze(g, samples).coeffs, rfftn_analyze(g, samples, points))


@pytest.mark.parametrize("dim, K", [(1, 8), (1, 512), (2, 12), (3, 8)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("para", [False, True], ids=["4K", "N_pp"])
def test_synthesis_passes_equal_irfftn_bit_for_bit(dim, K, shape, para):
    # _synthesize_half makes irfftn's passes itself; irfftn on the zero-padded half is the oracle
    g = TorusGrid(dim, K)
    points = para_points(K, top_level(dim, K)) if para else g.points_per_dim
    rng = np.random.default_rng(dim * K + 1)
    half = analyze(g, rng.standard_normal(shape + g.point_shape)).coeffs[..., K:]
    buf = np.zeros(shape + (points,) * (dim - 1) + (K + 1,), dtype=complex)
    buf[(Ellipsis,) + np.ix_(*[g.mode_axis % points] * (dim - 1), np.arange(K + 1))] = half
    ref = np.fft.irfftn(buf, s=(points,) * dim, axes=g.axes, norm="forward")
    assert np.array_equal(_synthesize_half(g, half, points), ref)


def test_analyze_reads_the_point_count_from_the_samples():
    g = TorusGrid(2, 8)
    for points in (2 * 8, 4 * 8 + 1):
        with pytest.raises(ValueError):
            analyze(g, np.zeros((points, points)))
    with pytest.raises(ValueError):
        analyze(g, np.zeros((24, 32)))  # unequal axes
    f = analyze(g, np.full((17, 17), 2.75))  # any 2K < N <= 4K
    assert abs(f.mean() - 2.75) < 1e-14


def test_round_trip_band_limited():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        g = TorusGrid(dim, 6)
        f = random_field(g, rng)
        back = analyze(g, f.samples())
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


# --- synthesize ------------------------------------------------------------


def test_synthesize_single_mode_at_zero():
    g = grid1d(4)
    f = SpectralField.from_modes(g, {1: 0.5})
    assert abs(synthesize(f, np.array([0.0])) [0] - 1.0) < 1e-14


def test_synthesize_matches_grid_samples():
    rng = np.random.default_rng(3)
    g = grid1d(8)
    f = random_field(g, rng)
    pts = g.point_axis
    vals = synthesize(f, pts)
    assert np.max(np.abs(vals - f.samples())) < 1e-12


def test_synthesize_against_term_sum_oracle():
    rng = np.random.default_rng(11)
    g = TorusGrid(2, 5)
    f = random_field(g, rng, band=2)
    pts = rng.uniform(0, 2 * np.pi, size=(100, 2))
    vals = synthesize(f, pts)
    K = g.max_mode
    for p, v in zip(pts, vals):
        acc = 0.0 + 0.0j
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                acc += f.coeffs[k1 + K, k2 + K] * np.exp(1j * (k1 * p[0] + k2 * p[1]))
        assert abs(v - acc.real) < 1e-12


def test_point_evaluators_keep_a_nan_coefficient():
    # a mode whose only nonzero coefficient is NaN is evaluated, not dropped,
    # wherever it sits: the evaluators fold c_k + conj(c_{-k}) onto k_last >= 0
    # and keep the plane k_last = 0 whole, so a NaN in either half survives
    g = TorusGrid(2, 8)
    wpts = np.stack(g.point_mesh) + 0.01
    for k in [(1, 0), (-1, 0), (2, 3), (2, -3)]:  # the plane k_last = 0, then each half
        f = SpectralField.constant(g, 0.0)
        f.coeffs[k[0] + 8, k[1] + 8] = np.nan
        if k[1] >= 0:  # the transform path reads the k_last >= 0 half only
            assert np.any(np.isnan(f.samples()))
        assert np.isnan(synthesize(f, np.array([0.3, 0.9])))
        assert np.all(np.isnan(warp_samples(f, wpts)))


def test_dense_dim3_warp_is_chunked_and_matches_the_direct_sum():
    rng = np.random.default_rng(8)
    g = TorusGrid(3, 8)  # 4,913 modes at 32^3 targets
    c = rng.standard_normal(g.mode_shape) + 1j * rng.standard_normal(g.mode_shape)
    f = SpectralField(g, 0.5 * (c + np.conj(c[g._reverse_index])))
    pts = np.stack(g.point_mesh) + 0.1 * rng.uniform(-1.0, 1.0, (3,) + g.point_shape)
    tracemalloc.start()
    try:
        vals = warp_samples(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the direct sum peaked at 153.5 MiB here and an unchunked contraction at 174.5 MiB
    assert peak < 153 * 2**20
    # targets across every chunk against the direct sum
    pick = rng.choice(pts[0].size, 64, replace=False)
    ref = direct_eval(f, pts.reshape(3, -1)[:, pick])
    assert np.max(np.abs(vals.ravel()[pick] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("ks", [range(1, 7), range(-12, 13), range(0, 513), [0, 200], [-511, 3, 500]],
                         ids=["1..6", "-12..12", "0..512", "0,200", "-511,3,500"])
def test_power_phase_table_is_as_accurate_as_the_exponentials(ks):
    # against long-double cos/sin of k x, on the K = 512 collocation points and warped ones
    k = np.array(ks)
    rng = np.random.default_rng(3)
    x = np.concatenate([grid1d(512).point_axis, rng.uniform(-0.5, 2.0 * np.pi + 0.5, 1000)])
    phase = np.multiply.outer(k.astype(np.longdouble), x.astype(np.longdouble))
    exact_cos, exact_sin = np.cos(phase), np.sin(phase)

    def error(table):
        return float(np.max(np.hypot((table.real - exact_cos).astype(float),
                                     (table.imag - exact_sin).astype(float))))

    powers = spectral._phase_table(k, x)
    assert powers.shape == (len(k), len(x))
    assert error(powers) <= error(np.exp(1j * np.multiply.outer(k, x)))


def test_eval_at_matches_the_direct_sum_at_k_512():
    # the direct sum rounds each phase k x, an error of up to k x eps per term: on
    # coefficients decaying like 1/|k| it stays below the tolerance, on white-noise ones
    # it reaches 1e-13 relative, and there the power tables are the closer to the
    # long-double sum (1.5e-14 against 1.0e-13 at these seeds)
    g = grid1d(512)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 2.0 * np.pi + 0.5, (1, 700))
    phase = np.multiply.outer(g.mode_axis.astype(np.longdouble), pts[0].astype(np.longdouble))
    for decay in [1.0, 0.0]:
        c = rng.standard_normal(g.mode_shape) + 1j * rng.standard_normal(g.mode_shape)
        c = c / (1.0 + np.abs(g.mode_axis)) ** decay
        f = SpectralField(g, 0.5 * (c + np.conj(c[g._reverse_index])))
        got, ref = spectral._eval_at(f, pts), direct_eval(f, pts)
        if decay:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            exact = (f.coeffs.real.astype(np.longdouble) @ np.cos(phase)
                     - f.coeffs.imag.astype(np.longdouble) @ np.sin(phase))
            assert np.max(np.abs(got - exact)) < np.max(np.abs(ref - exact))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_at_contracts_only_the_rows_it_needs(dim):
    # all-zero rows come out as exact zeros; the others as if the zero rows were not there
    rng = np.random.default_rng(20 + dim)
    g = TorusGrid(dim, 6 if dim < 3 else 3)
    f1, f2 = random_field(g, rng), random_field(g, rng, band=1)
    zero = SpectralField.constant(g, 0.0)
    pts = np.stack(g.point_mesh) + 0.3 * rng.uniform(-1.0, 1.0, (dim,) + g.point_shape)
    got = spectral._eval_at(SpectralField.stack([zero, f1, zero, f2, zero]), pts)
    assert np.all(got[[0, 2, 4]] == 0.0) and not np.any(np.signbit(got[[0, 2, 4]]))
    assert np.array_equal(got[[1, 3]], spectral._eval_at(SpectralField.stack([f1, f2]), pts))
    alone = spectral._eval_at(SpectralField.stack([zero, f1, zero]), pts)
    assert np.array_equal(alone[1], spectral._eval_at(f1, pts))
    # a row whose only coefficient is a NaN still reaches the output
    nan = SpectralField.constant(g, 0.0)
    nan.coeffs[(1,) * dim] = np.nan
    got = spectral._eval_at(SpectralField.stack([zero, nan, f1]), pts)
    assert np.all(got[0] == 0.0) and np.all(np.isnan(got[1])) and np.all(np.isfinite(got[2]))


# --- derivative / translate / mean ------------------------------------------


def test_derivative_sin_to_cos():
    g = grid1d(4)
    f = SpectralField.from_modes(g, {1: -0.5j})  # sin(x)
    d = f.derivative(0)
    cosx = SpectralField.from_modes(g, {1: 0.5})
    assert np.max(np.abs(d.coeffs - cosx.coeffs)) < 1e-15


def test_derivative_constant_is_zero_and_mean_exact():
    g = grid1d()
    c = SpectralField.constant(g, 4.2)
    assert c.derivative(0).l2_norm() == 0.0
    rng = np.random.default_rng(0)
    f = random_field(g, rng)
    assert f.derivative(0).mean() == 0.0


def test_derivative_leibniz_oracle():
    rng = np.random.default_rng(5)
    g = grid1d(16)
    f = random_field(g, rng, band=6)
    h = random_field(g, rng, band=6)
    lhs = f.product(h).derivative(0)
    rhs = f.derivative(0).product(h) + f.product(h.derivative(0))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11


def test_mean_against_quadrature_oracle():
    rng = np.random.default_rng(9)
    g = TorusGrid(2, 6)
    f = random_field(g, rng)
    assert abs(f.mean() - float(np.mean(f.samples()))) < 1e-12


def test_translate_identity_and_quarter_period():
    g = grid1d(4)
    sinx = SpectralField.from_modes(g, {1: -0.5j})
    cosx = SpectralField.from_modes(g, {1: 0.5})
    assert np.max(np.abs(sinx.translate([0.0]).coeffs - sinx.coeffs)) == 0.0
    shifted = sinx.translate([np.pi / 2])
    assert np.max(np.abs(shifted.coeffs - cosx.coeffs)) < 1e-15


def test_translate_group_law():
    rng = np.random.default_rng(13)
    g = grid1d(12)
    f = random_field(g, rng)
    a = 0.7321
    twice = f.translate([a]).translate([a])
    once = f.translate([2 * a])
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-13


def test_derivative_translate_commute():
    rng = np.random.default_rng(17)
    g = grid1d(12)
    f = random_field(g, rng)
    a = [1.234]
    lhs = f.translate(a).derivative(0)
    rhs = f.derivative(0).translate(a)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-14


# --- product ---------------------------------------------------------------


def test_product_identity_and_cos_squared():
    g = grid1d(4)
    one = SpectralField.constant(g, 1.0)
    cosx = SpectralField.from_modes(g, {1: 0.5})
    assert np.max(np.abs(cosx.product(one).coeffs - cosx.coeffs)) == 0.0
    sq = cosx.product(cosx)
    expect = SpectralField.from_modes(g, {2: 0.25}) + 0.5
    assert np.max(np.abs(sq.coeffs - expect.coeffs)) < 1e-14


def test_product_against_convolution_oracle():
    rng = np.random.default_rng(23)
    g = grid1d(16)
    f = random_field(g, rng, band=7)
    h = random_field(g, rng, band=7)
    got = f.product(h)
    conv = np.convolve(f.coeffs, h.coeffs)  # indices shift by 2K
    K = g.max_mode
    center = len(conv) // 2
    oracle = conv[center - K : center + K + 1]
    assert np.max(np.abs(got.coeffs - oracle)) < 1e-11


def test_product_commutative_and_associative():
    rng = np.random.default_rng(29)
    g = grid1d(16)
    f = random_field(g, rng, band=4)
    h = random_field(g, rng, band=4)
    w = random_field(g, rng, band=4)
    assert np.max(np.abs(f.product(h).coeffs - h.product(f).coeffs)) < 1e-13
    lhs = f.product(h).product(w)
    rhs = f.product(h.product(w))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11


def test_product_grid_mismatch():
    f = SpectralField.constant(grid1d(8), 1.0)
    h = SpectralField.constant(grid1d(16), 1.0)
    with pytest.raises(GridMismatchError):
        f.product(h)


# --- stacking --------------------------------------------------------------


def test_stack_gives_one_component_axis_per_level_of_nesting():
    g = grid1d(8)
    rng = np.random.default_rng(41)
    f = [random_field(g, rng) for _ in range(6)]
    v = SpectralField.stack(f[:3])
    assert v.shape == (3,) and all(np.array_equal(v[i].coeffs, f[i].coeffs) for i in range(3))
    rows = SpectralField.stack([f[0:3], f[3:6]])
    assert rows.shape == (2, 3)
    assert all(np.array_equal(rows[p, q].coeffs, f[3 * p + q].coeffs)
               for p in range(2) for q in range(3))
    # a field in the sequence keeps its own component axes: rows of vectors stack like rows
    assert np.array_equal(SpectralField.stack([v, SpectralField.stack(f[3:6])]).coeffs, rows.coeffs)


def test_stack_rejects_an_empty_sequence_and_two_grids():
    with pytest.raises(ValueError, match="empty sequence"):
        SpectralField.stack([])
    with pytest.raises(ValueError, match="empty sequence"):
        SpectralField.stack([[]])
    with pytest.raises(GridMismatchError):
        SpectralField.stack([SpectralField.constant(grid1d(8), 0.0),
                             SpectralField.constant(grid1d(16), 0.0)])
    with pytest.raises(GridMismatchError):
        SpectralField.stack([[SpectralField.constant(grid1d(8), 0.0)],
                             [SpectralField.constant(TorusGrid(2, 8), 0.0)]])


def test_the_former_field_constructors_are_aliases():
    # perfbench still builds its torus inputs with VectorField(list) and MatrixField.constant
    import paratorus as pt

    g = TorusGrid(2, 4)
    fields = [SpectralField.constant(g, w) for w in (1.0, 0.5)]
    assert pt.VectorField(fields).coeffs.tobytes() == SpectralField.stack(fields).coeffs.tobytes()
    eye = pt.MatrixField.constant(g, np.eye(2)).coeffs
    assert eye.tobytes() == SpectralField.constant(g, np.eye(2)).coeffs.tobytes()


# --- compose_warped ---------------------------------------------------------


def test_compose_warped_zero_and_constant_warp():
    rng = np.random.default_rng(31)
    g = grid1d(12)
    f = random_field(g, rng)
    zero_w = SpectralField.stack([SpectralField.constant(g, 0.0)])
    assert np.max(np.abs(compose_warped(f, zero_w).coeffs - f.coeffs)) < 1e-12
    c = 0.8127
    const_w = SpectralField.stack([SpectralField.constant(g, c)])
    got = compose_warped(f, const_w)
    assert np.max(np.abs(got.coeffs - f.translate([c]).coeffs)) < 1e-12


def test_compose_warped_pointwise_oracle():
    g = grid1d(32)
    f = SpectralField.from_modes(g, {3: 0.5})  # cos(3x)
    w = SpectralField.from_modes(g, {1: -0.05j})  # 0.1 sin -> eps sin with eps=0.1
    comp = compose_warped(f, SpectralField.stack([w]))
    rng = np.random.default_rng(37)
    pts = rng.uniform(0, 2 * np.pi, 200)
    got = synthesize(comp, pts)
    warped = pts + synthesize(w, pts)
    oracle = np.cos(3 * warped)
    assert np.max(np.abs(got - oracle)) < 1e-10


# --- norms -------------------------------------------------------------------


def test_sobolev_norm_examples():
    g = grid1d(8)
    c = SpectralField.constant(g, -3.5)
    for s in (0.0, 1.5, 3.0):
        assert abs(c.sobolev_norm(s) - 3.5) < 1e-14
    two_cos = SpectralField.from_modes(g, {1: 1.0})  # e^{ix} + e^{-ix}
    assert abs(two_cos.sobolev_norm(0.0) - np.sqrt(2.0)) < 1e-14


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(41)
    g = grid1d(16)
    f = random_field(g, rng)
    assert f.sobolev_norm(1.0) <= f.sobolev_norm(2.0) <= f.sobolev_norm(3.5)


def test_sup_norm_examples():
    g = grid1d(8)
    cosx = SpectralField.from_modes(g, {1: 0.5})
    assert abs(cosx.sup_norm() - 1.0) < 1e-12
    assert abs(SpectralField.constant(g, -2.0).sup_norm() - 2.0) < 1e-14
    rng = np.random.default_rng(43)
    f = random_field(g, rng)
    assert f.sup_norm() <= np.sum(np.abs(f.coeffs)) + 1e-12


def test_hermitian_symmetry_preserved():
    rng = np.random.default_rng(47)
    g = TorusGrid(2, 6)
    f = random_field(g, rng)
    ops = [f.derivative(1), f.translate([0.3, 0.4]), f.product(f)]
    for out in ops:
        assert hermitian_defect(out) < 1e-12


# --- serialization -----------------------------------------------------------


def test_serialization_round_trip():
    rng = np.random.default_rng(53)
    g = TorusGrid(2, 5)
    f = random_field(g, rng)
    doc = field_to_json(f)
    back = field_from_json(json.loads(json.dumps(doc)))
    assert back.grid.dim == 2 and back.grid.max_mode == 5
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-15


def test_serialization_drops_tiny_modes():
    g = grid1d(4)
    f = SpectralField.from_modes(g, {1: 1e-20})
    assert field_to_json(f)["coeffs"] == []


def test_serialization_rejects_hermitian_violation():
    doc = {
        "dim": 1,
        "K": 4,
        "coeffs": [
            {"k": [1], "re": 1.0, "im": 0.0},
            {"k": [-1], "re": 0.5, "im": 0.0},
        ],
    }
    with pytest.raises(SerializationError):
        field_from_json(doc)


def test_serialization_rejects_an_imaginary_mean():
    doc = {"dim": 1, "K": 4, "coeffs": [{"k": [0], "re": 1.0, "im": 0.5}]}
    with pytest.raises(SerializationError):
        field_from_json(doc)
    doc["coeffs"][0]["im"] = 1e-12  # within the tolerance: dropped, the mean is real
    assert field_from_json(doc).coeffs[4] == 1.0


def test_serialization_mirrors_one_sided_modes():
    doc = {"dim": 1, "K": 4, "coeffs": [{"k": [2], "re": 0.25, "im": -0.1}]}
    f = field_from_json(doc)
    assert abs(f.coeffs[f.grid.max_mode - 2] - np.conj(0.25 - 0.1j)) < 1e-15
    assert hermitian_defect(f) == 0.0


def test_serialization_rejects_a_field_with_component_axes():
    """A 2-component field would serialize as its component 0 and round-trip as a scalar."""
    rng = np.random.default_rng(59)
    g = TorusGrid(2, 4)
    f = SpectralField.stack([random_field(g, rng) for _ in range(2)])
    with pytest.raises(ValueError, match=r"component shape \(2,\)"):
        field_to_json(f)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_serialization_rejects_non_finite_coefficients(value):
    doc = {"dim": 1, "K": 4, "coeffs": [{"k": [1], "re": 0.5, "im": value}]}
    with pytest.raises(SerializationError):
        field_from_json(doc)


def test_serialization_rejects_a_non_integral_mode_index():
    doc = {"dim": 1, "K": 4, "coeffs": [{"k": [1.5], "re": 0.1, "im": 0.0}]}
    with pytest.raises(SerializationError, match="non-integral mode index"):
        field_from_json(doc)
    doc["coeffs"][0]["k"] = [1.0]  # an integral float names the mode
    assert field_from_json(doc).coeffs[5] == 0.1


@pytest.mark.parametrize(
    "key, value, message",
    [("dim", 2.7, "non-integral dim 2.7"), ("dim", True, "dim must be a number, got True"),
     ("re", "0.1", "re must be a number, got '0.1'"), ("re", True, "re must be a number"),
     ("k", [True, 0], "mode index must be a number, got True")],
    ids=["fractional-dim", "bool-dim", "string-re", "bool-re", "bool-k"],
)
def test_serialization_rejects_a_value_that_is_not_a_json_number(key, value, message):
    """int() and float() would read 2.7 as 2, True as 1 and "0.1" as 0.1; each is rejected."""
    doc = {"dim": 2, "K": 4, "coeffs": [{"k": [1, 0], "re": 0.1, "im": 0.0}]}
    target = doc if key == "dim" else doc["coeffs"][0]
    target[key] = value
    with pytest.raises(SerializationError, match=message):
        field_from_json(doc)


def test_serialization_reads_integral_floats_as_integers():
    doc = {"dim": 2.0, "K": 4.0, "coeffs": [{"k": [1.0, 0], "re": 1, "im": 0}]}
    f = field_from_json(doc)
    assert (f.grid.dim, f.grid.max_mode, f.coeffs[5, 4]) == (2, 4, 1.0)


# --- component axes ----------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("components", [(), (3,), (2, 3)])
def test_stacked_transforms_match_per_component(dim, components):
    rng = np.random.default_rng(61 + dim)
    g = TorusGrid(dim, 3 if dim == 3 else 6)
    fields = [random_field(g, rng) for _ in range(int(np.prod(components)))]
    f = SpectralField(g, np.stack([h.coeffs for h in fields]).reshape(components + g.mode_shape))
    stacked = f.samples()
    back = analyze(g, stacked)
    pts = np.stack(g.point_mesh) + 0.2 * rng.uniform(-1.0, 1.0, (dim,) + g.point_shape)
    warped = warp_samples(f, pts)
    for idx in np.ndindex(components):
        one = f[idx]
        assert np.array_equal(stacked[idx], one.samples())
        assert np.array_equal(back[idx].coeffs, analyze(g, one.samples()).coeffs)
        ref = warp_samples(one, pts)
        assert np.max(np.abs(warped[idx] - ref)) <= 1e-14 * np.max(np.abs(ref))
