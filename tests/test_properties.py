"""Property tests: the real transforms and the stacked dyadic decomposition
against complex full-grid transforms and per-level sums written out here, point
evaluation against the direct sum, and the closed-form torus frame against
LAPACK. Non-finite input is rejected where it enters: a solver input with NonFiniteError, a CLI
config with ConfigError."""

import copy
import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratorus import (
    CircleProblem,
    FrequencyVector,
    HamiltonianData,
    NonFiniteError,
    ParaOpHandle,
    RotationAngle,
    SpectralField,
    TorusEmbedding,
    TorusGrid,
    VectorField,
    analyze,
    field_from_json,
    field_to_json,
    make_cutoff,
    meyer_apply,
    para_compose,
    solve,
    zygmund_norm,
)
import paratorus.hamtorus as hamtorus
from paratorus import cli
from paratorus.paraprod import para_invert_with_handle
from paratorus.spectral import real_terms, warp_samples
from test_cli import GOLDEN, GOLDEN_ALPHA, circle_config, no_solve, torus_config
from test_spectral import direct_eval, hermitian_defect

# derandomized, so the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)

seeds = st.integers(0, 2**32 - 1)
# (dim, K); K >= 8 gives levels above j = 3, so the stacked path runs
grids = st.sampled_from([(1, 8), (1, 32), (2, 8), (2, 12), (3, 8)])
component_shapes = st.sampled_from([(), (2,), (2, 3)])


def random_field(grid, rng, shape=()):
    """Dense random real field: Gaussian coefficients made Hermitian."""
    c = rng.standard_normal(shape + grid.mode_shape) + 1j * rng.standard_normal(shape + grid.mode_shape)
    return SpectralField(grid, 0.5 * (c + np.conj(c[grid._reverse_index])))


def relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# --- complex full-grid references --------------------------------------------


def embed_index(grid, lead):
    bins = grid.mode_axis % grid.points_per_dim
    return (slice(None),) * lead + np.ix_(*([bins] * grid.dim))


def complex_samples(f):
    g = f.grid
    buf = np.zeros(f.shape + g.point_shape, dtype=complex)
    buf[embed_index(g, len(f.shape))] = f.coeffs
    return np.fft.ifftn(buf, axes=g.axes).real * g.points_per_dim**g.dim


def complex_analyze(grid, samples):
    c = np.fft.fftn(samples, axes=grid.axes) / grid.points_per_dim**grid.dim
    return c[embed_index(grid, samples.ndim - grid.dim)]


def literal_para_product(a, u, cut):
    """sum_j S_{j-3} a . Delta_j u, every level synthesized on its own."""
    contract = "pq...,q...->p..." if a.shape else "...,...->..."
    acc = 0.0
    for j in range(cut.j_max + 1):
        low = complex_samples(cut.partial_sum(a, j - 3))
        acc = acc + np.einsum(contract, low, complex_samples(cut.block(u, j)))
    return complex_analyze(cut.grid, acc)


# --- transforms ----------------------------------------------------------------


@PROPERTY
@given(grids, component_shapes, seeds)
def test_analyze_inverts_samples(dims, shape, seed):
    g = TorusGrid.create(*dims)
    u = random_field(g, np.random.default_rng(seed), shape)
    assert relative(analyze(g, u.samples()).coeffs, u.coeffs) <= 1e-13


@PROPERTY
@given(grids, component_shapes, seeds)
def test_real_transforms_match_complex_full_grid(dims, shape, seed):
    g = TorusGrid.create(*dims)
    rng = np.random.default_rng(seed)
    u = random_field(g, rng, shape)
    assert relative(u.samples(), complex_samples(u)) <= 1e-13
    x = rng.standard_normal(shape + g.point_shape)
    out = analyze(g, x)
    assert relative(out.coeffs, complex_analyze(g, x)) <= 1e-13
    assert hermitian_defect(out) == 0.0  # Hermitian by construction, not to roundoff


@PROPERTY
@given(grids, seeds)
def test_json_round_trip_is_exact_and_mirrors_one_sided_documents(dims, seed):
    g = TorusGrid.create(*dims)
    u = random_field(g, np.random.default_rng(seed))
    doc = field_to_json(u)
    assert np.array_equal(field_from_json(doc).coeffs, u.coeffs)
    doc["coeffs"] = [e for e in doc["coeffs"] if e["k"][-1] >= 0]
    assert np.array_equal(field_from_json(doc).coeffs, u.coeffs)


def direct_product(f, g):
    """The convolution of two coefficient arrays, summed mode by mode, truncated to |k_i| <= K."""
    K, dim = f.grid.max_mode, f.grid.dim
    full = np.zeros((4 * K + 1,) * dim, dtype=complex)  # every mode |k_i| <= 2K of the product
    for k in np.ndindex(f.coeffs.shape):
        full[tuple(slice(i, i + 2 * K + 1) for i in k)] += f.coeffs[k] * g.coeffs
    return full[(slice(K, 3 * K + 1),) * dim]


@PROPERTY
@given(st.sampled_from([(1, 4), (1, 8), (1, 32), (2, 4), (2, 8)]), seeds)
def test_product_equals_the_truncated_direct_convolution(dims, seed):
    # on N = 4K points the modes 2K < |k_i| <= 3K that would alias into the band never arise
    g = TorusGrid.create(*dims)
    assert g.points_per_dim == 4 * g.max_mode
    rng = np.random.default_rng(seed)
    f, h = random_field(g, rng), random_field(g, rng)
    assert relative(f.product(h).coeffs, direct_product(f, h)) <= 1e-13


# --- point evaluation ------------------------------------------------------------

FIELD_KINDS = ("sparse", "dense", "zero", "one axis", "non-Hermitian")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([(1, 8), (1, 32), (2, 6), (2, 12), (3, 4), (3, 8)]), component_shapes,
       st.sampled_from(FIELD_KINDS), seeds)
def test_warp_samples_equals_the_direct_sum(dims, shape, kind, seed):
    g = TorusGrid.create(*dims)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape + g.mode_shape) + 1j * rng.standard_normal(shape + g.mode_shape)
    keep = np.ones(g.mode_shape, dtype=bool)
    if kind == "sparse":
        keep = rng.uniform(size=g.mode_shape) < 0.05
    elif kind == "zero":
        keep[...] = False
    elif kind == "one axis":  # every mode has k_b = 0 off one axis a
        a = rng.integers(g.dim)
        keep = np.all([k == 0 for b, k in enumerate(g.mode_mesh) if b != a], axis=0)
    c = c * keep
    if kind != "non-Hermitian":
        c = 0.5 * (c + np.conj(c[g._reverse_index]))
    f = SpectralField(g, c)
    # warped targets well outside [0, 2pi), in an arbitrary trailing shape
    pts = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, (g.dim, 7, 5))
    ref = direct_eval(f, pts)
    got = warp_samples(f, pts)
    assert got.shape == shape + (7, 5)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dims", [(1, 8), (2, 4), (3, 2)], ids=["dim1", "dim2", "dim3"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["scalar", "3", "2x2"])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(seeds)
def test_real_terms_evaluate_to_the_direct_sum(dims, shape, seed):
    # table @ [cos(x.k) | sin(x.k) | 1] against Re sum_k c_k e^{i k.x} over every mode
    g = TorusGrid.create(*dims)
    rng = np.random.default_rng(seed)
    for kind in ["Hermitian", "non-Hermitian", "sparse", "NaN at -k"]:
        c = rng.standard_normal(shape + g.mode_shape) + 1j * rng.standard_normal(shape + g.mode_shape)
        if kind == "sparse":
            c = c * (rng.uniform(size=g.mode_shape) < 0.1)
        if kind != "non-Hermitian":
            c = 0.5 * (c + np.conj(c[g._reverse_index]))
        if kind == "NaN at -k":  # mode_list is lexicographic: the modes before k = 0 are the -k
            minus_k = g.mode_list[rng.integers(g.mode_list.shape[0] // 2)]
            c[(0,) * len(shape) + tuple(minus_k + g.max_mode)] = np.nan
        f = SpectralField(g, c)
        modes, table = real_terms(f)
        pts = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, (g.dim, 9))
        phase = pts.T @ modes
        got = table @ np.concatenate([np.cos(phase), np.sin(phase), np.ones((9, 1))], axis=1).T
        ref = direct_eval(f, pts)
        assert got.shape == ref.shape == shape + (9,)
        nan = np.isnan(ref)
        assert nan.any() == (kind == "NaN at -k")
        scale = np.max(np.abs(ref), where=~nan, initial=0.0)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * scale)  # NaN where ref has NaN


# --- stacked dyadic decomposition ------------------------------------------------


@PROPERTY
@given(grids, component_shapes, seeds)
def test_blocks_match_each_block_and_sum_to_the_field(dims, shape, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    u = random_field(g, np.random.default_rng(seed), shape)
    blocks = cut.blocks(u)
    assert blocks.shape == (cut.j_max + 1,) + shape
    for j in range(cut.j_max + 1):
        assert np.array_equal(blocks[j].coeffs, cut.block(u, j).coeffs)
    assert relative(blocks.coeffs.sum(axis=0), u.coeffs) <= 1e-15


@PROPERTY
@given(grids, st.booleans(), seeds)
def test_apply_equals_the_literal_per_block_sum(dims, matrix, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    a = random_field(g, rng, (2, 2) if matrix else ())
    u = random_field(g, rng, (2,))
    got = ParaOpHandle(a, cut).apply(u).coeffs
    assert relative(got, literal_para_product(a, u, cut)) <= 1e-13


def stacked_samples(f):
    """SpectralField.samples() as it was before the half-spectrum synthesis: a zero
    real-FFT buffer of N // 2 + 1 bins, the default 1/N^n inverse scaling undone by N^n."""
    g, lead = f.grid, f.shape
    buf = np.zeros(lead + g.point_shape[:-1] + (g.points_per_dim // 2 + 1,), dtype=complex)
    bins = g.mode_axis % g.points_per_dim
    index = np.ix_(*([bins] * (g.dim - 1) + [np.arange(g.max_mode + 1)]))
    buf[(slice(None),) * len(lead) + index] = f.coeffs[..., g.max_mode :]
    return np.fft.irfftn(buf, s=g.point_shape, axes=g.axes) * (g.points_per_dim**g.dim)


def stacked_analyze(grid, samples):
    """analyze() as it was before norm="forward": rfftn, then a division by N^n."""
    K = grid.max_mode
    c = np.fft.rfftn(samples, s=grid.point_shape, axes=grid.axes) / (grid.points_per_dim**grid.dim)
    bins = grid.mode_axis % grid.points_per_dim
    index = np.ix_(*([bins] * (grid.dim - 1) + [np.arange(K + 1)]))
    coeffs = np.empty(samples.shape[: samples.ndim - grid.dim] + grid.mode_shape, dtype=complex)
    coeffs[..., K:] = c[(slice(None),) * (c.ndim - grid.dim) + index]
    for ax in range(grid.dim):
        half = (Ellipsis, slice(None, K)) + (K,) * ax
        coeffs[half] = np.conj(coeffs[grid._reverse_index][half])
    return coeffs


def stacked_apply(a, u, cut):
    """ParaOpHandle.apply as it was: two-sided blocks(u)[4:] synthesized, one einsum, analyze."""
    H = ParaOpHandle(a, cut)
    mults = cut.lowpass_mult[1 : max(1, cut.j_max - 2)]
    low = np.stack([stacked_samples(SpectralField(cut.grid, m * a.coeffs)) for m in mults])
    high = np.einsum(H.sum_levels, low, stacked_samples(cut.blocks(u)[4:]))
    return H.contract(H.avg, cut.partial_sum(u, 3).coeffs) + stacked_analyze(cut.grid, high)


# (dim, K, N): the circle_batch grid N = 2048, the sparse torus N = 128, N = 48, which is not a
# power of two, and two dim-3 grids; a 4x4 symbol acts on a 4-vector as on the T^2 frame
ORACLE_GRIDS = [(1, 32, 128), (1, 512, 2048), (2, 32, 128), (1, 12, 48), (2, 12, 48),
                (3, 8, 32), (3, 16, 64)]  # dim, K, N


@pytest.mark.parametrize("symbol_shape", [(), (4, 4)], ids=["scalar", "4x4"])
@pytest.mark.parametrize("dims", ORACLE_GRIDS, ids=lambda d: "dim%d-K%d-N%d" % d)
def test_half_spectrum_apply_equals_the_stacked_apply(dims, symbol_shape):
    # the apply runs on the para-product grid, whose N_pp is not a power of two, so it agrees
    # with the full-grid stacked apply to rounding; multiplying by a power of two is exact, so
    # at N = 2^m the full-grid block samples keep the old scaling's bits
    g = TorusGrid(*dims[:2])
    assert g.points_per_dim == dims[2]
    cut = make_cutoff(g)
    rng = np.random.default_rng(sum(dims))
    a = random_field(g, rng, symbol_shape)
    u = random_field(g, rng, symbol_shape[:1])
    got = ParaOpHandle(a, cut).apply(u).coeffs
    ref = stacked_apply(a, u, cut)
    power_of_two = g.points_per_dim & (g.points_per_dim - 1) == 0
    assert relative(got, ref) <= 1e-15
    for first in (0, 4):
        blocks = cut.block_samples(u, first)
        assert np.array_equal(blocks, cut.blocks(u)[first:].samples())
        old = stacked_samples(cut.blocks(u)[first:])
        assert np.array_equal(blocks, old) if power_of_two else relative(blocks, old) <= 1e-15


@PROPERTY
@given(st.sampled_from([(1, 16), (1, 64), (2, 8)]), st.booleans(),
       st.sampled_from([1e-6, 1e-10, 1e-13]), st.floats(-1e6, 1e6), seeds)
def test_a_warm_start_from_any_finite_w0_certifies_itself(dims, matrix, tol, scale, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    shape = (2, 2) if matrix else ()
    wiggle = random_field(g, rng, shape)
    a = SpectralField.constant(g, 2.0 * np.eye(2) if matrix else 2.0)
    a = a + wiggle * (0.3 / wiggle.sup_norm())
    v = random_field(g, rng, shape[:1])
    w0 = random_field(g, rng, shape[:1]) * scale
    H = ParaOpHandle(a, cut)
    w = para_invert_with_handle(H, v, tol=tol, max_iter=300, w0=w0)
    assert (v - H.apply(w)).l2_norm() <= tol * v.l2_norm()


@PROPERTY
@given(grids, st.floats(-3.0, 3.0), seeds)
def test_constants_act_by_multiplication_and_by_the_mean(dims, c, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    a, u = random_field(g, rng), random_field(g, rng, (2,))
    const = SpectralField.constant(g, c)
    assert np.max(np.abs(ParaOpHandle(const, cut).apply(u).coeffs - c * u.coeffs)) <= (
        1e-13 * np.max(np.abs(u.coeffs)) * max(abs(c), 1.0)
    )
    out = ParaOpHandle(a, cut).apply(const)
    assert np.max(np.abs(out.coeffs - SpectralField.constant(g, a.mean() * c).coeffs)) <= (
        1e-13 * np.max(np.abs(a.coeffs)) * max(abs(c), 1.0)
    )


@PROPERTY
@given(grids, st.floats(0.0, 3.0), seeds)
def test_zygmund_norm_and_meyer_apply_equal_their_per_level_forms(dims, r, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    u = random_field(g, rng)
    ref = max(2.0 ** (j * r) * np.max(np.abs(complex_samples(cut.block(u, j))))
              for j in range(cut.j_max + 1))
    assert abs(zygmund_norm(u, r, cut) - ref) <= 1e-13 * ref
    fam = VectorField([random_field(g, rng) for _ in range(cut.j_max + 1)])
    acc = sum(complex_samples(m) * complex_samples(cut.block(u, j))
              for j, m in enumerate(fam))
    assert relative(meyer_apply(fam, u, cut).coeffs, complex_analyze(g, acc)) <= 1e-13


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.sampled_from([(1, 16), (1, 32), (2, 8)]), seeds)
def test_para_compose_equals_its_per_level_form(dims, seed):
    g = TorusGrid.create(*dims)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    F = random_field(g, rng)
    disp = VectorField([random_field(g, rng) for _ in range(g.dim)])
    disp = disp * (0.3 / disp.jacobian().sup_norm())
    wpts = np.stack(g.point_mesh) + complex_samples(disp)
    ref = 0.0
    for j in range(cut.j_max + 1):
        composed = SpectralField(g, complex_analyze(g, warp_samples(cut.block(F, j), wpts)))
        high = cut.partial_sum(composed, j + 2)  # the window N = 2
        if j - 2 >= 0:
            high = high - cut.partial_sum(composed, j - 2)
        ref = ref + high.coeffs
    assert relative(para_compose(F, disp, cut).coeffs, ref) <= 1e-13


# --- closed-form torus frame -------------------------------------------------------


def lapack_inverse(A):
    """Inverse and determinant of the matrix samples A (matrix axes first) at every point."""
    moved = np.moveaxis(A, (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.inv(moved), (-2, -1), (0, 1)), np.linalg.det(moved)


@PROPERTY
@given(st.sampled_from([(1, 8), (2, 6), (3, 4)]), st.floats(0.0, 0.3), seeds)
def test_closed_form_frame_equals_lapack(dims, slope, seed):
    """N, M^{-1} and the two guarded determinants, det(P^T P) and s = +-det M, of embeddings
    whose displacement has sup |d w| = slope, against the LAPACK inverses and determinants."""
    g = TorusGrid.create(*dims)
    w = random_field(g, np.random.default_rng(seed), (2 * g.dim,))
    w = w * (slope / w.jacobian().sup_norm())
    guarded, guard = {}, hamtorus._guard
    with mock.patch.object(hamtorus, "_guard", lambda det, what: guarded.setdefault(what, guard(det, what))):
        P, N, M, Minv = hamtorus._frame_samples(TorusEmbedding.from_displacement(w))
    N_ref, gram_det = lapack_inverse(np.einsum("am...,an...->mn...", P, P))
    Minv_ref, M_det = lapack_inverse(M)
    assert relative(N, N_ref) <= 1e-13
    assert relative(Minv, Minv_ref) <= 1e-13
    assert relative(guarded["embedding Gram matrix"], gram_det) <= 1e-13
    assert relative(np.abs(guarded["frame matrix M"]), np.abs(M_det)) <= 1e-13


# --- translation equivariance of the circle and torus solves ------------------------------


@settings(PROPERTY, max_examples=12)
@given(st.booleans(), st.sampled_from(["standard", "refined"]), seeds)
def test_circle_solve_commutes_with_translation(on_grid, mode, seed):
    """If eta = Id + u conjugates x -> x + alpha + f(x) - lambda, Id + u(. + c) conjugates its
    translate by c, with the same lambda: the K = 32 solve of a four-mode f against the solve of
    f(. + c), over grid shifts j * 2 pi / N and off-grid ones. Both u and lambda must agree
    within the larger final increment_hs of the two solves, the solver's own accuracy: over 200
    measured cases (50 seeds, each mode and shift kind) the H^3 defect of u was at most 0.051 of
    it, when the two solves stopped one step apart, and 1.2e-4 of it otherwise; lambda differed
    by at most 2.1e-13, and by at most 5e-18 when the step counts agreed."""
    rng = np.random.default_rng(seed)
    g = TorusGrid.create(1, 32)
    alpha = RotationAngle.certify(GOLDEN_ALPHA, 1.0, 32)
    f = SpectralField.from_modes(g, {k: rng.uniform(0.002, 0.01) * np.exp(1j * p)
                                     for k, p in zip([1, 2, 3, 4], rng.uniform(0.0, 2 * np.pi, 4))})
    N = g.points_per_dim
    c = rng.integers(0, N) * 2 * np.pi / N if on_grid else rng.uniform(0.0, 2 * np.pi)
    problem = lambda f: CircleProblem(alpha=alpha, f=f, s=3.0, mode=mode)
    sol, moved = solve(problem(f)), solve(problem(f.translate([c])))
    tol = max(sol.report.last("increment_hs"), moved.report.last("increment_hs"))
    assert (moved.u - sol.u.translate([c])).sobolev_norm(3.0) <= tol
    assert abs(moved.lam - sol.lam) <= tol


@settings(PROPERTY, max_examples=12)
@given(st.booleans(), st.booleans(), seeds)
def test_torus_solve_commutes_with_translation(on_grid, varying_Q, seed):
    """If u solves for h, u(. + c) solves for h(. + c) with the same (xi, mu): the thm1 solve
    at K = 8 of a four-mode a0 (and a varying Q) against the solve of its translate, over grid
    shifts j * 2 pi / N and off-grid ones. The translate of the solution must agree within the
    larger final increment_hs of the two solves, the solver's own accuracy: over 46 measured
    cases the defect was at most 0.017 of it (the off-grid ones, whose samples alias
    differently; grid shifts differ by rounding alone), and mu differed by at most 5e-19."""
    rng = np.random.default_rng(seed)
    g = TorusGrid.create(2, 8)
    omega = FrequencyVector.certify([1.0, GOLDEN], 1.0, 8)
    modes = [(1, 0), (0, 1), (1, 1), (2, -1)]
    a0 = SpectralField.from_modes(g, {k: 0.0025 * np.exp(1j * p)
                                      for k, p in zip(modes, rng.uniform(0.0, 2 * np.pi, 4))})
    a1 = VectorField([SpectralField.constant(g, w) for w in omega.omega])
    Q = SpectralField.constant(g, np.eye(2))
    if varying_Q:
        q = SpectralField.from_modes(g, {(1, 1): 0.05 * np.exp(1j * rng.uniform(0.0, 2 * np.pi))})
        Q = Q + SpectralField(g, np.array([[1.0, 0.5], [0.5, 1.0]])[..., None, None] * q.coeffs)
    N = g.points_per_dim
    c = rng.integers(0, N, 2) * 2 * np.pi / N if on_grid else rng.uniform(0.0, 2 * np.pi, 2)
    sol = hamtorus.solve_torus(HamiltonianData(a0=a0, a1=a1, Q=Q), omega, mode="thm1", s=3.0)
    moved = hamtorus.solve_torus(HamiltonianData(a0=a0.translate(c), a1=a1, Q=Q.translate(c)),
                                 omega, mode="thm1", s=3.0)
    tol = max(sol.report.last("increment_hs"), moved.report.last("increment_hs"))
    assert (moved.u.displacement() - sol.u.displacement().translate(c)).sobolev_norm(3.0) <= tol
    assert np.array_equal(moved.xi, sol.xi)
    assert np.max(np.abs(moved.mu - sol.mu)) <= tol


# --- non-finite input ------------------------------------------------------------------

non_finite = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])


def symmetric_field(grid, rng, order):
    """A random field with order component axes of length n, symmetric in them."""
    f = random_field(grid, rng, (grid.dim,) * order)
    perms = list(itertools.permutations(range(order)))
    axes = lambda p: p + tuple(range(order, order + grid.dim))
    return SpectralField(grid, sum(np.transpose(f.coeffs, axes(p)) for p in perms) / len(perms))


@PROPERTY
@given(st.sampled_from(["f", "a0", "a1", "Q", "cubic"]), st.sampled_from([(1, 4), (2, 4), (3, 2)]),
       non_finite, seeds)
def test_a_non_finite_solver_input_raises_non_finite_error(name, dims, value, seed):
    """One NaN or infinite coefficient anywhere in CircleProblem.f, a0, a1, Q or cubic."""
    g, rng = TorusGrid.create(*dims), np.random.default_rng(seed)
    if name == "f":
        g = TorusGrid.create(1, dims[1])
    data = {"f": random_field(g, rng)} if name == "f" else {
        "a0": random_field(g, rng), "a1": random_field(g, rng, (g.dim,)),
        "Q": symmetric_field(g, rng, 2), "cubic": symmetric_field(g, rng, 3)}
    coeffs = data[name].coeffs
    coeffs[np.unravel_index(rng.integers(coeffs.size), coeffs.shape)] = value
    with pytest.raises(NonFiniteError, match=f"{name} has a non-finite coefficient"):
        if name == "f":
            CircleProblem(alpha=RotationAngle.certify(GOLDEN_ALPHA, 1.0, g.max_mode), s=3.0, **data)
        else:
            HamiltonianData(**data)


def cli_configs():
    """One config of each kind, between them holding every numeric key and form the CLI reads."""
    circle = circle_config(amp=0.04)
    circle["outputs"]["rotation_oracle_iterations"] = 10
    torus = torus_config()
    torus["solver"].update(tol=1e-10, max_iter=40)
    torus["problem"]["a0_modes"] = [{"k": [1, 0], "re": 0.005, "im": 0.0}]
    torus["outputs"]["flow_oracle"] = {"theta0": [0.7, 1.9], "T": 1.0, "dt": 1e-3}
    fields = torus_config()
    mode = lambda c: [{"k": [0, 0], "re": c, "im": 0.0}]
    fields["problem"]["a1"] = {"components": [mode(1.0), mode(GOLDEN)]}
    fields["problem"]["Q"] = {"entries": [[mode(1.0), mode(0.0)], [mode(0.0), mode(1.0)]]}
    ops = {"kind": "validate-ops", "grid": {"dim": 1, "K": 32},
           "probes": {"regularities": [1.0], "j_range": [3, 5], "boundedness_K": 16,
                      "identity_K": 16, "identity_trials": 2}}
    scan = lambda freq: {"kind": "diophantine", "frequency": {"sigma": 1.0, **freq},
                         "scan": {"K_values": [8, 16]}}
    return {"circle": circle, "torus": torus, "torus-fields": fields, "validate-ops": ops,
            "diophantine-omega": scan({"omega": [1.0, GOLDEN]}),
            "diophantine-alpha": scan({"alpha": GOLDEN_ALPHA})}


def numeric_leaves(doc, path=()):
    """The paths of every number (bool excluded) in a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, v in items for leaf in numeric_leaves(v, path + (key,))]
    return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


LEAVES = [(name, path) for name, doc in cli_configs().items() for path in numeric_leaves(doc)]


def run_cli(doc, tmp):
    """Exit code of the CLI on doc, with both solves replaced by an AssertionError."""
    cfg = Path(tmp) / "c.json"
    cfg.write_text(json.dumps(doc))
    with mock.patch.object(cli, "solve", no_solve), mock.patch.object(cli, "solve_torus", no_solve):
        return cli.main([doc["kind"], "--config", str(cfg), "--out", tmp])


@pytest.mark.parametrize("name", sorted(cli_configs()))
def test_the_unaltered_configs_are_valid(name, tmp_path):
    doc = cli_configs()[name]
    if doc["kind"] in ("circle", "torus"):
        with pytest.raises(AssertionError, match="the solve ran"):
            run_cli(doc, str(tmp_path))
    else:
        assert run_cli(doc, str(tmp_path)) == cli.EXIT_OK


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_a_non_finite_config_number_is_a_config_error(leaf, value):
    name, path = leaf
    doc = copy.deepcopy(cli_configs()[name])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli(doc, tmp) == cli.EXIT_CONFIG
        assert json.loads((Path(tmp) / "error.json").read_text())["error"] == "ConfigError"
