"""Property tests: the real transforms and the stacked dyadic decomposition
against complex full-grid transforms and per-level sums written out here, point
evaluation against the direct sum, and the closed-form torus frame against
LAPACK."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paratorus import (
    MeyerMultiplierFamily,
    ParaOpHandle,
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
    zygmund_norm,
)
import paratorus.hamtorus as hamtorus
from paratorus.spectral import warp_samples
from test_spectral import direct_eval

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
    assert out.hermitian_defect() == 0.0  # Hermitian by construction, not to roundoff


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
    fam = MeyerMultiplierFamily([random_field(g, rng) for _ in range(cut.j_max + 1)])
    acc = sum(complex_samples(m) * complex_samples(cut.block(u, j))
              for j, m in enumerate(fam.multipliers))
    assert relative(meyer_apply(fam, u, cut).coeffs, complex_analyze(g, acc)) <= 1e-13


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.sampled_from([(1, 16), (1, 32), (2, 8)]), st.integers(1, 3), seeds)
def test_para_compose_equals_its_per_level_form(dims, window, seed):
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
        high = cut.partial_sum(composed, j + window)
        if j - window >= 0:
            high = high - cut.partial_sum(composed, j - window)
        ref = ref + high.coeffs
    assert relative(para_compose(F, disp, cut, window=window).coeffs, ref) <= 1e-13


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
