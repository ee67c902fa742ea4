"""Hamiltonian invariant-torus machinery: frames, linear solve, solver, oracles."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from paratorus import (
    DegenerateEmbeddingError,
    EnergyDriftError,
    FrequencyVector,
    HamiltonianData,
    NonFiniteError,
    SingularAverageError,
    SpectralField,
    TorusEmbedding,
    TorusGrid,
    b_matrices,
    counterterm_check,
    error_fields,
    flow_oracle,
    frame,
    hamiltonian_vector_field,
    isotropic_correction,
    isotropy_from_residual,
    jacobian_A,
    lack_of_isotropy,
    linear_para_homological_solve,
    make_cutoff,
    neumann_certificate,
    residual_torus,
    solve_torus,
    torsion_S,
)
import paratorus.hamtorus as hamtorus
from paratorus.hamtorus import _flow_closures, _taylor, _xh
from paratorus.paraprod import ParaOpHandle
from paratorus.spectral import analyze, compress, synthesize, warp_samples
from torus_helpers import (
    GOLDEN,
    flat_xh,
    random_embedding,
    remainder_amplitude_sweep,
    sparse_field,
    step_rhs,
)
J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])  # J for n = 2


def small_grid(K=8):
    return TorusGrid(2, K)


def freq(K=8):
    return FrequencyVector.certify([1.0, GOLDEN], 1.0, K)


def integrable(grid, omega, Q0):
    n = grid.dim
    a1 = SpectralField.stack([SpectralField.constant(grid, omega.omega[i]) for i in range(n)])
    return HamiltonianData(
        a0=SpectralField.constant(grid, 0.0), a1=a1, Q=SpectralField.constant(grid, Q0)
    )


def random_hamiltonian(grid, omega, rng, amp=0.02, with_cubic=True, band=3):
    n = grid.dim
    a0 = sparse_field(grid, rng, amp, band)
    a1 = SpectralField.stack([sparse_field(grid, rng, amp, band) + omega.omega[i] for i in range(n)])
    off = sparse_field(grid, rng, amp, band)
    Q = SpectralField.stack(
        [
            [sparse_field(grid, rng, amp, band) + 1.0, off],
            [off, sparse_field(grid, rng, amp, band) + 1.2],
        ]
    )
    cubic = None
    if with_cubic:
        pool = {}
        cubic = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    key = tuple(sorted((i, j, k)))
                    if key not in pool:
                        pool[key] = sparse_field(grid, rng, amp, band)
                    cubic[i][j][k] = pool[key]
        cubic = SpectralField.stack(cubic)
    return HamiltonianData(a0=a0, a1=a1, Q=Q, cubic=cubic)


def composed_counterterm_defect(h, u, xi, mu, om):
    """counterterm_check at u, of the residual with X_h(u) composed afresh."""
    return counterterm_check(residual_torus(hamiltonian_vector_field(h, u), u, xi, om)[0], u, mu)


def h_eval(h, x, y):
    """h(x, y) = a0 + <a1, y> + <Q y, y> / 2 [+ C[y, y, y] / 6], written out independently of
    the solver's Taylor rule."""
    x, y = np.asarray(x, float)[None, :], np.asarray(y, float)
    val = synthesize(h.a0, x)[0] + synthesize(h.a1, x)[:, 0] @ y
    val += 0.5 * y @ synthesize(h.Q, x)[..., 0] @ y
    if h.cubic is not None:
        val += np.einsum("ijk,i,j,k->", synthesize(h.cubic, x)[..., 0], y, y, y) / 6.0
    return float(val)


# --- Hamiltonian vector field -------------------------------------------------


def test_warp_composes_xh_and_a_gradients_in_one_call_each(monkeypatch):
    """X_h's gradients take one warp_samples call and A's another; each gradient, constant
    (a1[1], Q), zero (their x-gradients) or varying, equals its own call."""
    from paratorus.hamtorus import _jacobian_samples, _warped, _xh_samples

    g = small_grid()
    rng = np.random.default_rng(12)
    cubic = random_hamiltonian(g, freq(), rng, band=2).cubic
    a1 = SpectralField.stack([sparse_field(g, rng, 0.02, 2) + 1.0, SpectralField.constant(g, GOLDEN)])
    h = HamiltonianData(a0=sparse_field(g, rng, 0.02, 2), a1=a1,
                        Q=SpectralField.constant(g, np.eye(2)), cubic=cubic)
    u = random_embedding(g, rng, 0.01, band=2)
    real = hamtorus.warp_samples
    calls = []
    monkeypatch.setattr(hamtorus, "warp_samples", lambda f, pts: calls.append(f.shape) or real(f, pts))
    _xh_samples(h, u)
    assert len(calls) == 1
    _jacobian_samples(h, u)
    assert len(calls) == 2
    pts = np.stack(g.point_mesh) + u.ux.samples()
    for order in (1, 2):
        for (m, o), got in _warped(h, u, order).items():
            ref = real(h.gradient(m, o), pts)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def benchmark_like(g, om, phases=(0.4, 1.9, 4.2), amp=0.005):
    """h of the torus benchmark: a three-mode sparse a0, a1 = omega and Q = I."""
    a0 = SpectralField.from_modes(g, {k: 0.5 * amp * np.exp(1j * p)
                                      for k, p in zip([(1, 0), (0, 1), (1, 1)], phases)})
    a1 = SpectralField.stack([SpectralField.constant(g, w) for w in om.omega])
    return HamiltonianData(a0=a0, a1=a1, Q=SpectralField.constant(g, np.eye(2)))


def test_warp_keeps_constant_gradients_as_read_only_views():
    g, om = small_grid(), freq()
    h = benchmark_like(g, om)
    u = random_embedding(g, np.random.default_rng(3), 0.01, band=2)
    samples = {**hamtorus._warped(h, u, 1), **hamtorus._warped(h, u, 2)}
    views = {k for k, v in samples.items() if v.strides[-g.dim :] == (0,) * g.dim}
    # a1 and Q are constant, and every x-gradient of theirs is zero; a0's vary
    assert views == {(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}
    for k in views:
        assert not samples[k].flags.writeable
        assert np.all(samples[k] == h.gradient(*k).mean()[(...,) + (None,) * g.dim])
    for k in set(samples) - views:  # a gradient with a varying component stays whole
        assert samples[k].flags.writeable and samples[k].flags.c_contiguous


@pytest.mark.parametrize("kind", ["benchmark", "random-cubic"])
@pytest.mark.parametrize("warped", [False, True], ids=["flat", "warped"])
def test_constant_views_give_the_materialized_samples_bit_for_bit(kind, warped, monkeypatch):
    from paratorus.hamtorus import _jacobian_samples, _xh_samples

    g, om, rng = small_grid(), freq(), np.random.default_rng(17)
    if kind == "benchmark":
        h = benchmark_like(g, om)
    else:  # a1[1] and the off-diagonal of Q constant: gradients mixing views and full rows
        h = random_hamiltonian(g, om, rng, band=2)
        a1 = SpectralField.stack([h.a1[0], SpectralField.constant(g, GOLDEN)])
        h = HamiltonianData(a0=h.a0, a1=a1,
                            Q=SpectralField.constant(g, np.array([[1.0, 0.3], [0.3, 1.2]])),
                            cubic=h.cubic)
    u = random_embedding(g, rng, 0.01 * warped, band=2)
    assert any(v.strides[-1] == 0 for v in hamtorus._warped(h, u, 2).values())
    got = [_xh_samples(h, u), _jacobian_samples(h, u)]
    # the reference: every gradient materialized as a full, writeable array of samples
    real = hamtorus._warped
    monkeypatch.setattr(hamtorus, "_warped",
                        lambda *a: {k: np.array(v) for k, v in real(*a).items()})
    for a, ref in zip(got, [_xh_samples(h, u), _jacobian_samples(h, u)]):
        assert a.shape == ref.shape and a.tobytes() == ref.tobytes()


def test_xh_pure_rotation_at_flat_torus():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.zeros((2, 2)))
    X = hamiltonian_vector_field(h, TorusEmbedding.flat(g))
    assert abs(X[0].mean() - om.omega[0]) < 1e-13
    assert abs(X[1].mean() - om.omega[1]) < 1e-13
    for i in range(4):
        assert (X[i] - X[i].mean()).l2_norm() < 1e-13


def test_xh_quadratic_term_silent_at_flat_torus():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.array([[2.0, 0.3], [0.3, 1.0]]))
    X = hamiltonian_vector_field(h, TorusEmbedding.flat(g))
    for i in range(2):
        assert abs(X[i].mean() - om.omega[i]) < 1e-13
        assert X[2 + i].l2_norm() < 1e-13


def test_xh_finite_difference_oracle():
    # narrow-band data on a roomy grid keeps truncation below the FD tolerance
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    rng = np.random.default_rng(0)
    h = random_hamiltonian(g, om, rng, with_cubic=True, band=2, amp=0.01)
    u = random_embedding(g, rng, 0.005, band=2)
    X = hamiltonian_vector_field(h, u)
    J = J4
    thetas = rng.uniform(0, 2 * np.pi, size=(50, 2))
    ux_v = np.stack([synthesize(f, thetas) for f in u.ux])
    uy_v = np.stack([synthesize(f, thetas) for f in u.uy])
    eps = 1e-5
    for p in range(50):
        x = thetas[p] + ux_v[:, p]
        y = uy_v[:, p]
        grad = np.zeros(4)
        for a in range(4):
            zp = np.concatenate([x, y])
            zm = zp.copy()
            zp[a] += eps
            zm[a] -= eps
            grad[a] = (h_eval(h, zp[:2], zp[2:]) - h_eval(h, zm[:2], zm[2:])) / (2 * eps)
        want = J @ grad
        got = np.array([synthesize(X[a], thetas[p]) for a in range(4)])
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


# --- error fields ----------------------------------------------------------


def test_error_fields_integrable():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    e0, e1 = error_fields(h, om)
    assert e0.l2_norm() < 1e-13
    assert max(f.l2_norm() for r in e1 for f in r) < 1e-14


def test_error_fields_sign_follows_definition():
    # a0 = eps cos(theta_1): e0 = (0; eps sin(theta_1), 0) from X_h = (grad_y; -grad_x)
    g = small_grid()
    om = freq()
    eps = 0.01
    h = integrable(g, om, np.eye(2))
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): eps / 2}), a1=h.a1, Q=h.Q
    )
    e0, _ = error_fields(h, om)
    sin1 = SpectralField.from_modes(g, {(1, 0): -0.5j * eps})
    assert (e0[2] - sin1).l2_norm() < 1e-13
    assert e0[0].l2_norm() < 1e-13 and e0[1].l2_norm() < 1e-13 and e0[3].l2_norm() < 1e-13


def test_error_fields_integrability_defect():
    g = small_grid()
    om = freq()
    eps = 0.05
    Q = SpectralField.stack(
        [
            [SpectralField.from_modes(g, {(1, 0): eps / 2}) + 1.0, SpectralField.constant(g, 0.0)],
            [SpectralField.constant(g, 0.0), SpectralField.constant(g, 1.0)],
        ]
    )
    h = HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=integrable(g, om, np.eye(2)).a1, Q=Q)
    _, e1 = error_fields(h, om)
    want = SpectralField.from_modes(g, {(1, 0): eps / 2})
    assert (e1[0, 0] - want).l2_norm() < 1e-13
    assert e1[1, 1].l2_norm() < 1e-14


# --- jacobian ---------------------------------------------------------------


def test_jacobian_integrable_flat():
    g = small_grid()
    om = freq()
    Q0 = np.array([[1.5, 0.2], [0.2, 0.9]])
    h = integrable(g, om, Q0)
    A = jacobian_A(h, TorusEmbedding.flat(g))
    got = A.mean()
    want = np.zeros((4, 4))
    want[:2, 2:] = Q0
    assert np.max(np.abs(got - want)) < 1e-12
    assert A.sup_norm() < np.max(np.abs(Q0)) + 1e-10


def test_jacobian_general_structure_at_flat():
    # A[zeta0] = [[da1, Q], [-d^2 a0, -da1^T]] (definition-based signs)
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(1)
    h = random_hamiltonian(g, om, rng, with_cubic=False)
    A = jacobian_A(h, TorusEmbedding.flat(g))
    d1a1 = h.gradient(1, 1)
    d2a0 = h.gradient(0, 2)
    for i in range(2):
        for l in range(2):
            assert (A[i, l] - d1a1[i, l]).l2_norm() < 1e-12
            assert (A[i, 2 + l] - h.Q[i, l]).l2_norm() < 1e-12
            assert (A[2 + i, l] + d2a0[i, l]).l2_norm() < 1e-12
            assert (A[2 + i, 2 + l] + d1a1[l, i]).l2_norm() < 1e-12


def test_jacobian_hessian_symmetry_oracle():
    # -J A = Hessian of h along u: symmetric, and matches finite differences
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    rng = np.random.default_rng(2)
    h = random_hamiltonian(g, om, rng, with_cubic=True, band=2, amp=0.01)
    u = random_embedding(g, rng, 0.005, band=2)
    A = jacobian_A(h, u)
    J = J4
    thetas = rng.uniform(0, 2 * np.pi, size=(20, 2))
    ux_v = np.stack([synthesize(f, thetas) for f in u.ux])
    uy_v = np.stack([synthesize(f, thetas) for f in u.uy])
    eps = 1e-4
    for p in range(20):
        Ap = np.array([[synthesize(A[a, b], thetas[p]) for b in range(4)] for a in range(4)])
        H = -J @ Ap
        assert np.max(np.abs(H - H.T)) < 1e-8 * max(1.0, np.max(np.abs(H)))
        z0 = np.concatenate([thetas[p] + ux_v[:, p], uy_v[:, p]])
        Hfd = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                zpp = z0.copy(); zpp[a] += eps; zpp[b] += eps
                zpm = z0.copy(); zpm[a] += eps; zpm[b] -= eps
                zmp = z0.copy(); zmp[a] -= eps; zmp[b] += eps
                zmm = z0.copy(); zmm[a] -= eps; zmm[b] -= eps
                Hfd[a, b] = (
                    h_eval(h, zpp[:2], zpp[2:])
                    - h_eval(h, zpm[:2], zpm[2:])
                    - h_eval(h, zmp[:2], zmp[2:])
                    + h_eval(h, zmm[:2], zmm[2:])
                ) / (4 * eps**2)
        assert np.max(np.abs(H - Hfd)) < 1e-5 * max(1.0, np.max(np.abs(H)))


# --- frame -------------------------------------------------------------------


def test_frame_flat():
    g = small_grid()
    N, M, Minv = frame(TorusEmbedding.flat(g))
    assert np.max(np.abs(N.mean() - np.eye(2))) < 1e-13
    D = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(M.mean() - D)) < 1e-13
    assert np.max(np.abs(Minv.mean() - D)) < 1e-13


def test_frame_inverse_pointwise():
    from paratorus.hamtorus import _frame_samples

    g = small_grid()
    rng = np.random.default_rng(3)
    u = random_embedding(g, rng, 0.03)
    # construction-level identity on the collocation grid
    _, _, M_s, Minv_s = _frame_samples(u)
    prod = np.einsum("ab...,bc...->ac...", M_s, Minv_s)
    eye = np.zeros_like(prod)
    for a in range(4):
        eye[a, a] = 1.0
    assert np.max(np.abs(prod - eye)) < 1e-11
    # spectral fields agree once truncation tails are negligible
    g2 = TorusGrid(2, 16)
    u2 = random_embedding(g2, np.random.default_rng(3), 0.004, band=2)
    _, M, Minv = frame(u2)
    spec_prod = M.matmul(Minv)
    for a in range(4):
        for b in range(4):
            target = 1.0 if a == b else 0.0
            assert abs(spec_prod[a, b].mean() - target) < 1e-11
            assert (spec_prod[a, b] - spec_prod[a, b].mean()).sup_norm() < 1e-11


def test_frame_deviation_linear_in_displacement():
    g = small_grid()
    rng = np.random.default_rng(4)
    D = np.diag([1.0, 1.0, -1.0, -1.0])
    ratios = []
    for amp in (0.01, 0.02, 0.04):
        u = random_embedding(g, np.random.default_rng(4), amp)
        _, M, _ = frame(u)
        diff = (M - SpectralField.constant(g, D)).sup_norm()
        grad = max(
            f.derivative(a).sup_norm() for f in list(u.ux) + list(u.uy) for a in range(2)
        )
        ratios.append(diff / grad)
    assert max(ratios) < 3.0 * min(ratios) + 1e-12


@pytest.mark.parametrize("component", [0, 2], ids=["ux", "uy"])
def test_frame_rejects_a_nan_embedding(component):
    g = small_grid()
    u = TorusEmbedding.flat(g)
    u.w.coeffs[component, 8, 9] = np.nan
    with pytest.raises(DegenerateEmbeddingError, match="embedding Gram matrix"), np.errstate(invalid="ignore"):
        frame(u)


def test_frame_degenerate_embedding_rejected():
    g = small_grid()
    # ux with slope ~ -1 along theta_1 collapses the first tangent column
    ux = SpectralField.stack([SpectralField.from_modes(g, {(1, 0): 0.5j}),
                              SpectralField.constant(g, 0.0)])
    u = TorusEmbedding(ux=ux, uy=SpectralField.constant(g, np.zeros(2)))
    with pytest.raises(DegenerateEmbeddingError, match="embedding Gram matrix"):
        frame(u)


@pytest.mark.parametrize("m_x, m_y", [(3, 3), (1, 1), (2, 3)])
def test_embedding_needs_one_component_per_grid_dimension(m_x, m_y):
    """On T^2, 3 components would reach frame and fail there with an IndexError, and 1 with a
    DegenerateEmbeddingError (a solver error); the constructor rejects both as invalid input."""
    g = small_grid()
    with pytest.raises(ValueError, match="ux and uy need equally many components, 2 on this grid"):
        TorusEmbedding(ux=SpectralField.constant(g, np.zeros(m_x)),
                       uy=SpectralField.constant(g, np.zeros(m_y)))


def gram_guard_embedding(g, b):
    """ux = (-b sin theta_1, 0), uy = 0: min det(du^T du) = (1 - b)^2 at theta_1 = 0, |det M| = 1."""
    ux = SpectralField.stack([SpectralField.from_modes(g, {(1, 0): 0.5j * b}),
                              SpectralField.constant(g, 0.0)])
    return TorusEmbedding(ux=ux, uy=SpectralField.constant(g, np.zeros(2)))


def frame_guard_embedding(g, a, c):
    """ux = 0, uy = (a sin theta_2, -c sin theta_1): det(du^T du) >= 1 everywhere.

    At theta = 0, du^y = [[0, a], [-c, 0]], so L = (a + c) J_2 and
    |det M| = |1 - (a + c)^2 det N| = (1 - a c)^2 / ((1 + a^2) (1 + c^2)), the minimum.
    """
    uy = SpectralField.stack([SpectralField.from_modes(g, {(0, 1): -0.5j * a}),
                      SpectralField.from_modes(g, {(1, 0): 0.5j * c})])
    return TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)


@pytest.mark.parametrize("det", [1e-11, 1e-13, 0.0])
@pytest.mark.parametrize("what", ["embedding Gram matrix", "frame matrix M"])
def test_frame_guards_either_side_of_the_threshold(what, det):
    """min |det| a factor 10 above the 1e-12 guard passes; a factor 10 below, or 0, raises.

    The M guard is tested alone: its embeddings have det(du^T du) >= 1.
    """
    g = small_grid()
    if what == "embedding Gram matrix":
        u = gram_guard_embedding(g, 1.0 - math.sqrt(det))
    else:  # (1 - c)^2 / (2 (1 + c^2)) = det (1 + O(sqrt(det))) at a = 1
        u = frame_guard_embedding(g, 1.0, 1.0 - 2.0 * math.sqrt(det))
    if det > 1e-12:
        N, M, Minv = frame(u)
        assert np.all(np.isfinite(Minv.coeffs))
    else:
        with pytest.raises(DegenerateEmbeddingError, match=what):
            frame(u)


@pytest.mark.parametrize("det", [1e-11, 1e-13, 0.0])
def test_frame_m_guard_on_a_rotated_dim3_frame(monkeypatch, det):
    """A constant dim-3 frame, off the axes, with det(du^T du) >= 1 and |det M| = det.

    du = [I; B], B = [[0, 1, 0], [-c, 0, 0], [0, 0, 1/2]], has |det M| = (1 - c)^2 / (2 (1 + c^2))
    as in frame_guard_embedding. Both determinants are invariant under du -> diag(Q, Q) du R for
    orthogonal Q, R, which leave no entry of du zero. The guard must be as sharp here as in dim 2:
    det(I + L G) = det(M)^2 would be lost to rounding below |det M| ~ 1e-8.
    """
    g = TorusGrid(3, 4)
    rng = np.random.default_rng(3)
    Q, R = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    c = 1.0 - 2.0 * math.sqrt(det)
    du = np.kron(np.eye(2), Q) @ np.vstack([np.eye(3), [[0, 1, 0], [-c, 0, 0], [0, 0, 0.5]]]) @ R
    J6 = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    M0 = np.hstack([du, J6 @ du @ np.linalg.inv(du.T @ du)])
    assert abs(abs(np.linalg.det(M0)) - det) <= 1e-3 * det + 1e-15  # the construction, by LAPACK
    samples = du[:, :, None, None, None] + np.zeros((6, 3) + g.point_shape)
    monkeypatch.setattr(hamtorus, "_embedding_jacobian_samples", lambda u: samples.copy())
    u = TorusEmbedding.flat(g)
    if det > 1e-12:
        N, M, Minv = frame(u)
        assert np.all(np.isfinite(Minv.coeffs))
    else:
        with pytest.raises(DegenerateEmbeddingError, match="frame matrix M"):
            frame(u)


# --- torsion -----------------------------------------------------------------


def test_torsion_integrable_is_minus_Q():
    # with [A, J] = AJ - JA (fixed by the linearization identity): S[zeta0] = -Q0
    g = small_grid()
    om = freq()
    Q0 = np.array([[1.5, 0.4], [0.4, 0.8]])
    h = integrable(g, om, Q0)
    S = torsion_S(h, TorusEmbedding.flat(g))
    assert np.max(np.abs(S.mean() + Q0)) < 1e-12
    assert S.sup_norm() < np.max(np.abs(Q0)) + 1e-10


def test_torsion_symmetric_for_quadratic_h():
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(5)
    h = random_hamiltonian(g, om, rng, with_cubic=False)
    u = random_embedding(g, rng, 0.02)
    S = torsion_S(h, u)
    for i in range(2):
        for j in range(2):
            assert (S[i, j] - S[j, i]).sup_norm() < 1e-10


def test_torsion_ignores_constant_a0_shift():
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(6)
    h = random_hamiltonian(g, om, rng, with_cubic=False)
    u = random_embedding(g, rng, 0.02)
    h2 = HamiltonianData(a0=h.a0 + 5.0, a1=h.a1, Q=h.Q)
    S1, S2 = torsion_S(h, u), torsion_S(h2, u)
    assert max((S1[i, j] - S2[i, j]).sup_norm() for i in range(2) for j in range(2)) < 1e-11


def test_linearization_identity_on_manufactured_torus():
    # A M - (omega.d)M = M (0 S; 0 0) + B[F] holds to roundoff when F ~ 0
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    ux = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(1, 0): -0.04j, (0, 1): 0.02}),
            SpectralField.from_modes(g, {(1, 1): 0.03, (1, 0): 0.01j}),
        ]
    )
    u = TorusEmbedding(ux=ux, uy=SpectralField.constant(g, np.zeros(2)))
    base = np.stack(g.point_mesh)
    theta = base.copy()
    for _ in range(80):
        vals = np.stack([warp_samples(f, theta) for f in ux])
        theta = base - vals
    targets = [ux[i].omega_derivative(np.asarray(om, dtype=float)) + om.omega[i]
               for i in range(2)]
    a1 = SpectralField.stack([analyze(g, warp_samples(t, theta)) for t in targets])
    Q0 = np.array([[1.3, 0.2], [0.2, 0.8]])
    h = HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=a1, Q=SpectralField.constant(g, Q0))
    F, fsup, _ = residual_torus(hamiltonian_vector_field(h, u), u, None, om)
    assert fsup < 1e-12
    from paratorus.hamtorus import _frame_samples, _jacobian_samples, _torsion_samples

    A = _jacobian_samples(h, u)
    P, Ninv, M, Minv = _frame_samples(u)
    S = _torsion_samples(A, P, Ninv)
    Mfield = analyze(g, M)
    dM = np.stack(
        [
            np.stack([Mfield[a, b].omega_derivative(np.asarray(om, dtype=float)).samples()
                      for b in range(4)])
            for a in range(4)
        ]
    )
    lhs = np.einsum("ab...,bc...->ac...", A, M) - dM
    zero = np.zeros((2, 2) + g.point_shape)
    Sblk = np.concatenate(
        [np.concatenate([zero, S], axis=1), np.concatenate([zero, zero], axis=1)], axis=0
    )
    rhs = np.einsum("ab...,bc...->ac...", M, Sblk) + b_matrices(F, u).samples()
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- B matrices ---------------------------------------------------------------


def test_b_matrices_zero_and_constant():
    g = small_grid()
    rng = np.random.default_rng(7)
    u = random_embedding(g, rng, 0.02)
    zeroE = SpectralField.constant(g, np.zeros(4))
    B = b_matrices(zeroE, u)
    assert B.sup_norm() < 1e-14
    constE = SpectralField.stack([SpectralField.constant(g, c) for c in (1.0, -2.0, 0.5, 3.0)])
    assert b_matrices(constE, u).sup_norm() < 1e-12


def test_b_matrices_linear():
    g = small_grid()
    rng = np.random.default_rng(8)
    u = random_embedding(g, rng, 0.02)
    E1 = SpectralField.stack([sparse_field(g, rng, 0.1) for _ in range(4)])
    E2 = SpectralField.stack([sparse_field(g, rng, 0.1) for _ in range(4)])
    lhs = b_matrices(E1 + E2, u)
    rhs = b_matrices(E1, u) + b_matrices(E2, u)
    assert max(
        (lhs[i, j] - rhs[i, j]).sup_norm() for i in range(4) for j in range(4)
    ) < 1e-12


# --- linear para-homological solve ---------------------------------------------


def frame_handles(u, S, cut):
    """(T_M, T_{M^-1}, T_S) handles at the embedding u for the torsion S."""
    _, M, Minv = frame(u)
    return ParaOpHandle(M, cut), ParaOpHandle(Minv, cut), ParaOpHandle(S, cut)


def test_linear_solve_hand_example_case1():
    # u = zeta0, S = I, f = (cos theta_1, 0; 0, 0): v = (-sin theta_1/omega_1, 0; 0, 0)
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    u = TorusEmbedding.flat(g)
    S = SpectralField.constant(g, np.eye(2))
    f = SpectralField.stack(
        [SpectralField.from_modes(g, {(1, 0): 0.5})]
        + [SpectralField.constant(g, 0.0) for _ in range(3)]
    )
    v, xi, mu = linear_para_homological_solve(*frame_handles(u, S, cut), f, "thm1", om)
    assert np.max(np.abs(xi)) == 0.0
    assert np.max(np.abs(mu)) < 1e-13
    want = SpectralField.from_modes(g, {(1, 0): -(-0.5j) / om.omega[0]})  # -sin/omega_1
    got_minus_want = (v[0] - (-1.0 / om.omega[0]) * SpectralField.from_modes(g, {(1, 0): -0.5j}))
    assert got_minus_want.l2_norm() < 1e-12
    for i in (1, 2, 3):
        assert v[i].l2_norm() < 1e-12


def test_linear_solve_zero_rhs():
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    u = TorusEmbedding.flat(g)
    S = SpectralField.constant(g, np.eye(2))
    v, xi, mu = linear_para_homological_solve(
        *frame_handles(u, S, cut), SpectralField.constant(g, np.zeros(4)), "thm1", om
    )
    assert v.l2_norm() == 0.0 and np.all(xi == 0) and np.all(mu == 0)


def test_linear_solve_constant_rhs_thm2():
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    u = TorusEmbedding.flat(g)
    S = SpectralField.constant(g, 0.7 * np.eye(2))
    cx, cy = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    f = SpectralField.stack([SpectralField.constant(g, c) for c in np.concatenate([cx, cy])])
    v, xi, mu = linear_para_homological_solve(*frame_handles(u, S, cut), f, "thm2", om)
    assert v.l2_norm() < 1e-13
    assert np.max(np.abs(xi - cx)) < 1e-13
    assert np.max(np.abs(mu - cy)) < 1e-13


def test_linear_solve_self_check_random_symbols():
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    rng = np.random.default_rng(9)
    u = random_embedding(g, rng, 0.015)
    h = random_hamiltonian(g, om, rng, with_cubic=False)
    S = torsion_S(h, u)
    f = SpectralField.stack([sparse_field(g, rng, 0.3) for _ in range(4)])
    for mode in ("thm1", "thm2"):
        v, xi, mu = linear_para_homological_solve(*frame_handles(u, S, cut), f, mode, om)
        # the internal self-check passed; re-verify independently
        from paratorus.hamtorus import _apply_torsion_block

        HM, HMinv, HS = frame_handles(u, S, cut)
        w1 = HMinv.apply(v)
        lhs = HM.apply(_apply_torsion_block(HS, w1)
                              - w1.omega_derivative(np.asarray(om, dtype=float)))
        cv = np.concatenate([xi, mu])
        lhs = SpectralField.stack([lhs[a] + cv[a] for a in range(4)])
        assert (lhs - f).l2_norm() < 1e-9 * f.l2_norm()
        if mode == "thm1":
            assert np.all(xi == 0.0)


def test_linear_solve_thm1_rejects_singular_avg_S():
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    u = TorusEmbedding.flat(g)
    S = SpectralField.constant(g, np.zeros((2, 2)))
    f = SpectralField.stack([sparse_field(g, np.random.default_rng(1), 0.1) for _ in range(4)])
    with pytest.raises(SingularAverageError):
        linear_para_homological_solve(*frame_handles(u, S, cut), f, "thm1", om)


def test_a_plain_frequency_gives_the_bits_of_the_certified_one():
    """Every torus function reads omega with np.asarray, so [1, GOLDEN] and its certified
    FrequencyVector give bit-identical results."""
    from paratorus import omega_directional_inverse, remove_mean

    g = small_grid()
    om, plain = freq(), [1.0, GOLDEN]
    cut = make_cutoff(g)
    rng = np.random.default_rng(9)
    u = random_embedding(g, rng, 0.015)
    h = random_hamiltonian(g, om, rng, with_cubic=False)
    f = SpectralField.stack([sparse_field(g, rng, 0.3) for _ in range(4)])
    same = lambda a, b: np.array_equal(getattr(a, "coeffs", a), getattr(b, "coeffs", b))
    assert same(omega_directional_inverse(remove_mean(f), plain),
                omega_directional_inverse(remove_mean(f), om))
    handles = frame_handles(u, torsion_S(h, u), cut)
    for mode in hamtorus.MODES:
        got = linear_para_homological_solve(*handles, f, mode, plain)
        want = linear_para_homological_solve(*handles, f, mode, om)
        assert all(same(a, b) for a, b in zip(got, want))
    assert same(isotropy_from_residual(u, h, plain), isotropy_from_residual(u, h, om))
    assert same(isotropic_correction(u, h, plain).w, isotropic_correction(u, h, om).w)


# --- assemble_rhs ---------------------------------------------------------------


def test_assemble_rhs_at_flat_torus_is_minus_e0():
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(10)
    h = random_hamiltonian(g, om, rng)
    e0, _ = error_fields(h, om)
    cut = make_cutoff(g)
    rhs = step_rhs(h, TorusEmbedding.flat(g), om, cut, e0)
    assert (rhs + e0).l2_norm() < 1e-12 * max(1.0, e0.l2_norm())


def test_assemble_rhs_integrable_zero():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    e0, _ = error_fields(h, om)
    cut = make_cutoff(g)
    rhs = step_rhs(h, TorusEmbedding.flat(g), om, cut, e0)
    assert rhs.l2_norm() < 1e-13


def three_handle_rhs(h, u, om, cut, e0):
    """-e0 - R_CM - R_PL through separate handles of A, M(0 S;0 0)M^-1 and M(omega.d M^-1)."""
    from paratorus.hamtorus import (
        _apply_torsion_block,
        _frame_samples,
        _jacobian_samples,
        _torsion_samples,
    )

    g, w, o = u.grid, u.displacement(), np.asarray(om, dtype=float)
    A = _jacobian_samples(h, u)
    P, Ninv, M, Minv = _frame_samples(u)
    HM, HMinv = ParaOpHandle(analyze(g, M), cut), ParaOpHandle(analyze(g, Minv), cut)
    HS = ParaOpHandle(analyze(g, _torsion_samples(A, P, Ninv)), cut)
    S_block = np.zeros_like(M)
    S_block[:2, 2:] = HS.symbol.samples()
    C1 = np.einsum("ab...,bc...,cd...->ad...", M, S_block, Minv)
    C2 = np.einsum("ab...,bc...->ac...", M, HMinv.symbol.omega_derivative(o).samples())
    w1 = HMinv.apply(w)
    t_a = ParaOpHandle(analyze(g, C1), cut).apply(w) - HM.apply(_apply_torsion_block(HS, w1))
    t_c = ParaOpHandle(analyze(g, C2), cut).apply(w) + w.omega_derivative(o)
    r_cm = t_a - t_c + HM.apply(w1.omega_derivative(o))
    r_pl = hamiltonian_vector_field(h, u) - flat_xh(h) - ParaOpHandle(analyze(g, A), cut).apply(w)
    return -1.0 * e0 - r_cm - r_pl


@pytest.mark.parametrize("cubic", [False, True], ids=["quadratic", "cubic"])
def test_assemble_rhs_matches_three_handle_remainders(cubic):
    # one remainder symbol B = A - M(0 S;0 0)M^-1 + M(omega.d M^-1) replaces three handles
    g = small_grid()
    om = freq()
    cut = make_cutoff(g)
    rng = np.random.default_rng(33)
    for _ in range(3):
        h = random_hamiltonian(g, om, rng, with_cubic=cubic)
        u = random_embedding(g, rng, 0.015)
        e0, _ = error_fields(h, om)
        got = step_rhs(h, u, om, cut, e0)
        ref = three_handle_rhs(h, u, om, cut, e0)
        assert (got - ref).l2_norm() <= 1e-13 * ref.l2_norm()


def test_remainders_vanish_quadratically():
    amps = (0.002, 0.004, 0.008, 0.016)
    sizes = remainder_amplitude_sweep(amps)
    slope = np.polyfit(np.log2(amps), np.log2(sizes), 1)[0]
    assert abs(slope - 2.0) < 0.3, f"amplitude-sweep slope {slope:.2f}"


# --- solver ----------------------------------------------------------------------


def test_solve_integrable_short_circuits():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.iterations == 1
    assert sol.u.displacement().l2_norm() == 0.0
    assert np.all(sol.xi == 0.0) and np.all(sol.mu == 0.0)


def test_integrable_summary_has_the_keys_of_a_converged_run():
    g = small_grid()
    om = freq()
    sol = solve_torus(integrable(g, om, np.eye(2)), om, mode="thm1", s=3.0)
    assert sol.report.status == "converged"
    assert set(sol.report.extras) == {
        "residual_sup", "u_minus_flat_hs", "gamma", "e0_strong_norm", "kappa",
        "counterterm_defect", "xh_tail_energy", "stop_rule",
    }  # no c2_empirical: e0 = 0
    assert sol.report.extras["stop_rule"] == "increment"
    assert sol.report.extras["kappa"] == 0.0
    assert sol.report.last("residual_sup") == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["a0", "a1", "Q", "cubic"])
def test_hamiltonian_rejects_a_non_finite_coefficient(name, value):
    g = small_grid()
    data = {
        "a0": SpectralField.constant(g, 0.0),
        "a1": integrable(g, freq(), np.eye(2)).a1,
        "Q": SpectralField.constant(g, np.eye(2)),
        "cubic": SpectralField.constant(g, np.zeros((2, 2, 2))),
    }
    data[name].coeffs[(0,) * (data[name].coeffs.ndim - 2) + (8, 8)] = value
    with pytest.raises(NonFiniteError, match=f"{name} has a non-finite coefficient"):
        HamiltonianData(**data)


def test_hamiltonian_rejects_a_non_symmetric_cubic():
    # C[0][0][1] = 1 alone: h has no single cubic term, and X_h would not be J grad h
    g = small_grid()
    C = np.zeros((2, 2, 2))
    C[0, 0, 1] = 1.0
    data = integrable(g, freq(), np.eye(2))
    with pytest.raises(ValueError, match="cubic is not symmetric: defect 1.000e"):
        HamiltonianData(a0=data.a0, a1=data.a1, Q=data.Q, cubic=SpectralField.constant(g, C))
    C[0, 1, 0] = C[1, 0, 0] = 1.0  # symmetrized, it is accepted
    HamiltonianData(a0=data.a0, a1=data.a1, Q=data.Q, cubic=SpectralField.constant(g, C))
    # as a nest of scalar fields it is not a field: the caller stacks it
    nest = [[[SpectralField.constant(g, c) for c in row] for row in plane] for plane in C]
    with pytest.raises(TypeError, match="cubic must be a SpectralField, got list"):
        HamiltonianData(a0=data.a0, a1=data.a1, Q=data.Q, cubic=nest)


def test_hamiltonian_rejects_a1_off_the_grid_dimension():
    g = small_grid()
    data = integrable(g, freq(), np.eye(2))
    with pytest.raises(ValueError, match="a1 have 2 components"):  # scalar a1
        HamiltonianData(a0=data.a0, a1=SpectralField.constant(g, 1.0), Q=data.Q)
    with pytest.raises(ValueError, match="a1 have 2 components"):  # n = 3 on a dim-2 grid
        HamiltonianData(a0=data.a0, a1=SpectralField.constant(g, np.ones(3)),
                        Q=SpectralField.constant(g, np.eye(3)))
    with pytest.raises(ValueError, match="a0 must be scalar"):
        HamiltonianData(a0=SpectralField.constant(g, np.ones(2)), a1=data.a1, Q=data.Q)
    with pytest.raises(TypeError, match="a1 must be a SpectralField, got list"):
        HamiltonianData(a0=data.a0, a1=list(data.a1), Q=data.Q)


def test_non_finite_step_attaches_the_partial_report(monkeypatch):
    # a NaN right-hand side in step 2 stops the linear solve's first para-inversion
    real, calls = hamtorus.assemble_rhs, []

    def nan_second_rhs(*args):
        calls.append(1)
        rhs, handles = real(*args)
        return (np.nan * rhs if len(calls) == 2 else rhs), handles

    monkeypatch.setattr(hamtorus, "assemble_rhs", nan_second_rhs)
    g = small_grid()
    om = freq()
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.005}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    with pytest.raises(NonFiniteError) as err:
        solve_torus(h, om, mode="thm1", s=3.0, tol=1e-30)
    assert err.value.report.status == "non_finite"
    assert err.value.report.iterations == 1


def thm2_shift_data(g, om):
    a1 = SpectralField.stack([SpectralField.constant(g, om.omega[i] + 0.01 * (i == 0)) for i in range(2)])
    return HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=a1,
                           Q=SpectralField.constant(g, np.zeros((2, 2))))


def test_solve_torus_rejects_max_iter_below_one_before_the_first_step(monkeypatch):
    calls = []
    monkeypatch.setattr(hamtorus, "assemble_rhs", lambda *args: calls.append(1))
    g, om = small_grid(), freq()
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_torus(thm2_shift_data(g, om), om, mode="thm2", s=3.0, max_iter=0)
    assert calls == []


def test_solve_torus_rejects_a_plain_frequency_before_the_first_step(monkeypatch):
    # the summary reads the certified gamma; unchecked, a list of floats ran every step first
    def no_step(*args):
        raise AssertionError("a step ran before omega was checked")

    monkeypatch.setattr(hamtorus, "assemble_rhs", no_step)
    g, om = small_grid(), freq()
    with pytest.raises(TypeError, match="omega must be a FrequencyVector, got list"):
        solve_torus(thm2_shift_data(g, om), list(om.omega), mode="thm2", s=3.0)


def test_solve_torus_rejects_a_frequency_certified_below_the_grid_before_the_first_step(
        monkeypatch):
    # gamma certified on fewer modes than the grid keeps is not the gamma of the solve
    def no_step(*args):
        raise AssertionError("a step ran before omega's certified modes were checked")

    monkeypatch.setattr(hamtorus, "assemble_rhs", no_step)
    g, om = small_grid(16), freq(2)
    with pytest.raises(ValueError, match="omega is certified on K = 2, below the grid's K = 16"):
        solve_torus(thm2_shift_data(g, om), om, mode="thm2", s=3.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_solve_torus_rejects_a_tol_not_finite_and_positive(tol):
    g, om = small_grid(), freq()
    with pytest.raises(ValueError, match="tol must be finite"):
        solve_torus(thm2_shift_data(g, om), om, mode="thm2", s=3.0, tol=tol)


def test_solve_thm2_exact_frequency_shift():
    g = small_grid()
    om = freq()
    delta = np.array([0.01, 0.0])
    a1 = SpectralField.stack([SpectralField.constant(g, om.omega[i] + delta[i]) for i in range(2)])
    h = HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=a1,
                        Q=SpectralField.constant(g, np.zeros((2, 2))))
    sol = solve_torus(h, om, mode="thm2", s=3.0)
    assert np.max(np.abs(sol.xi + delta)) < 1e-10
    assert sol.u.displacement().sobolev_norm(3.0) < 1e-10
    assert np.max(np.abs(sol.mu)) < 1e-10


def test_solve_thm1_small_perturbation_converges():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    a0 = SpectralField.from_modes(g, {(1, 0): 0.005})
    h = HamiltonianData(
        a0=a0,
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.extras["residual_sup"] < 1e-9
    assert sol.report.extras["kappa"] < 1.0
    assert np.all(sol.xi == 0.0)
    assert composed_counterterm_defect(h, sol.u, sol.xi, sol.mu, om) < 1e-10


def test_solve_builds_each_operator_once_per_step(monkeypatch):
    # per Picard step: four handles (T_M, T_{M^-1}, T_S and the remainder symbol
    # B), one Jacobian evaluation and one residual; X_h once per iterate, the flat
    # torus's giving e0; the terminal checks reuse the final iterate's X_h
    import paratorus.hamtorus as ht

    counts = {"handles": 0, "_jacobian_samples": 0, "_xh_samples": 0, "residual_torus": 0,
              "counterterm_check": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ParaOpHandle, "__init__", counting("handles", ParaOpHandle.__init__))
    for name in ("_jacobian_samples", "_xh_samples", "residual_torus", "counterterm_check"):
        monkeypatch.setattr(ht, name, counting(name, getattr(ht, name)))
    g = small_grid()
    om = freq()
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.005}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    n = sol.report.iterations
    assert n >= 2
    assert counts["handles"] == 4 * n + 1  # + the Neumann certificate's symbol
    assert counts["_jacobian_samples"] == n
    # X_h at each of the n + 1 iterates, zeta0 included
    assert counts["_xh_samples"] == n + 1
    # the residual at each step's iterate, then the terminal one for the certificates
    assert counts["residual_torus"] == n + 1
    assert counts["counterterm_check"] == 1


def test_no_handle_of_a_step_is_alive_when_the_next_step_starts(monkeypatch):
    # between Picard steps the driver holds only fields: once a step's assemble_rhs starts,
    # every handle that an earlier step built is gone
    built, alive = [], []
    real_rhs = hamtorus.assemble_rhs

    def handle(symbol, cut):
        built.append(weakref.ref(out := ParaOpHandle(symbol, cut)))
        return out

    def checking_rhs(*args):
        alive.append(sum(r() is not None for r in built))
        return real_rhs(*args)

    monkeypatch.setattr(hamtorus, "ParaOpHandle", handle)
    monkeypatch.setattr(hamtorus, "assemble_rhs", checking_rhs)
    g = small_grid()
    om = freq()
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.005}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.iterations >= 2
    assert alive == [0] * sol.report.iterations
    assert len(built) >= 4 * sol.report.iterations


def test_step_releases_its_samples_before_t_b_and_its_handles_before_the_next_iterate(
        monkeypatch):
    # the frame, Jacobian and warped samples of a step are gone when its single-use T_B is
    # built; the step's T_M, T_{M^-1} and T_S are gone before the next iterate's X_h is composed
    samples, in_rhs, built, tb_clean, solved, released = [], [], [], [], [], []
    real_frame, real_jac = hamtorus._frame_samples, hamtorus._jacobian_samples
    real_warped, real_rhs = hamtorus._warped, hamtorus.assemble_rhs
    real_solve, real_xh = hamtorus.linear_para_homological_solve, hamtorus._xh_samples

    def track(arrays):
        samples.extend(weakref.ref(a) for a in arrays)
        return arrays

    def warped(*args):
        out = real_warped(*args)
        track(list(out.values()))
        return out

    def handle(symbol, cut):
        out = ParaOpHandle(symbol, cut)
        if in_rhs:
            built.append((weakref.ref(out), all(r() is None for r in samples)))
        return out

    def rhs(*args):
        in_rhs.append(1)
        try:
            return real_rhs(*args)
        finally:
            in_rhs.clear()

    def solve(HM, HMinv, HS, f, mode, omega):
        # T_B is the one handle of the step's right-hand side that the linear solve is not given
        tb_clean.append([clean for ref, clean in built if ref() not in (HM, HMinv, HS)])
        built.clear()
        solved.extend(weakref.ref(a) for a in (HM, HMinv, HS))
        return real_solve(HM, HMinv, HS, f, mode, omega)

    def xh(*args):
        released.append(all(r() is None for r in solved))
        return real_xh(*args)

    monkeypatch.setattr(hamtorus, "_frame_samples", lambda u: track(real_frame(u)))
    monkeypatch.setattr(hamtorus, "_jacobian_samples", lambda *a: track([real_jac(*a)])[0])
    monkeypatch.setattr(hamtorus, "_warped", warped)
    monkeypatch.setattr(hamtorus, "ParaOpHandle", handle)
    monkeypatch.setattr(hamtorus, "assemble_rhs", rhs)
    monkeypatch.setattr(hamtorus, "linear_para_homological_solve", solve)
    monkeypatch.setattr(hamtorus, "_xh_samples", xh)
    g, om = small_grid(), freq()
    sol = solve_torus(benchmark_like(g, om), om, mode="thm1", s=3.0)
    n = sol.report.iterations
    assert n >= 2
    assert tb_clean == [[True]] * n
    assert released == [True] * (n + 1)  # the flat iterate's X_h, then one per step


def test_solve_peak_memory_stays_below_the_three_handles_and_their_samples():
    # benchmark-sized sparse data at K = 16; the warm-up builds the grid tables. Keeping every
    # sample of the step alive with all four handles peaked at 9.1 MiB here; dropping the
    # samples before T_B and the handles before the next iterate's X_h left 4.7 MiB
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    h = benchmark_like(g, om)
    solve_torus(h, om, mode="thm1", s=3.0)
    tracemalloc.start()
    try:
        solve_torus(h, om, mode="thm1", s=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_warm_solve_at_the_benchmark_grid_peaks_below_20_mib():
    # the sparse benchmark torus at K = 32: para-products on the 81-point grid and the frame,
    # torsion and B algebra in chunks; with full-grid levels, whole-grid sample algebra and
    # cached gradients the warm solve peaked at 22.7 MiB, now at 14.7 MiB
    g = TorusGrid(2, 32)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 32)
    h = benchmark_like(g, om)
    solve_torus(h, om, mode="thm1", s=3.0)
    tracemalloc.start()
    try:
        solve_torus(h, om, mode="thm1", s=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_jacobian_is_written_into_one_array():
    # dim 3, K = 8, ux = 0 so that no warp runs and the peak is the assembly of A itself: A,
    # one n x n block in the making, the warped gradients and uy measured 2.08 A; assembling two
    # block rows and concatenating them measured 3.08 A
    g = TorusGrid(3, 8)
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0, 0): 0.0025, (0, 1, 1): 0.0025j}),
        a1=SpectralField.constant(g, [1.0, GOLDEN, math.sqrt(2.0) - 1.0]),
        Q=SpectralField.constant(g, np.eye(3)),
    )
    uy = random_embedding(g, np.random.default_rng(5), 0.01).uy
    u = TorusEmbedding(SpectralField.constant(g, np.zeros(3)), uy)
    hamtorus._jacobian_samples(h, u)
    tracemalloc.start()
    try:
        A = hamtorus._jacobian_samples(h, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (6, 6) + g.point_shape
    assert peak <= 2.25 * A.nbytes


def test_warped_gradients_hold_bounded_temporaries():
    # dim 3, K = 8, a three-mode a0 and a random embedding: the one warp_samples call returns
    # 2.25 MiB (9 rows); with chunks of 4,000,000 complex entries the call peaked at 68.6 MiB,
    # with every temporary capped at 262,144 entries (4 MiB) at 15.9 MiB
    g = TorusGrid(3, 8)
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0, 0): 0.0025, (0, 1, 1): 0.0025j, (1, -1, 2): 0.001}),
        a1=SpectralField.constant(g, [1.0, GOLDEN, math.sqrt(2.0) - 1.0]),
        Q=SpectralField.constant(g, np.eye(3)),
    )
    u = random_embedding(g, np.random.default_rng(5), 0.01)
    hamtorus._warped(h, u, 2)
    tracemalloc.start()
    try:
        warped = hamtorus._warped(h, u, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert warped[(0, 2)].nbytes == 9 * 32**3 * 8
    assert peak < 24 * 2**20


@pytest.mark.parametrize("dim, K", [(1, 16), (2, 8), (3, 4)])
def test_chunked_frame_torsion_and_b_equal_one_chunk_bit_for_bit(dim, K, monkeypatch):
    g = TorusGrid(dim, K)
    om = FrequencyVector.certify([1.0, GOLDEN, math.sqrt(2.0) - 1.0][:dim], 1.0, K)
    rng = np.random.default_rng(20 + dim)
    h = _random_taylor_data(g, rng, dim < 3, dense=False)  # a cubic term at dim 3 is slow to warp
    u = random_embedding(g, rng, 0.01, band=2)
    cut = make_cutoff(g)

    def evaluate(chunk):
        monkeypatch.setattr(hamtorus, "_CHUNK", chunk)
        symbols = []  # the symbols of T_B, T_M, T_{M^-1} and T_S, in build order
        monkeypatch.setattr(hamtorus, "ParaOpHandle",
                            lambda a, c: symbols.append(a.coeffs) or ParaOpHandle(a, c))
        frame_samples = hamtorus._frame_samples(u)
        A = hamtorus._jacobian_samples(h, u)
        torsion = hamtorus._torsion_samples(A, *frame_samples[:2])
        rhs = step_rhs(h, u, om, cut, error_fields(h, om)[0])
        return list(frame_samples) + [torsion] + symbols + [rhs.coeffs]

    whole = evaluate(10**9)
    assert len(whole) == 10
    row = g.points_per_dim ** (dim - 1)
    for chunk in (1, 3 * row + 1):  # one row per chunk, and slabs of three rows, the last shorter
        got = evaluate(chunk)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole))


def test_solve_thm1_dim3_runs_a_para_product_level():
    # at K = 8 every para-product has the level j = 4 on the N_pp = 24 point grid, checked
    # end to end by the flow oracle (measured deviation 2.4e-15 at T = 2)
    g = TorusGrid(3, 8)
    cut = make_cutoff(g)
    assert (cut.j_max, cut.para_points) == (4, 24)
    om = FrequencyVector.certify([1.0, GOLDEN, math.sqrt(2.0) - 1.0], 1.0, 8)
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0, 0): 0.0025, (0, 1, 1): 0.0025j}),
        a1=SpectralField.stack([SpectralField.constant(g, w) for w in om.omega]),
        Q=SpectralField.constant(g, np.eye(3)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0, tol=1e-10)
    assert sol.report.iterations == 5
    assert sol.report.extras["residual_sup"] < 1e-13
    assert sol.report.extras["kappa"] < 1.0
    assert flow_oracle(h, sol.u, sol.xi, om, theta0=[0.1, 0.2, 0.3], T=2.0, dt=1e-3) < 1e-12


def test_solve_thm1_requires_invertible_avg_Q():
    g = small_grid()
    om = freq()
    a0 = SpectralField.from_modes(g, {(1, 0): 0.005})
    h = HamiltonianData(
        a0=a0,
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.zeros((2, 2))),
    )
    with pytest.raises(SingularAverageError):
        solve_torus(h, om, mode="thm1", s=3.0)


# --- residual / counterterm -------------------------------------------------------


def test_residual_manufactured_solution():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    ux = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(1, 0): -0.03j}),
            SpectralField.from_modes(g, {(0, 1): 0.02}),
        ]
    )
    u = TorusEmbedding(ux=ux, uy=SpectralField.constant(g, np.zeros(2)))
    base = np.stack(g.point_mesh)
    theta = base.copy()
    for _ in range(80):
        theta = base - np.stack([warp_samples(f, theta) for f in ux])
    targets = [ux[i].omega_derivative(np.asarray(om, dtype=float)) + om.omega[i]
               for i in range(2)]
    a1 = SpectralField.stack([analyze(g, warp_samples(t, theta)) for t in targets])
    h = HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=a1,
                        Q=SpectralField.constant(g, np.eye(2)))
    _, sup, _ = residual_torus(hamiltonian_vector_field(h, u), u, None, om)
    assert sup < 1e-10


def test_counterterm_identity_at_flat_torus():
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(12)
    h = random_hamiltonian(g, om, rng)
    # at zeta0 the identity reduces to Avg F^y = 0, true by construction
    defect = composed_counterterm_defect(h, TorusEmbedding.flat(g), np.zeros(2), np.zeros(2), om)
    assert defect < 1e-12


def test_counterterm_detects_rough_data():
    # high-mode embeddings make the discrete means off: certificate, not tautology
    g = small_grid(K=8)
    om = freq()
    rng = np.random.default_rng(13)
    h = random_hamiltonian(g, om, rng, amp=0.3)
    uy = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(7, 5): 0.2 + 0.1j, (6, -6): 0.15}),
            SpectralField.from_modes(g, {(5, 7): -0.2j, (8, 0): 0.1}),
        ]
    )
    ux = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(6, 6): 0.02j}),
            SpectralField.from_modes(g, {(0, 7): 0.015}),
        ]
    )
    u = TorusEmbedding(ux=ux, uy=uy)
    defect = composed_counterterm_defect(h, u, np.zeros(2), rng.standard_normal(2), om)
    assert defect > 1e-10


def test_solve_reports_the_counterterm_defect_of_its_measured_residual():
    # the solver reuses the final X_h; here it is composed again
    g = small_grid()
    om = freq()
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.005, (1, 1): 0.002j}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    defect = composed_counterterm_defect(h, sol.u, sol.xi, sol.mu, om)
    assert sol.report.extras["counterterm_defect"] == defect


def test_certificate_takes_the_frame_samples_once(monkeypatch):
    g = small_grid()
    rng = np.random.default_rng(41)
    u = random_embedding(g, rng, 0.01)
    E = SpectralField.stack([sparse_field(g, rng, 1e-3) for _ in range(4)])
    cut = make_cutoff(g)
    # the composition through the public b_matrices and frame, as before the samples were shared
    symbol = b_matrices(E, u).matmul(frame(u)[2])
    expected = ParaOpHandle(symbol, cut).apply(u.displacement()).sobolev_norm(3.0)
    expected /= E.sobolev_norm(3.0)
    calls = []
    frame_samples = hamtorus._frame_samples
    monkeypatch.setattr(hamtorus, "_frame_samples", lambda v: calls.append(v) or frame_samples(v))
    kappa = neumann_certificate(E, u, cut, 3.0)
    assert len(calls) == 1
    assert kappa == expected and kappa > 0.0


# --- flow oracle --------------------------------------------------------------------


def test_flow_oracle_integrable():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    dev = flow_oracle(h, TorusEmbedding.flat(g), None, om, theta0=[0.3, 0.9], T=2.0, dt=1e-3)
    assert dev < 1e-10


def test_flow_oracle_detects_corruption():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    h = integrable(g, om, np.eye(2))
    uy = SpectralField.stack(
        [SpectralField.from_modes(g, {(1, 0): 1e-3j}), SpectralField.constant(g, 0.0)]
    )
    bad = TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)
    dev = flow_oracle(h, bad, None, om, theta0=[0.3, 0.9], T=2.0, dt=1e-3)
    assert dev >= 1e-3


@pytest.mark.parametrize(
    "T, dt, theta0",
    [
        (float("nan"), 1e-3, [0.3, 0.9]),
        (float("inf"), 1e-3, [0.3, 0.9]),
        (-1.0, 1e-3, [0.3, 0.9]),
        (2.0, 0.0, [0.3, 0.9]),
        (2.0, -1e-3, [0.3, 0.9]),
        (2.0, float("nan"), [0.3, 0.9]),
        (2.0, 1e-3, [0.3]),
        (2.0, 1e-3, [0.3, 0.9, 0.1]),
    ],
    ids=["nan-T", "inf-T", "negative-T", "zero-dt", "negative-dt", "nan-dt", "short-theta0",
         "long-theta0"],
)
def test_flow_oracle_rejects_bad_arguments(T, dt, theta0):
    g = small_grid()
    h = integrable(g, freq(), np.eye(2))
    with pytest.raises(ValueError, match="T >= 0 and dt > 0|theta0 needs"):
        flow_oracle(h, TorusEmbedding.flat(g), None, freq(), theta0=theta0, T=T, dt=dt)


def test_flow_oracle_rejects_a_nan_counterterm():
    # a NaN xi makes the initial energy NaN: the oracle stops before integrating
    g = small_grid()
    with pytest.raises(EnergyDriftError, match="step 0"):
        flow_oracle(integrable(g, freq(), np.eye(2)), TorusEmbedding.flat(g), [np.nan, 0.0],
                    freq(), theta0=[0.3, 0.9], T=1.5, dt=1e-3)


def test_flow_oracle_rejects_a_nan_embedding_coefficient():
    # the point evaluators keep a NaN mode, so the orbit starts at NaN
    g = small_grid()
    u = TorusEmbedding.flat(g)
    u.w.coeffs[2, 8, 9] = np.nan
    with pytest.raises(EnergyDriftError, match="step 0"):
        flow_oracle(integrable(g, freq(), np.eye(2)), u, None, freq(), theta0=[0.3, 0.9],
                    T=1.5, dt=1e-3)


def test_flow_oracle_rejects_a_nan_energy_drift():
    # the orbit overflows from a finite start; the drift at step 200 is NaN
    g = small_grid()
    h = random_hamiltonian(g, freq(), np.random.default_rng(32))
    with pytest.raises(EnergyDriftError, match="nan at step 200"), np.errstate(all="ignore"):
        flow_oracle(h, TorusEmbedding.flat(g), None, freq(), theta0=[0.3, 0.9], T=2e102, dt=1e100)


def test_flow_oracle_checks_the_energy_at_the_last_step():
    # the same overflowing orbit, 150 steps: it ends before the first 200-step check
    g = small_grid()
    h = random_hamiltonian(g, freq(), np.random.default_rng(32))
    with pytest.raises(EnergyDriftError, match="at step 150"), np.errstate(all="ignore"):
        flow_oracle(h, TorusEmbedding.flat(g), None, freq(), theta0=[0.3, 0.9],
                    T=1.5e102, dt=1e100)


@pytest.mark.parametrize("dense, cubic", [(True, False), (False, True)], ids=["dense-a0", "cubic"])
def test_stacked_point_rhs_matches_per_gradient_synthesis(dense, cubic):
    g = small_grid(K=8)
    rng = np.random.default_rng(31)
    h = random_hamiltonian(g, freq(), rng, with_cubic=cubic)
    if dense:
        th1, th2 = g.point_mesh
        a0 = analyze(g, 0.002 * np.exp(np.cos(th1 + 0.4) + np.cos(th2 - 1.1)))
        assert np.count_nonzero(a0.coeffs) > 200
        h = HamiltonianData(a0=a0, a1=h.a1, Q=h.Q)
    xi = rng.standard_normal(2) * 1e-3
    rhs = _flow_closures(h, xi)[0]
    for _ in range(20):
        x, y = rng.uniform(0.0, 2.0 * np.pi, 2), 0.1 * rng.standard_normal(2)
        ref = _xh(lambda m, order: synthesize(h.gradient(m, order), x), h.degree, y)
        ref = ref + np.concatenate([xi, np.zeros(2)])
        got = np.asarray(rhs(np.concatenate([x, y])))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _random_taylor_data(grid, rng, cubic, dense):
    """Sparse Taylor data of any dimension with symmetric Q and cubic; optionally a dense a0."""
    n = grid.dim
    if dense:
        phase = sum(np.cos(th + 0.7 * i) for i, th in enumerate(grid.point_mesh))
        a0 = analyze(grid, 0.002 * np.exp(phase))
        assert np.count_nonzero(a0.coeffs) > 2 * 3**n
    else:
        a0 = sparse_field(grid, rng, 0.02)
    a1 = SpectralField.stack([sparse_field(grid, rng, 0.02) + 1.0 + 0.3 * i for i in range(n)])
    pool = {}

    def entry(*idx):
        key = tuple(sorted(idx))
        if key not in pool:
            pool[key] = sparse_field(grid, rng, 0.02) + (1.0 if len(set(key)) == 1 else 0.0)
        return pool[key]

    Q = SpectralField.stack([[entry(i, j) for j in range(n)] for i in range(n)])
    C = [[[entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)] if cubic else None
    return HamiltonianData(a0=a0, a1=a1, Q=Q, cubic=C and SpectralField.stack(C))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cubic", [False, True], ids=["quadratic", "cubic"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse-a0", "dense-a0"])
def test_folded_point_rhs_matches_per_gradient_synthesis(dim, cubic, dense):
    # the folded half-space table against _xh on each gradient synthesized over all modes
    g = TorusGrid(dim, 4 if dim == 3 else 8)
    rng = np.random.default_rng(50 + dim)
    h = _random_taylor_data(g, rng, cubic, dense)
    xi = rng.standard_normal(dim) * 1e-3
    rhs = _flow_closures(h, xi)[0]
    for _ in range(10):
        x, y = rng.uniform(0.0, 2.0 * np.pi, dim), 0.1 * rng.standard_normal(dim)
        ref = _xh(lambda m, order: synthesize(h.gradient(m, order), x[None, :]), h.degree, y[:, None])
        ref = ref[:, 0] + np.concatenate([xi, np.zeros(dim)])
        got = np.asarray(rhs(np.concatenate([x, y])))
        assert got.shape == (2 * dim,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_flow_closures_of_a_zero_hamiltonian_are_the_counterterm_alone():
    # every row of both tables is zero: no table is left, and only the shift and xi remain
    g = small_grid()
    zero = SpectralField.constant(g, 0.0)
    h = HamiltonianData(a0=zero, a1=SpectralField.constant(g, np.zeros(2)),
                        Q=SpectralField.constant(g, np.zeros((2, 2))))
    z = [0.3, 0.9, 0.5, -0.25]
    rhs, energy = _flow_closures(h, None)
    assert rhs(z) == [0.0] * 4 and energy(z) == [0.0]
    rhs, energy = _flow_closures(h, np.array([0.125, -0.375]))
    assert rhs(z) == [0.125, -0.375, 0.0, 0.0] and energy(z) == [0.125 * 0.5 - 0.375 * -0.25]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cubic", [False, True], ids=["quadratic", "cubic"])
def test_flow_closures_energy_matches_the_written_out_h(dim, cubic):
    # the flow oracle's energy closure, h_xi = h + <xi, y>, against h written out and against the
    # slow path, _taylor's (0, 0) order on each gradient synthesized over all modes
    g = TorusGrid(dim, 4 if dim == 3 else 8)
    rng = np.random.default_rng(60 + dim)
    h = _random_taylor_data(g, rng, cubic, dense=False)
    unshifted, zero_xi = _flow_closures(h, None)[1], _flow_closures(h, np.zeros(dim))[1]
    for _ in range(10):
        x, y = rng.uniform(0.0, 2.0 * np.pi, dim), 0.3 * rng.standard_normal(dim)
        xi = rng.standard_normal(dim) * 1e-3
        z = np.concatenate([x, y]).tolist()
        got = _flow_closures(h, xi)[1](z)
        assert len(got) == 1 and abs(got[0] - (h_eval(h, x, y) + xi @ y)) <= 1e-14 * abs(got[0])
        T = lambda m, order: synthesize(h.gradient(m, order), x[None, :])
        slow = float(_taylor(T, h.degree, 0, y[:, None], 0)[0]) + xi @ y
        assert abs(got[0] - slow) <= 1e-14 * abs(slow)
        assert unshifted(z) == zero_xi(z)


def test_flow_oracle_in_dim_1():
    # a single point of T^1 is an array of shape (1,): the energy monitor reads it as one point
    g = TorusGrid(1, 16)
    om = FrequencyVector.certify([1.0], 1.0, 16)
    h = HamiltonianData(a0=SpectralField.from_modes(g, {1: 0.0025}),
                        a1=SpectralField.constant(g, [1.0]), Q=SpectralField.constant(g, [[1.0]]))
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.extras["residual_sup"] < 1e-12
    dev = flow_oracle(h, sol.u, sol.xi, om, theta0=[0.7], T=1.0, dt=0.01)
    assert dev < 1e-10
    # the solved torus is not the flat one, so the comparison has something to see
    assert flow_oracle(h, TorusEmbedding.flat(g), None, om, theta0=[0.7], T=1.0, dt=0.01) > 1e-4


def _whole_orbit_deviation(h, u, xi, omega, theta0, T, dt):
    """The comparison before it streamed: the whole RK4 orbit is stored, then compared in blocks."""
    n = u.n
    w_c = compress(u.displacement())

    def embed(thetas):
        vals = synthesize(w_c, thetas)
        vals[:n] += thetas.T
        return vals

    steps = int(round(T / dt))
    z = embed(theta0[None, :])[:, 0]
    rhs = _flow_closures(h, xi)[0]
    orbit = np.empty((steps + 1, 2 * n))
    orbit[0] = z
    for i in range(1, steps + 1):
        k1 = np.asarray(rhs(z))
        k2 = np.asarray(rhs(z + 0.5 * dt * k1))
        k3 = np.asarray(rhs(z + 0.5 * dt * k2))
        k4 = np.asarray(rhs(z + dt * k3))
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        orbit[i] = z
    dev = 0.0
    for lo in range(0, steps + 1, hamtorus._COMPARE_BLOCK):
        idx = np.arange(lo, min(lo + hamtorus._COMPARE_BLOCK, steps + 1))
        thetas = theta0[None, :] + (dt * idx)[:, None] * omega[None, :]
        dev = np.maximum(dev, np.max(np.sqrt(np.sum((orbit[idx] - embed(thetas).T) ** 2, axis=1))))
    return float(dev)


@pytest.mark.parametrize(
    "block, T",
    [(1000, 2.5), (7, 0.1), (7, 0.104), (7, 0.0)],
    ids=["three-blocks", "partial-last-block", "full-last-block", "no-step"],
)
def test_streamed_flow_comparison_matches_the_whole_orbit(monkeypatch, block, T):
    monkeypatch.setattr(hamtorus, "_COMPARE_BLOCK", block)
    g = small_grid()
    om = freq()
    rng = np.random.default_rng(43)
    h = random_hamiltonian(g, om, rng)
    u = random_embedding(g, rng, 0.01)
    xi = rng.standard_normal(2) * 1e-3
    theta0 = np.array([0.3, 0.9])
    dev = flow_oracle(h, u, xi, om, theta0=theta0, T=T, dt=1e-3)
    assert dev == _whole_orbit_deviation(h, u, xi, np.asarray(om, dtype=float), theta0, T, 1e-3)
    assert dev > 1e-4 or T == 0.0  # u is not invariant: the comparison sees it


def test_flow_oracle_memory_does_not_grow_with_T():
    # dim 3 and dt = 2e-3 keep the traced run short (the integrable flow is
    # linear), and K = 1 keeps the set-up's transient tables below the orbit's size
    g = TorusGrid(3, 1)
    om = FrequencyVector.certify([1.0, GOLDEN, math.sqrt(2.0) - 1.0], 1.0, 1)
    h = integrable(g, om, np.eye(3))
    u = TorusEmbedding.flat(g)

    def peak(T):
        tracemalloc.start()
        try:
            flow_oracle(h, u, None, om, theta0=[0.3, 0.9, 0.5], T=T, dt=2e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.02)  # builds the grid tables
    # both runs fill whole comparison blocks; a stored orbit of 10,001 points of
    # 6 floats would take 422 KiB more than one of 1,001
    assert peak(20.0) - peak(2.0) < 100 * 1024


def test_flow_oracle_rejects_a_step_count_that_overflows():
    # T and dt are finite, but T / dt is not
    g = small_grid()
    h = integrable(g, freq(), np.eye(2))
    with pytest.raises(ValueError, match="T >= 0 and dt > 0 and T / dt"):
        flow_oracle(h, TorusEmbedding.flat(g), None, freq(), theta0=[0.3, 0.9], T=1e300,
                    dt=1e-300)


@pytest.mark.parametrize("xi", [[1e-3, 0.0, 0.0], 1e-3, [[1e-3, 0.0]]],
                         ids=["three-entries", "scalar", "two-dimensional"])
@pytest.mark.parametrize("caller", ["flow_oracle", "residual_torus", "_flow_closures"])
def test_counterterm_of_the_wrong_shape_is_rejected(caller, xi):
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    u = TorusEmbedding.flat(g)
    call = {
        "flow_oracle": lambda: flow_oracle(h, u, xi, om, theta0=[0.3, 0.9], T=0.01, dt=1e-3),
        "residual_torus": lambda: residual_torus(hamiltonian_vector_field(h, u), u, xi, om),
        "_flow_closures": lambda: _flow_closures(h, xi),
    }[caller]
    with pytest.raises(ValueError, match=r"xi needs shape \(2,\), got shape"):
        call()


def _complex_table_rhs(h, xi):
    """The flow right-hand side before it ran on real terms: one complex table over every
    (r, a, b[, c]) row, one phase exponential, one matrix product and d contractions with
    y1 = (1, y)."""
    n, d = h.n, h.degree
    mid = h.grid.mode_list.shape[0] // 2
    table = np.zeros((2 * n,) + (n + 1,) * d + (mid + 1,), dtype=complex)
    for m in range(d + 1):
        ys = (slice(1, None),) * m
        dx = compress(h.gradient(m, 1)).coeffs.reshape((n,) * (m + 1) + (-1,))[..., mid:]
        table[(slice(n, None),) + (0,) * (d - m) + ys] = -np.moveaxis(dx, m, 0) / math.factorial(m)
        if m > 0:
            ay = compress(h.gradient(m)).coeffs.reshape((n,) * m + (-1,))[..., mid:]
            table[(slice(None, n),) + (0,) * (d + 1 - m) + ys[1:]] = ay / math.factorial(m - 1)
    table = table.reshape((-1, mid + 1))
    table[:, 1:] *= 2.0
    mask = np.any(table != 0, axis=0)
    modes_t = h.grid.mode_list[mid:][mask].T.astype(float)
    table = table[:, mask]
    shape = (2 * n,) + (n + 1,) * d
    shift = np.concatenate([xi, np.zeros(n)])
    y1 = np.ones(n + 1)

    def rhs(z):
        vals = (table @ np.exp(1j * (z[:n] @ modes_t))).real.reshape(shape)
        y1[1:] = z[n:]
        for _ in range(d):
            vals = vals @ y1
        return vals + shift

    return rhs


def _complex_table_deviation(h, u, xi, omega, theta0, T, dt):
    """Max distance of the NumPy RK4 orbit through _complex_table_rhs from u(theta0 + omega t)."""
    n = u.n
    w_c = compress(u.displacement())
    steps = int(round(T / dt))
    thetas = theta0[None, :] + (dt * np.arange(steps + 1))[:, None] * omega[None, :]
    ref = synthesize(w_c, thetas).T
    ref[:, :n] += thetas
    rhs = _complex_table_rhs(h, xi)
    z = ref[0].copy()
    orbit = [z]
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        orbit.append(z)
    return float(np.max(np.sqrt(np.sum((np.array(orbit) - ref) ** 2, axis=1))))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cubic", [False, True], ids=["quadratic", "cubic"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse-a0", "dense-a0"])
def test_flow_oracle_matches_the_complex_table_orbit(dim, cubic, dense):
    g = TorusGrid(dim, 4 if dim == 3 else 8)
    rng = np.random.default_rng(70 + dim)
    h = _random_taylor_data(g, rng, cubic, dense)
    u = random_embedding(g, rng, 0.01)
    xi = rng.standard_normal(dim) * 1e-3
    omega = 1.0 + 0.3 * np.arange(dim)  # the mean of a1 in _random_taylor_data
    theta0 = rng.uniform(0.0, 2.0 * np.pi, dim)
    dev = flow_oracle(h, u, xi, omega, theta0=theta0, T=0.3, dt=1e-3)
    assert dev > 1e-4  # u is not invariant: the comparison sees it
    assert abs(dev - _complex_table_deviation(h, u, xi, omega, theta0, 0.3, 1e-3)) <= 1e-15


def test_point_rhs_without_a_varying_mode_is_the_constant_polynomial():
    # a0 = 0 with constant a1 and Q: no phase is formed, and dyadic data keeps every sum exact
    g = small_grid()
    a1 = SpectralField.stack([SpectralField.constant(g, 1.0), SpectralField.constant(g, 0.5)])
    h = HamiltonianData(a0=SpectralField.constant(g, 0.0), a1=a1,
                        Q=SpectralField.constant(g, np.array([[2.0, 0.25], [0.25, 1.0]])))
    rhs = _flow_closures(h, np.array([0.125, -0.375]))[0]
    for x in ([0.3, 0.9], [5.1, -2.0]):
        assert rhs(x + [0.5, -1.5]) == [0.125 + 1.0 + 1.0 - 0.375, -0.375 + 0.5 + 0.125 - 1.5,
                                        0.0, 0.0]


# --- isotropy ------------------------------------------------------------------------


def test_lack_of_isotropy_flat_and_antisymmetric():
    g = small_grid()
    z0 = TorusEmbedding.flat(g)
    assert lack_of_isotropy(z0).sup_norm() == 0.0
    rng = np.random.default_rng(14)
    z = random_embedding(g, rng, 0.05)
    L = lack_of_isotropy(z)
    for i in range(2):
        for j in range(2):
            assert (L[i, j] + L[j, i]).sup_norm() < 1e-12


def test_lagrangian_graph_is_isotropic():
    g = small_grid()
    psi = SpectralField.from_modes(g, {(1, 0): 0.04, (0, 1): -0.03j, (1, 1): 0.02})
    uy = SpectralField.stack([psi.derivative(0), psi.derivative(1)])
    z = TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)
    assert lack_of_isotropy(z).sup_norm() < 1e-11


def test_isotropic_correction_reduces_L():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    h = integrable(g, om, np.eye(2))
    uy = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(1, 0): 5e-4j, (0, 1): 3e-4}),
            SpectralField.from_modes(g, {(1, 1): -4e-4j}),
        ]
    )
    z = TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)
    L0 = lack_of_isotropy(z).sup_norm()
    eta = isotropic_correction(z, h, om)
    L1 = lack_of_isotropy(eta).sup_norm()
    assert L1 <= 0.1 * L0
    assert (eta.ux.samples() == z.ux.samples()).all()


def test_isotropic_correction_fixes_isotropic_input():
    g = small_grid()
    om = freq()
    h = integrable(g, om, np.eye(2))
    psi = SpectralField.from_modes(g, {(1, 0): 0.01, (0, 1): -0.008j})
    uy = SpectralField.stack([psi.derivative(0), psi.derivative(1)])
    z = TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)
    eta = isotropic_correction(z, h, om)
    assert (eta.uy - z.uy).sup_norm() < 1e-11


def test_isotropy_two_formulas_agree():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    h = integrable(g, om, np.eye(2))
    uy = SpectralField.stack(
        [
            SpectralField.from_modes(g, {(1, 0): 5e-4j, (0, 1): 3e-4}),
            SpectralField.from_modes(g, {(1, 1): -4e-4j}),
        ]
    )
    z = TorusEmbedding(ux=SpectralField.constant(g, np.zeros(2)), uy=uy)
    La = lack_of_isotropy(z)
    Lb = isotropy_from_residual(z, h, om)
    diff = max((La[i, j] - Lb[i, j]).sup_norm() for i in range(2) for j in range(2))
    assert diff < 1e-9


def test_flow_oracle_rejects_coarse_steps():
    g = small_grid()
    om = freq()
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.25}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, 2.0 * np.eye(2)),
    )
    with pytest.raises(EnergyDriftError):
        flow_oracle(h, TorusEmbedding.flat(g), None, om, theta0=[0.3, 0.9], T=300.0, dt=0.5)


def test_solver_reports_truncation_tail():
    g = TorusGrid(2, 16)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, 16)
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0): 0.005}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(2)]),
        Q=SpectralField.constant(g, np.eye(2)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.extras["xh_tail_energy"] < 1e-12


def test_solve_thm1_dim3_smoke():
    # 6 x 6 frame fields run through the component axes
    g = TorusGrid(3, 4)
    om = FrequencyVector.certify([1.0, GOLDEN, math.sqrt(2.0) - 1.0], 1.0, 4)
    h = HamiltonianData(
        a0=SpectralField.from_modes(g, {(1, 0, 0): 0.0025, (0, 1, 1): 0.0025j}),
        a1=SpectralField.stack([SpectralField.constant(g, om.omega[i]) for i in range(3)]),
        Q=SpectralField.constant(g, np.eye(3)),
    )
    sol = solve_torus(h, om, mode="thm1", s=3.0)
    assert sol.report.iterations == 5
    assert sol.report.extras["residual_sup"] < 1e-13
    assert sol.report.extras["kappa"] < 1.0
    assert np.all(sol.xi == 0.0)
    assert composed_counterterm_defect(h, sol.u, sol.xi, sol.mu, om) < 1e-10
