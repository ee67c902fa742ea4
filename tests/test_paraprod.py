"""Para-products: identities, smoothing remainders, Meyer sums, inversion."""

import numpy as np
import pytest

from paratorus import (
    GridMismatchError,
    NonContractiveError,
    NonFiniteError,
    SingularAverageError,
    SpectralField,
    TorusGrid,
    cm_remainder,
    make_cutoff,
    meyer_apply,
    para_compose,
    para_invert,
    para_product,
    pl_remainder,
    telescope_remainders,
    zygmund_norm,
)
from paratorus.paraprod import ParaOpHandle, para_invert_with_handle
from paratorus.spectral import _synthesize_half, analyze

from test_spectral import hermitian_defect, random_field


def setup_1d(K=32):
    g = TorusGrid(1, K)
    return g, make_cutoff(g)


def lacunary(grid, cut, r, rng, jmax=None):
    """sum_j 2^{-jr} cos(2^j x + phase): |.|_{C^r_*} ~ 1 with known regularity."""
    f = SpectralField.zero(grid)
    top = jmax if jmax is not None else cut.j_max
    for j in range(0, top + 1):
        k = 2**j
        if k > grid.max_mode:
            break
        phase = rng.uniform(0, 2 * np.pi)
        f = f + SpectralField.from_modes(grid, {k: 0.5 * 2.0 ** (-j * r) * np.exp(1j * phase)})
    return f


# --- para_product -----------------------------------------------------------


def test_constant_symbol_acts_by_multiplication():
    g, cut = setup_1d()
    rng = np.random.default_rng(1)
    u = random_field(g, rng, band=g.max_mode)
    out = para_product(SpectralField.constant(g, 2.5), u, cut)
    assert np.max(np.abs(out.coeffs - 2.5 * u.coeffs)) < 1e-13


def test_constant_operand_picks_symbol_mean():
    g, cut = setup_1d()
    rng = np.random.default_rng(2)
    a = random_field(g, rng) + 1.3
    lam = 0.7
    out = para_product(a, SpectralField.constant(g, lam), cut)
    expect = a.mean() * lam
    assert abs(out.mean() - expect) < 1e-13
    assert (out - out.mean()).l2_norm() < 1e-13


def test_low_symbol_times_single_block_is_plain_product():
    g, cut = setup_1d(K=128)
    rng = np.random.default_rng(3)
    a = SpectralField.from_modes(g, {1: 0.5})  # cos(x)
    w = random_field(g, rng, band=128)
    u = cut.block(w, 6)
    got = para_product(a, u, cut)
    oracle = a.product(u)
    assert np.max(np.abs(got.coeffs - oracle.coeffs)) < 1e-12


def test_para_product_linear_in_both_arguments():
    g, cut = setup_1d()
    rng = np.random.default_rng(4)
    a, b = random_field(g, rng), random_field(g, rng)
    u, v = random_field(g, rng), random_field(g, rng)
    lhs = para_product(a + b, u, cut)
    rhs = para_product(a, u, cut) + para_product(b, u, cut)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13
    lhs2 = para_product(a, u + v, cut)
    rhs2 = para_product(a, u, cut) + para_product(a, v, cut)
    assert np.max(np.abs(lhs2.coeffs - rhs2.coeffs)) < 1e-13


def test_para_product_real_to_real():
    g, cut = setup_1d()
    rng = np.random.default_rng(5)
    out = para_product(random_field(g, rng), random_field(g, rng), cut)
    assert hermitian_defect(out) < 1e-13


def dense_random_field(grid, rng, decay=1.0):
    """Random field with full spectrum, |u_hat(k)| ~ (1+|k|)^{-decay}."""
    shape = grid.mode_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    prof = (1.0 + grid.mode_norm) ** (-decay)
    f = SpectralField(grid, raw * prof)
    f.coeffs = 0.5 * (
        f.coeffs + np.conj(f.coeffs[tuple(slice(None, None, -1) for _ in range(grid.dim))])
    )
    return f


def boundedness_constant(K, s=2.0):
    """Deterministic estimate of sup |T_a u|_{H^s} / (|a|_inf |u|_{H^s})."""
    g = TorusGrid(1, K)
    cut = make_cutoff(g)
    a = SpectralField.from_modes(g, {1: 0.25, 2: 0.1, 3: 0.05j}) + 1.0
    flat = SpectralField(g, ((1.0 + g.mode_norm**2) ** (-s / 2)).astype(complex))
    probes = [flat, cut.block(SpectralField(g, np.ones(g.mode_shape, complex)), cut.j_max)]
    best = 0.0
    for u in probes:
        best = max(best, para_product(a, u, cut).sobolev_norm(s) / (a.sup_norm() * u.sobolev_norm(s)))
    return best


def test_boundedness_ratio_stable_under_resolution_doubling():
    c32, c64 = boundedness_constant(32), boundedness_constant(64)
    assert abs(np.log(c64 / c32)) < np.log(1.2)


# --- matrix para-product ----------------------------------------------------


def test_matrix_para_product_constant_matrix():
    g, cut = setup_1d()
    rng = np.random.default_rng(7)
    A = SpectralField.constant(g, np.array([[2.0, 1.0], [0.5, -1.0]]))
    v = SpectralField.stack([random_field(g, rng), random_field(g, rng)])
    got = para_product(A, v, cut)
    want0 = 2.0 * v[0] + 1.0 * v[1]
    want1 = 0.5 * v[0] - 1.0 * v[1]
    assert np.max(np.abs(got[0].coeffs - want0.coeffs)) < 1e-13
    assert np.max(np.abs(got[1].coeffs - want1.coeffs)) < 1e-13


def test_matrix_para_product_identity():
    g, cut = setup_1d()
    rng = np.random.default_rng(8)
    v = SpectralField.stack([random_field(g, rng), random_field(g, rng)])
    I = SpectralField.constant(g, np.eye(2))
    got = para_product(I, v, cut)
    for i in range(2):
        assert np.max(np.abs(got[i].coeffs - v[i].coeffs)) < 1e-13


def test_matrix_para_product_entrywise_oracle():
    g, cut = setup_1d(16)
    rng = np.random.default_rng(9)
    A = SpectralField.stack([[random_field(g, rng) for _ in range(2)] for _ in range(2)])
    v = SpectralField.stack([random_field(g, rng), random_field(g, rng)])
    got = para_product(A, v, cut)
    for i in range(2):
        want = para_product(A[i, 0], v[0], cut) + para_product(A[i, 1], v[1], cut)
        assert np.max(np.abs(got[i].coeffs - want.coeffs)) < 1e-12


# --- composition remainder ---------------------------------------------------


def test_cm_remainder_vanishes_for_constant_factor():
    g, cut = setup_1d()
    rng = np.random.default_rng(10)
    b = random_field(g, rng) + 0.9
    u = random_field(g, rng)
    c = SpectralField.constant(g, 1.7)
    scale = u.l2_norm() * b.sup_norm()
    assert cm_remainder(c, b, u, cut).l2_norm() < 1e-13 * scale
    assert cm_remainder(b, c, u, cut).l2_norm() < 1e-13 * scale


def test_cm_remainder_bilinear():
    g, cut = setup_1d(16)
    rng = np.random.default_rng(11)
    a1, a2, b, u = (random_field(g, rng) for _ in range(4))
    lhs = cm_remainder(a1 + a2, b, u, cut)
    rhs = cm_remainder(a1, b, u, cut) + cm_remainder(a2, b, u, cut)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def cm_decay_slope(r, rng, K=256):
    g = TorusGrid(1, K)
    cut = make_cutoff(g)
    a = lacunary(g, cut, r, rng)
    b = lacunary(g, cut, r, rng)
    w = random_field(g, rng, band=K)
    js, ys = [], []
    for j in range(3, 8):
        u = cut.block(w, j)
        if u.l2_norm() == 0:
            continue
        ratio = cm_remainder(a, b, u, cut).l2_norm() / u.l2_norm()
        if ratio > 0:
            js.append(j)
            ys.append(np.log2(ratio))
    return np.polyfit(js, ys, 1)[0]


def test_cm_remainder_smoothing_slopes():
    rng = np.random.default_rng(12)
    for r in (1.0, 2.0):
        slope = cm_decay_slope(r, rng)
        assert slope <= -r + 0.5, f"r={r}: fitted slope {slope:.2f}"


# --- Meyer multipliers --------------------------------------------------------


def test_meyer_identity_family():
    g, cut = setup_1d()
    rng = np.random.default_rng(13)
    u = random_field(g, rng, band=g.max_mode)
    fam = SpectralField.stack([SpectralField.constant(g, 1.0) for _ in range(cut.j_max + 1)])
    got = meyer_apply(fam, u, cut)
    assert np.max(np.abs(got.coeffs - u.coeffs)) < 1e-13


def test_meyer_paraproduct_coincidence():
    g, cut = setup_1d()
    rng = np.random.default_rng(14)
    a = random_field(g, rng)
    u = random_field(g, rng, band=g.max_mode)
    fam = SpectralField.stack([cut.partial_sum(a, j - 3) for j in range(cut.j_max + 1)])
    got = meyer_apply(fam, u, cut)
    want = para_product(a, u, cut)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13


def test_meyer_apply_rejects_multipliers_on_another_grid():
    # same N and level count, different K: the samples line up, so this once passed silently
    cut = make_cutoff(TorusGrid(1, 8))
    other = TorusGrid(1, 4)
    fam = SpectralField.stack([SpectralField.constant(other, 1.0) for _ in range(cut.j_max + 1)])
    u = random_field(cut.grid, np.random.default_rng(16))
    with pytest.raises(GridMismatchError):
        meyer_apply(fam, u, cut)


def test_meyer_apply_rejects_a_family_without_a_level_per_block():
    g, cut = setup_1d()
    u = random_field(g, np.random.default_rng(17))
    short = SpectralField.stack([SpectralField.constant(g, 1.0) for _ in range(cut.j_max)])
    with pytest.raises(ValueError, match="cutoff needs"):
        meyer_apply(short, u, cut)
    with pytest.raises(ValueError, match="cutoff needs"):
        meyer_apply(SpectralField.constant(g, 1.0), u, cut)


def test_meyer_gain_one_norm_sweep():
    # m_j = 2^{-j}: output H^{s+1} controlled by ||u||_{H^s}, stable across K
    rng = np.random.default_rng(15)
    consts = []
    for K in (32, 64):
        g = TorusGrid(1, K)
        cut = make_cutoff(g)
        fam = SpectralField.stack(
            [SpectralField.constant(g, 2.0**-j) for j in range(cut.j_max + 1)]
        )
        worst = 0.0
        for _ in range(10):
            u = random_field(g, rng, band=K)
            worst = max(worst, meyer_apply(fam, u, cut).sobolev_norm(3.0) / u.sobolev_norm(2.0))
        consts.append(worst)
    assert consts[1] <= 4.1 * consts[0]


# --- telescope and para-linearization ----------------------------------------


def F_linear_const(c):
    return (lambda mesh, z: c * z, lambda mesh, z: np.full_like(z, c))


def F_linear_coeff(afield):
    asamp = afield.samples()
    return (lambda mesh, z: asamp * z, lambda mesh, z: asamp + 0.0 * z)


F_SQUARE = (lambda mesh, z: z**2, lambda mesh, z: 2.0 * z)
F_CUBE = (lambda mesh, z: z**3, lambda mesh, z: 3.0 * z**2)


def reconstruct(F, Fz, u, cut):
    g = u.grid
    mesh = g.point_mesh
    m1, m2 = telescope_remainders(F, Fz, u, cut)
    from paratorus.spectral import analyze

    fz_u = analyze(g, np.asarray(Fz(mesh, u.samples()), dtype=float))
    total = para_product(fz_u, u, cut) + meyer_apply(m1, u, cut) + meyer_apply(m2, u, cut)
    oracle = analyze(g, np.asarray(F(mesh, u.samples()), dtype=float)) - analyze(
        g, np.asarray(F(mesh, np.zeros(g.point_shape)), dtype=float)
    )
    return total, oracle, fz_u


def test_telescope_constant_linear_collapses():
    g, cut = setup_1d(32)
    rng = np.random.default_rng(16)
    u = random_field(g, rng, band=8)
    F, Fz = F_linear_const(1.8)
    m1, m2 = telescope_remainders(F, Fz, u, cut)
    for fam in (m1, m2):
        assert max(m.sup_norm() for m in fam) < 1e-12
    total, oracle, _ = reconstruct(F, Fz, u, cut)
    assert (total - oracle).l2_norm() < 1e-12
    # F = cz: F(x,u) - F(x,0) = T_c u = cu exactly
    assert np.max(np.abs(total.coeffs - 1.8 * u.coeffs)) < 1e-12


def test_telescope_linear_coefficient_case():
    g, cut = setup_1d(64)
    rng = np.random.default_rng(17)
    a = random_field(g, rng, band=16)
    u = random_field(g, rng, band=16)
    F, Fz = F_linear_coeff(a)
    m1, m2 = telescope_remainders(F, Fz, u, cut)
    assert max(m.sup_norm() for m in m2) < 1e-11  # m^2 collapses
    total, oracle, _ = reconstruct(F, Fz, u, cut)
    assert (total - oracle).l2_norm() < 1e-10
    prod = a.product(u)
    assert (total - prod).l2_norm() < 1e-10


@pytest.mark.parametrize("Fpair", [F_SQUARE, F_CUBE])
def test_telescope_reconstruction_polynomial(Fpair):
    g, cut = setup_1d(64)
    rng = np.random.default_rng(18)
    u = random_field(g, rng, band=16, amp=0.8)
    total, oracle, _ = reconstruct(*Fpair, u, cut)
    assert (total - oracle).l2_norm() < 1e-9


def test_pl_remainder_matches_telescope_for_square():
    g, cut = setup_1d(64)
    rng = np.random.default_rng(19)
    u = random_field(g, rng, band=16, amp=0.8)
    F, Fz = F_SQUARE
    from paratorus.spectral import analyze

    mesh = g.point_mesh
    F_of_u = analyze(g, F(mesh, u.samples()))
    F_of_0 = analyze(g, F(mesh, np.zeros(g.point_shape)))
    Fz_at_u = analyze(g, Fz(mesh, u.samples()))
    rem = pl_remainder(F_of_u, F_of_0, Fz_at_u, u, cut)
    m1, m2 = telescope_remainders(F, Fz, u, cut)
    tele = meyer_apply(m1, u, cut) + meyer_apply(m2, u, cut)
    assert (rem - tele).l2_norm() < 1e-9


def test_pl_remainder_zero_for_constant_linear():
    g, cut = setup_1d(32)
    rng = np.random.default_rng(20)
    u = random_field(g, rng, band=8)
    c = 2.2
    F_of_u = c * u
    F_of_0 = SpectralField.zero(g)
    Fz_at_u = SpectralField.constant(g, c)
    rem = pl_remainder(F_of_u, F_of_0, Fz_at_u, u, cut)
    assert rem.l2_norm() < 1e-13 * u.l2_norm()


def test_pl_remainder_block_decay_slope():
    # single-block probes normalized to unit Zygmund size; gain index r
    r = 2.0
    g = TorusGrid(1, 256)
    cut = make_cutoff(g)
    rng = np.random.default_rng(21)
    w = random_field(g, rng, band=256)
    from paratorus.spectral import analyze

    js, ys = [], []
    for j in range(3, 8):
        u = cut.block(w, j)
        nrm = zygmund_norm(u, r, cut)
        if nrm == 0:
            continue
        u = u * (1.0 / nrm)
        F_of_u = analyze(g, u.samples() ** 2)
        Fz_at_u = 2.0 * u
        rem = pl_remainder(F_of_u, SpectralField.zero(g), Fz_at_u, u, cut)
        ratio = rem.sobolev_norm(2.0) / u.sobolev_norm(2.0)
        if ratio > 0:
            js.append(j)
            ys.append(np.log2(ratio))
    slope = np.polyfit(js, ys, 1)[0]
    assert slope <= -r + 0.5, f"fitted slope {slope:.2f}"


# --- para-composition ---------------------------------------------------------


def test_para_compose_zero_displacement():
    g, cut = setup_1d(64)
    rng = np.random.default_rng(22)
    F = random_field(g, rng, band=48)
    zero = SpectralField.stack([SpectralField.zero(g)])
    got = para_compose(F, zero, cut)
    assert (got - F).l2_norm() < 1e-10


def test_para_compose_constant():
    g, cut = setup_1d(32)
    F = SpectralField.constant(g, 3.14)
    disp = SpectralField.stack([SpectralField.from_modes(g, {1: -0.05j})])
    got = para_compose(F, disp, cut)
    assert abs(got.mean() - 3.14) < 1e-12
    assert (got - got.mean()).l2_norm() < 1e-12


def test_para_compose_rejects_steep_displacement():
    g, cut = setup_1d(32)
    F = SpectralField.from_modes(g, {2: 0.5})
    steep = SpectralField.stack([SpectralField.from_modes(g, {1: -0.6j})])  # slope 1.2
    from paratorus import DiffeomorphismLostError

    with pytest.raises(DiffeomorphismLostError):
        para_compose(F, steep, cut)


def test_para_composition_remainder_decays_with_block_level():
    g = TorusGrid(1, 256)
    cut = make_cutoff(g)
    rng = np.random.default_rng(23)
    u = SpectralField.from_modes(g, {1: -0.1j, 2: 0.03})  # smooth displacement
    disp = SpectralField.stack([u])
    w = random_field(g, rng, band=256)
    from paratorus.spectral import compose_warped

    js, ys = [], []
    for j in range(3, 8):
        F = cut.block(w, j)
        n0 = F.sobolev_norm(2.0)
        if n0 == 0:
            continue
        comp = compose_warped(F, disp)
        fprime_comp = compose_warped(F.derivative(0), disp)
        ra = comp - para_compose(F, disp, cut) - para_product(fprime_comp, u, cut)
        ratio = ra.sobolev_norm(2.0) / n0
        if ratio > 0:
            js.append(j)
            ys.append(np.log2(ratio))
    slope = np.polyfit(js, ys, 1)[0]
    assert slope < -0.5, f"para-composition remainder slope {slope:.2f} fails to decay"


# --- para-inversion -----------------------------------------------------------


def test_para_invert_identity_symbol():
    g, cut = setup_1d()
    rng = np.random.default_rng(24)
    v = random_field(g, rng)
    w = para_invert(SpectralField.constant(g, 1.0), v, cut)
    assert np.max(np.abs(w.coeffs - v.coeffs)) < 1e-13


def test_para_invert_forward_check():
    g, cut = setup_1d(64)
    rng = np.random.default_rng(25)
    a = SpectralField.from_modes(g, {1: 0.05}) + 1.0  # 1 + 0.1 cos x
    v = random_field(g, rng, band=32)
    w = para_invert(a, v, cut, tol=1e-13)
    resid = (para_product(a, w, cut) - v).l2_norm()
    assert resid < 1e-12 * v.l2_norm()


def test_para_invert_mean_dominated_symbol_fails():
    g, cut = setup_1d()
    rng = np.random.default_rng(26)
    v = random_field(g, rng)
    with pytest.raises(NonContractiveError):
        para_invert(SpectralField.from_modes(g, {1: 0.5}), v, cut)


def test_para_invert_zero_rhs():
    g, cut = setup_1d()
    a = SpectralField.constant(g, 2.0)
    w = para_invert(a, SpectralField.zero(g), cut)
    assert w.l2_norm() == 0.0


def test_para_invert_rejects_max_iter_below_one():
    g, cut = setup_1d()
    rng = np.random.default_rng(31)
    v = random_field(g, rng)
    with pytest.raises(ValueError):
        para_invert(SpectralField.constant(g, 2.0), v, cut, max_iter=0)
    with pytest.raises(ValueError):
        para_invert(SpectralField.constant(g, np.eye(2)), SpectralField.stack([v, v]), cut, max_iter=0)


@pytest.mark.parametrize("fluctuation", [0.0, 0.5], ids=["constant", "plus-cos"])
def test_para_invert_with_handle_rejects_negligible_scalar_mean(fluctuation):
    # mean 1e-15 against a scale max(sup |a|, 1) of about 1: singular on either path
    g, cut = setup_1d()
    v = random_field(g, np.random.default_rng(32))
    a = SpectralField.from_modes(g, {1: fluctuation}) + 1e-15
    with pytest.raises(SingularAverageError) as via_handle:
        para_invert_with_handle(ParaOpHandle(a, cut), v)
    with pytest.raises(SingularAverageError) as via_symbol:
        para_invert(a, v, cut)
    assert str(via_handle.value) == str(via_symbol.value)


def test_para_invert_stops_at_a_non_finite_residual(monkeypatch):
    # a NaN right-hand side fails on the first residual, not after max_iter applications
    g, cut = setup_1d(64)
    v = random_field(g, np.random.default_rng(33))
    v.coeffs[g.max_mode + 3] = np.nan
    handle = ParaOpHandle(SpectralField.from_modes(g, {1: 0.05}) + 1.0, cut)
    applies = []
    apply = ParaOpHandle.apply
    monkeypatch.setattr(ParaOpHandle, "apply", lambda self, u: applies.append(1) or apply(self, u))
    with pytest.raises(NonFiniteError, match="after 0 applications"):
        para_invert_with_handle(handle, v)
    assert len(applies) == 1


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_para_invert_rejects_a_tol_not_finite_and_positive(tol):
    # a NaN or negative tol once ended in a NonContractiveError at residual 0
    g, cut = setup_1d()
    v = random_field(g, np.random.default_rng(34))
    a = SpectralField.from_modes(g, {1: 0.05}) + 1.0
    with pytest.raises(ValueError, match="tol"):
        para_invert_with_handle(ParaOpHandle(a, cut), v, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        para_invert(a, v, cut, tol=tol)


def test_para_invert_rejects_a_w0_on_another_grid_or_of_another_shape():
    g, cut = setup_1d()
    v = random_field(g, np.random.default_rng(35))
    handle = ParaOpHandle(SpectralField.from_modes(g, {1: 0.05}) + 1.0, cut)
    with pytest.raises(GridMismatchError):
        para_invert_with_handle(handle, v, w0=SpectralField.zero(TorusGrid(1, 16)))
    with pytest.raises(ValueError, match="w0"):
        para_invert_with_handle(handle, v, w0=SpectralField.stack([v, v]))


def test_a_converged_w0_returns_after_one_apply(monkeypatch):
    g, cut = setup_1d(64)
    v = random_field(g, np.random.default_rng(36))
    handle = ParaOpHandle(SpectralField.from_modes(g, {1: 0.05}) + 1.0, cut)
    w = para_invert_with_handle(handle, v, tol=1e-13)
    applies = []
    apply = ParaOpHandle.apply
    monkeypatch.setattr(ParaOpHandle, "apply", lambda self, u: applies.append(1) or apply(self, u))
    assert para_invert_with_handle(handle, v, tol=1e-13, w0=w) is w
    assert len(applies) == 1


def test_para_invert_has_one_entry_point():
    # the former names for matrix symbols, which perfbench still calls
    import paratorus

    assert paratorus.para_invert_matrix is para_invert
    assert ParaOpHandle.__dict__["apply_vector"] is ParaOpHandle.__dict__["apply"]


def test_para_invert_matrix_constant_symbol():
    g, cut = setup_1d()
    rng = np.random.default_rng(27)
    M = np.array([[2.0, 0.3], [0.1, -1.5]])
    A = SpectralField.constant(g, M)
    v = SpectralField.stack([random_field(g, rng), random_field(g, rng)])
    w = para_invert(A, v, cut, tol=1e-13)
    want = np.linalg.inv(M)
    got0 = want[0, 0] * v[0] + want[0, 1] * v[1]
    assert (w[0] - got0).l2_norm() < 1e-12


def test_para_invert_matrix_forward_check_and_singular():
    g, cut = setup_1d(64)
    rng = np.random.default_rng(28)
    base = np.diag([1.0, -1.0])
    off = random_field(g, rng, band=16, amp=0.05)
    A = SpectralField.stack(
        [
            [SpectralField.constant(g, base[0, 0]), off],
            [off * 0.5, SpectralField.constant(g, base[1, 1])],
        ]
    )
    v = SpectralField.stack([random_field(g, rng, band=16), random_field(g, rng, band=16)])
    w = para_invert(A, v, cut, tol=1e-13)
    resid = (para_product(A, w, cut) - v).l2_norm()
    assert resid < 1e-12 * v.l2_norm()
    singular = SpectralField.constant(g, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularAverageError):
        para_invert(singular, v, cut)


def test_handle_reuse_matches_function():
    g, cut = setup_1d()
    rng = np.random.default_rng(29)
    a = random_field(g, rng)
    u1, u2 = random_field(g, rng), random_field(g, rng)
    h = ParaOpHandle(a, cut)
    for u in (u1, u2):
        assert np.max(np.abs(h.apply(u).coeffs - para_product(a, u, cut).coeffs)) == 0.0


@pytest.mark.parametrize("dim, K, shape", [(1, 512, ()), (2, 32, ()), (3, 16, ()), (2, 32, (2, 2))] + [
    (dim, K, shape) for dim, K in [(2, 12), (2, 20), (2, 64), (3, 8), (3, 16)]
    for shape in [(), (3,), (2, 2)] if (dim, K, shape) != (3, 16, ())])
def test_handle_low_passes_equal_each_level_synthesized_alone(dim, K, shape):
    # a scalar symbol's levels come from one stacked transform on the top level's band of
    # k_last columns, a matrix symbol's one level at a time on its own band; either way each
    # level is the bits of its own synthesis from the full K + 1 columns
    g = TorusGrid(dim, K)
    cut = make_cutoff(g)
    rng = np.random.default_rng(31)
    fields = [random_field(g, rng, band=K) for _ in range(int(np.prod(shape)))]
    a = SpectralField(g, np.stack([f.coeffs for f in fields]).reshape(shape + g.mode_shape))
    h = ParaOpHandle(a, cut)
    assert len(h.low) == cut.j_max - 3 >= 1
    for j, low in zip(range(4, cut.j_max + 1), h.low):
        half = (cut.lowpass_mult[j - 3] * a.coeffs)[..., K:]
        assert np.array_equal(low, _synthesize_half(g, half, cut.para_points))


def full_spectrum_apply(h, u):
    """T_a u as ParaOpHandle.apply made it on the full spectrum, the oracle of the half-spectrum
    apply: the low band by partial_sum on all coefficients, the level sum by analyze."""
    cut = h.cut
    out = h.contract(h.avg, cut.partial_sum(u, 3).coeffs)
    if len(h.low):
        high = np.einsum(h.sum_levels, h.low, cut.block_samples(u, 4, cut.para_points))
        out = out + analyze(h.grid, high).coeffs
    return SpectralField(h.grid, out)


@pytest.mark.parametrize("dim, K", [(1, 4), (1, 512), (2, 4), (2, 32), (3, 4), (3, 8)])
@pytest.mark.parametrize("symbol_shape, operand_shape", [((), ()), ((), (3,)), ((2, 2), (2,)),
                                                         ((4, 4), (4,))])
def test_half_spectrum_apply_equals_the_full_spectrum_apply(dim, K, symbol_shape, operand_shape):
    # K = 4 has no para-product level, so the apply is its low band alone; the fields are dense,
    # with no coefficient exactly zero, so that not even the sign of a zero may differ
    g = TorusGrid(dim, K)
    cut = make_cutoff(g)
    rng = np.random.default_rng(37)
    h = ParaOpHandle(analyze(g, rng.standard_normal(symbol_shape + g.point_shape)), cut)
    assert (len(h.low) == 0) == (K == 4)
    u = analyze(g, rng.standard_normal(operand_shape + g.point_shape))
    assert h.apply(u).coeffs.tobytes() == full_spectrum_apply(h, u).coeffs.tobytes()
    with pytest.raises(GridMismatchError):
        h.apply(SpectralField.zero(TorusGrid(dim, K + 1)))


@pytest.mark.parametrize("column", ["in_band", "above_band"])
@pytest.mark.parametrize("shape", [(), (2, 2)], ids=["scalar", "matrix"])
def test_a_handle_refuses_a_non_finite_symbol(column, shape):
    # the bands leave out the k_last columns above the top level's, so a NaN there would not
    # reach the low-passes; the build refuses the symbol wherever its NaN is
    g = TorusGrid(2, 32)
    cut = make_cutoff(g)
    band = cut.lowpass_band[cut.j_max - 3]
    assert band < g.max_mode + 1
    a = SpectralField(g, np.ones(shape + g.mode_shape, dtype=complex))
    k_last = 1 if column == "in_band" else band
    a.coeffs[..., g.max_mode + 2, g.max_mode + k_last] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite coefficient"):
        ParaOpHandle(a, cut)


def test_cm_remainder_bilinear_in_second_slot():
    g, cut = setup_1d(16)
    rng = np.random.default_rng(30)
    a, b1, b2, u = (random_field(g, rng) for _ in range(4))
    lhs = cm_remainder(a, b1 + b2, u, cut)
    rhs = cm_remainder(a, b1, u, cut) + cm_remainder(a, b2, u, cut)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
